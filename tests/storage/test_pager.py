"""Unit tests for the page store."""

import gc
import os
import warnings

import pytest

from repro.storage.pager import (CorruptPageError, InvalidPageError,
                                 Pager, PagerError)


@pytest.fixture()
def pager(tmp_path):
    p = Pager(tmp_path / "test.db", page_size=512)
    yield p
    p.close()


def test_fresh_file_has_header_page(pager):
    assert pager.page_count == 1


def test_allocate_returns_distinct_pages(pager):
    pages = [pager.allocate() for _ in range(5)]
    assert len(set(pages)) == 5
    assert all(p >= 1 for p in pages)


def test_write_read_roundtrip(pager):
    page = pager.allocate()
    pager.write_page(page, b"hello world")
    assert pager.read_page(page).data == b"hello world"


def test_empty_payload(pager):
    page = pager.allocate()
    pager.write_page(page, b"")
    assert pager.read_page(page).data == b""


def test_payload_too_large_rejected(pager):
    page = pager.allocate()
    with pytest.raises(ValueError):
        pager.write_page(page, b"x" * 512)


def test_max_payload_fits(pager):
    page = pager.allocate()
    payload = b"y" * (512 - 8)  # page size minus the crc+len prefix
    pager.write_page(page, payload)
    assert pager.read_page(page).data == payload


def test_out_of_range_page_rejected(pager):
    with pytest.raises(PagerError):
        pager.read_page(99)
    with pytest.raises(PagerError):
        pager.write_page(0, b"header is off limits")


def test_free_list_reuse(pager):
    a = pager.allocate()
    b = pager.allocate()
    pager.free(a)
    c = pager.allocate()
    assert c == a  # reused from the free list
    assert b != c


def test_free_list_survives_reopen(tmp_path):
    path = tmp_path / "reuse.db"
    with Pager(path, page_size=512) as p:
        a = p.allocate()
        p.allocate()
        p.free(a)
    with Pager(path, page_size=512) as p:
        assert p.allocate() == a


def test_persistence_across_reopen(tmp_path):
    path = tmp_path / "persist.db"
    with Pager(path, page_size=512) as p:
        page = p.allocate()
        p.write_page(page, b"durable")
        p.sync()
    with Pager(path, page_size=512) as p:
        assert p.read_page(page).data == b"durable"


def test_page_size_mismatch_rejected(tmp_path):
    path = tmp_path / "size.db"
    Pager(path, page_size=512).close()
    with pytest.raises(PagerError):
        Pager(path, page_size=1024)


def test_corrupt_page_detected(tmp_path):
    path = tmp_path / "corrupt.db"
    with Pager(path, page_size=512) as p:
        page = p.allocate()
        p.write_page(page, b"important data")
        p.sync()
    # Flip a byte in the stored payload.
    with open(path, "r+b") as f:
        f.seek(page * 512 + 12)
        f.write(b"\xff")
    with Pager(path, page_size=512) as p:
        with pytest.raises(CorruptPageError):
            p.read_page(page)


def test_corrupt_header_detected(tmp_path):
    path = tmp_path / "badmagic.db"
    Pager(path, page_size=512).close()
    with open(path, "r+b") as f:
        f.write(b"XXXX")
    with pytest.raises(CorruptPageError):
        Pager(path, page_size=512)


@pytest.mark.parametrize("damage", ["page_size", "magic"])
def test_refused_open_closes_its_file(tmp_path, damage):
    """An open that fails validation leaves no descriptor behind."""
    path = tmp_path / "refused.db"
    Pager(path, page_size=512).close()
    if damage == "magic":
        with open(path, "r+b") as f:
            f.write(b"XXXX")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(PagerError):
            Pager(path, page_size=1024 if damage == "page_size" else 512)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_io_counters(pager):
    page = pager.allocate()
    reads_before = pager.reads
    writes_before = pager.writes
    pager.write_page(page, b"count me")
    pager.read_page(page)
    assert pager.writes == writes_before + 1
    assert pager.reads == reads_before + 1


def test_tiny_page_size_rejected(tmp_path):
    with pytest.raises(ValueError):
        Pager(tmp_path / "tiny.db", page_size=16)


def test_close_is_idempotent(tmp_path):
    p = Pager(tmp_path / "close.db", page_size=512)
    p.close()
    p.close()


def test_invalid_page_error_is_a_pager_error():
    """Callers catching PagerError must keep working unchanged."""
    assert issubclass(InvalidPageError, PagerError)


def test_free_rejects_header_and_out_of_range(pager):
    with pytest.raises(InvalidPageError):
        pager.free(0)
    with pytest.raises(InvalidPageError):
        pager.free(pager.page_count)
    with pytest.raises(InvalidPageError):
        pager.free(-3)


def test_double_free_rejected(pager):
    page = pager.allocate()
    pager.free(page)
    with pytest.raises(InvalidPageError):
        pager.free(page)
    # The free list is intact: the page comes back exactly once.
    assert pager.allocate() == page
    assert pager.allocate() == page + 1


def test_closed_pager_never_reads_a_reused_descriptor(tmp_path):
    p = Pager(tmp_path / "closed.db", page_size=512)
    page = p.allocate()
    p.write_page(page, b"mine")
    p.close()
    # the next open takes the lowest free descriptor, the pager's old one
    with open(tmp_path / "other.bin", "wb+") as other:
        other.write(b"\0" * 4096)
        other.flush()
        with pytest.raises(OSError):
            p.read_page(page)


def test_short_writes_are_completed(tmp_path, monkeypatch):
    p = Pager(tmp_path / "short.db", page_size=512)
    page = p.allocate()
    real_pwrite = os.pwrite
    calls = []

    def short_pwrite(fd, data, offset):
        calls.append(offset)
        return real_pwrite(fd, bytes(data[:100]), offset)

    monkeypatch.setattr(os, "pwrite", short_pwrite)
    p.write_page(page, b"x" * 400)
    monkeypatch.undo()
    assert len(calls) == 6  # 512 bytes, 100 at a time
    p.close()
    with Pager(tmp_path / "short.db", page_size=512) as again:
        assert again.read_page(page).data == b"x" * 400


def test_stalled_write_raises(tmp_path, monkeypatch):
    p = Pager(tmp_path / "stalled.db", page_size=512)
    page = p.allocate()
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: 0)
    with pytest.raises(OSError, match="stalled"):
        p.write_page(page, b"lost")
    monkeypatch.undo()
    p.close()
