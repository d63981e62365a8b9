"""Unit tests for the write-ahead log and the pager's commit protocol.

Crash simulation here is the soft kind: arm a failpoint, catch
:class:`SimulatedCrash`, *abandon* every handle without closing, and
reopen from the path.  Files are opened unbuffered in WAL mode, so the
on-disk state is exactly what a killed process would leave.
"""

import os
import struct

import pytest

from repro.storage import failpoints
from repro.storage.failpoints import SimulatedCrash
from repro.storage.heapfile import HeapFile
from repro.storage.pager import InvalidPageError, Pager
from repro.storage.wal import (
    KIND_COMMIT,
    KIND_PAGE,
    WalError,
    WriteAheadLog,
)


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


def paths(tmp_path):
    return str(tmp_path / "data.db"), str(tmp_path / "data.db.wal")


def open_pager(tmp_path, **kw):
    data, wal = paths(tmp_path)
    kw.setdefault("page_size", 512)
    kw.setdefault("wal_sync", "none")
    return Pager(data, wal_path=wal, **kw)


# -- the log file itself ------------------------------------------------------


class TestWriteAheadLog:
    def test_roundtrip_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal", page_size=64, sync="none")
        wal.append_page(3, b"a" * 64)
        wal.append_page(5, b"b" * 64)
        wal.commit()
        records = list(wal.records())
        assert [(r.kind, r.page_no) for r in records] == \
            [(KIND_PAGE, 3), (KIND_PAGE, 5), (KIND_COMMIT, 0)]
        assert records[0].payload == b"a" * 64
        assert [r.lsn for r in records] == [1, 2, 3]
        wal.close()

    def test_wrong_image_size_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal", page_size=64, sync="none")
        with pytest.raises(WalError):
            wal.append_page(1, b"short")

    def test_geometry_mismatch_rejected(self, tmp_path):
        WriteAheadLog(tmp_path / "w.wal", page_size=64).close()
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path / "w.wal", page_size=128)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "w.wal").write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path / "w.wal", page_size=64)

    def test_uncommitted_batch_invisible(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal", page_size=64, sync="none")
        wal.append_page(1, b"x" * 64)
        wal.commit()
        wal.append_page(2, b"y" * 64)  # no COMMIT follows
        images, commits = wal.committed_pages()
        assert set(images) == {1} and commits == 1
        wal.close()

    def test_torn_tail_stops_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal", page_size=64, sync="none")
        wal.append_page(1, b"x" * 64)
        wal.commit()
        wal.append_page(2, b"y" * 64)
        wal.close()
        # Corrupt the final record's payload on disk.
        with open(tmp_path / "w.wal", "r+b") as f:
            f.seek(-8, os.SEEK_END)
            f.write(b"\xff" * 8)
        wal = WriteAheadLog(tmp_path / "w.wal", page_size=64, sync="none")
        images, commits = wal.committed_pages()
        assert set(images) == {1} and commits == 1
        wal.close()

    def test_truncated_tail_stops_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal", page_size=64, sync="none")
        wal.append_page(1, b"x" * 64)
        wal.commit()
        wal.append_page(2, b"y" * 64)
        size = wal.size_bytes
        wal.close()
        with open(tmp_path / "w.wal", "r+b") as f:
            f.truncate(size - 10)
        wal = WriteAheadLog(tmp_path / "w.wal", page_size=64, sync="none")
        images, _ = wal.committed_pages()
        assert set(images) == {1}
        wal.close()

    def test_short_log_writes_are_completed(self, tmp_path, monkeypatch):
        records = [(KIND_PAGE, n, bytes([n]) * 64) for n in range(1, 5)]
        records.append((KIND_COMMIT, 0, b""))
        with WriteAheadLog(tmp_path / "whole.wal", page_size=64,
                           sync="none") as wal:
            wal.append(records)
        real_writev = os.writev
        calls = []

        def short_writev(fd, buffers):
            # At most 50 bytes a call, cut across buffer boundaries.
            calls.append(len(buffers))
            return real_writev(fd, [b"".join(buffers)[:50]])

        monkeypatch.setattr(os, "writev", short_writev)
        with WriteAheadLog(tmp_path / "short.wal", page_size=64,
                           sync="none") as wal:
            wal.append(records)
        monkeypatch.undo()
        assert len(calls) == 8  # 4 * (25 + 64) + 25 = 381 bytes
        assert (tmp_path / "short.wal").read_bytes() == \
            (tmp_path / "whole.wal").read_bytes()

    def test_stalled_log_write_raises(self, tmp_path, monkeypatch):
        wal = WriteAheadLog(tmp_path / "w.wal", page_size=64, sync="none")
        monkeypatch.setattr(os, "writev", lambda fd, buffers: 0)
        with pytest.raises(OSError, match="stalled"):
            wal.append_page(1, b"x" * 64)
        monkeypatch.undo()
        wal.close()

    def test_failed_log_write_leaves_no_torn_bytes(self, tmp_path,
                                                   monkeypatch):
        """A write error mid-batch (a disk filling up) cuts the log back,
        so the retried commit is not stranded behind a torn record."""
        pager = open_pager(tmp_path)
        first = pager.allocate()
        pager.write_page(first, b"one")
        pager.commit()
        second = pager.allocate()
        pager.write_page(second, b"two")
        real_writev = os.writev

        def fill_disk(fd, buffers):
            real_writev(fd, [b"".join(buffers)[:100]])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "writev", fill_disk)
        with pytest.raises(OSError):
            pager.commit()
        monkeypatch.undo()
        pager.commit()  # the retry is acknowledged
        images, commits = pager.wal.committed_pages()
        assert commits == 2 and {first, second} <= set(images)
        pager.close()

    def test_reset_truncates(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal", page_size=64, sync="none")
        wal.append_page(1, b"x" * 64)
        wal.commit()
        wal.reset()
        assert list(wal.records()) == []
        # And appending after a reset starts a fresh usable log.
        wal.append_page(2, b"z" * 64)
        wal.commit()
        images, _ = wal.committed_pages()
        assert set(images) == {2}
        wal.close()


# -- pager commit / recovery --------------------------------------------------


class TestPagerCommit:
    def test_staged_until_commit(self, tmp_path):
        pager = open_pager(tmp_path)
        page = pager.allocate()
        pager.write_page(page, b"v1")
        assert pager.pending_pages > 0
        assert pager.read_page(page).data == b"v1"  # read-through staging
        pager.commit()
        assert pager.pending_pages == 0
        assert pager.read_page(page).data == b"v1"
        pager.close()

    def test_commit_without_wal_is_noop(self, tmp_path):
        pager = Pager(tmp_path / "plain.db", page_size=512)
        page = pager.allocate()
        pager.write_page(page, b"v")
        pager.commit()  # must not raise
        assert pager.pending_pages == 0
        pager.close()

    def test_committed_survives_crash(self, tmp_path):
        pager = open_pager(tmp_path)
        page = pager.allocate()
        pager.write_page(page, b"durable")
        pager.commit()
        del pager  # crash: never closed, never checkpointed
        reopened = open_pager(tmp_path)
        assert reopened.read_page(page).data == b"durable"
        reopened.close()

    def test_uncommitted_vanishes_on_crash(self, tmp_path):
        pager = open_pager(tmp_path)
        a = pager.allocate()
        pager.write_page(a, b"acked")
        pager.commit()
        b = pager.allocate()
        pager.write_page(b, b"in flight")
        del pager
        reopened = open_pager(tmp_path)
        assert reopened.read_page(a).data == b"acked"
        assert reopened.page_count == a + 1  # b's allocation rolled back
        reopened.close()

    def test_crash_before_wal_sync_drops_batch(self, tmp_path):
        pager = open_pager(tmp_path)
        a = pager.allocate()
        pager.write_page(a, b"first")
        pager.commit()
        failpoints.arm("wal.commit.before-sync", "crash")
        pager.write_page(a, b"second")
        with pytest.raises(SimulatedCrash):
            pager.commit()
        del pager
        # Note: a soft crash cannot lose OS-buffered bytes, so the COMMIT
        # record written before the sync point is still on disk and the
        # batch replays.  Either outcome is atomic; assert exactly that.
        reopened = open_pager(tmp_path)
        assert reopened.read_page(a).data in (b"first", b"second")
        reopened.close()

    def test_crash_after_wal_sync_replays_batch(self, tmp_path):
        pager = open_pager(tmp_path)
        a = pager.allocate()
        pager.write_page(a, b"first")
        pager.commit()
        failpoints.arm("wal.commit.after-sync", "crash")
        pager.write_page(a, b"second")
        with pytest.raises(SimulatedCrash):
            pager.commit()
        del pager
        reopened = open_pager(tmp_path)
        assert reopened.recovered_pages > 0
        assert reopened.read_page(a).data == b"second"
        reopened.close()

    def test_crash_mid_apply_replays_batch(self, tmp_path):
        pager = open_pager(tmp_path)
        pages = [pager.allocate() for _ in range(4)]
        for i, p in enumerate(pages):
            pager.write_page(p, f"v{i}".encode())
        failpoints.arm("wal.apply", "crash", after=2)
        with pytest.raises(SimulatedCrash):
            pager.commit()
        del pager
        reopened = open_pager(tmp_path)
        for i, p in enumerate(pages):
            assert reopened.read_page(p).data == f"v{i}".encode()
        reopened.close()

    def test_torn_data_page_repaired_by_replay(self, tmp_path):
        pager = open_pager(tmp_path)
        page = pager.allocate()
        pager.write_page(page, b"x" * 200)
        pager.commit()
        failpoints.arm("wal.apply.torn", "torn")
        pager.write_page(page, b"y" * 200)
        with pytest.raises(SimulatedCrash):
            pager.commit()
        del pager
        reopened = open_pager(tmp_path)
        assert reopened.read_page(page).data == b"y" * 200
        reopened.close()

    def test_torn_wal_append_drops_batch(self, tmp_path):
        pager = open_pager(tmp_path)
        page = pager.allocate()
        pager.write_page(page, b"first")
        pager.commit()
        failpoints.arm("wal.append.torn", "torn")
        pager.write_page(page, b"second")
        with pytest.raises(SimulatedCrash):
            pager.commit()
        del pager
        reopened = open_pager(tmp_path)
        assert reopened.read_page(page).data == b"first"
        reopened.close()

    def test_crash_during_recovery_recovers_again(self, tmp_path):
        pager = open_pager(tmp_path)
        page = pager.allocate()
        pager.write_page(page, b"payload")
        failpoints.arm("wal.commit.after-sync", "crash")
        with pytest.raises(SimulatedCrash):
            pager.commit()
        del pager
        failpoints.arm("wal.recover", "crash")
        with pytest.raises(SimulatedCrash):
            open_pager(tmp_path)
        failpoints.reset()
        reopened = open_pager(tmp_path)
        assert reopened.read_page(page).data == b"payload"
        reopened.close()

    def test_crash_before_checkpoint_truncate_is_idempotent(self, tmp_path):
        pager = open_pager(tmp_path)
        page = pager.allocate()
        pager.write_page(page, b"data")
        pager.commit()
        failpoints.arm("wal.checkpoint", "crash")
        with pytest.raises(SimulatedCrash):
            pager.checkpoint()
        del pager
        reopened = open_pager(tmp_path)
        assert reopened.read_page(page).data == b"data"
        reopened.close()

    def test_automatic_checkpoint_bounds_wal(self, tmp_path):
        pager = open_pager(tmp_path, checkpoint_bytes=4096)
        for i in range(40):
            page = pager.allocate() if i < 4 else (i % 4) + 1
            pager.write_page(page, f"round {i}".encode())
            pager.commit()
        assert pager.checkpoints > 0
        assert pager.wal.size_bytes < 4096 + 3 * 512
        pager.close()

    def test_clean_close_truncates_wal(self, tmp_path):
        data, wal_path = paths(tmp_path)
        pager = open_pager(tmp_path)
        page = pager.allocate()
        pager.write_page(page, b"v")
        pager.close()
        assert os.path.getsize(wal_path) <= 16  # header only
        reopened = open_pager(tmp_path)
        assert reopened.recovered_pages == 0
        assert reopened.read_page(page).data == b"v"
        reopened.close()

    def test_injected_io_error_leaves_pager_usable(self, tmp_path):
        pager = open_pager(tmp_path)
        page = pager.allocate()
        pager.write_page(page, b"try")
        failpoints.arm("wal.append", "error")
        with pytest.raises(failpoints.InjectedFault):
            pager.commit()
        # The fault is one-shot; the retry commits the same staged batch.
        pager.commit()
        del pager
        reopened = open_pager(tmp_path)
        assert reopened.read_page(page).data == b"try"
        reopened.close()


# -- heap file over a WAL pager ----------------------------------------------


class TestHeapFileDurability:
    def test_commit_makes_insert_durable(self, tmp_path):
        data, wal = paths(tmp_path)
        heap = HeapFile(data, page_size=512, wal_path=wal, wal_sync="none")
        addr = heap.insert(b"hello row")
        heap.commit()
        addr2 = heap.insert(b"lost row")
        del heap  # crash without commit of the second insert
        heap2 = HeapFile(data, page_size=512, wal_path=wal, wal_sync="none")
        assert heap2.get(addr) == b"hello row"
        with pytest.raises(Exception):
            heap2.get(addr2)
        assert len(heap2) == 1
        heap2.close()

    def test_recovered_flag(self, tmp_path):
        data, wal = paths(tmp_path)
        heap = HeapFile(data, page_size=512, wal_path=wal, wal_sync="none")
        heap.insert(b"row")
        failpoints.arm("wal.commit.after-sync", "crash")
        with pytest.raises(SimulatedCrash):
            heap.commit()
        del heap
        heap2 = HeapFile(data, page_size=512, wal_path=wal, wal_sync="none")
        assert heap2.recovered
        assert len(heap2) == 1
        heap2.close()


# -- free-list validation (satellite fix) -------------------------------------


class TestFreeValidation:
    def test_double_free_rejected(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        page = pager.allocate()
        pager.free(page)
        with pytest.raises(InvalidPageError):
            pager.free(page)
        pager.close()

    def test_header_page_not_freeable(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        with pytest.raises(InvalidPageError):
            pager.free(0)
        pager.close()

    def test_out_of_range_free_rejected(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        with pytest.raises(InvalidPageError):
            pager.free(99)
        with pytest.raises(InvalidPageError):
            pager.free(-1)
        pager.close()

    def test_free_set_rebuilt_on_open(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        a = pager.allocate()
        b = pager.allocate()
        pager.free(a)
        pager.close()
        reopened = Pager(tmp_path / "p.db", page_size=512)
        with pytest.raises(InvalidPageError):
            reopened.free(a)  # still known-free after reopen
        reopened.free(b)
        assert reopened.allocate() == b  # LIFO reuse
        reopened.close()

    def test_free_list_cycle_detected_on_open(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        a = pager.allocate()
        pager.free(a)
        pager.close()
        # Point the freed page's next-link back at itself.
        with open(tmp_path / "p.db", "r+b") as f:
            f.seek(a * 512 + 8)
            f.write(struct.pack("<Q", a))
        from repro.storage.pager import CorruptPageError
        with pytest.raises(CorruptPageError):
            Pager(tmp_path / "p.db", page_size=512)
