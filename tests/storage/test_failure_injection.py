"""Failure-injection tests for the storage stack.

Corrupt pages, truncated files, starved buffer pools — storage must
*detect* these, never return wrong answers silently.
"""

import os
import struct

import pytest

from repro.geometry import Point, Rect
from repro.storage import CorruptPageError, DiskRTree, Pager
from repro.storage.disk_rtree import TreeMetaError
from repro.storage.buffer import BufferFullError, BufferPool
from repro.storage.pager import PagerError
from repro.workloads import uniform_points


@pytest.fixture()
def loaded_tree_path(tmp_path):
    path = str(tmp_path / "t.db")
    items = [(Rect.from_point(p), i)
             for i, p in enumerate(uniform_points(200, seed=61))]
    with DiskRTree(path, max_entries=8) as t:
        t.bulk_load(items)
    return path


def test_corrupted_node_page_detected_on_search(loaded_tree_path):
    tree = DiskRTree(loaded_tree_path)
    root = tree.root
    tree.close()
    # Flip bytes inside the root node's payload.
    with open(loaded_tree_path, "r+b") as f:
        f.seek(root * 4096 + 16)
        f.write(b"\xde\xad\xbe\xef")
    tree = DiskRTree(loaded_tree_path)
    with pytest.raises(CorruptPageError):
        tree.search(Rect(0, 0, 1000, 1000))
    tree.close()


def test_truncated_file_detected(loaded_tree_path):
    size = os.path.getsize(loaded_tree_path)
    with open(loaded_tree_path, "r+b") as f:
        f.truncate(size - 1000)
    tree = DiskRTree(loaded_tree_path)
    with pytest.raises(CorruptPageError):
        # The truncated tail held real nodes.
        tree.node_count
    tree.close()


def test_zeroed_meta_page_detected(loaded_tree_path):
    with open(loaded_tree_path, "r+b") as f:
        f.seek(1 * 4096)
        f.write(b"\0" * 4096)
    # Meta payload of length 0 fails checksum/length validation on open
    # (a zeroed checksum over zero bytes can pass, in which case the
    # meta validator catches the short payload with a typed error).
    with pytest.raises((CorruptPageError, TreeMetaError)):
        DiskRTree(loaded_tree_path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "notadb.db"
    path.write_bytes(b"GARBAGE!" * 1024)
    with pytest.raises(CorruptPageError):
        Pager(path, page_size=4096)


def test_wrong_page_size_rejected(loaded_tree_path):
    with pytest.raises(PagerError):
        Pager(loaded_tree_path, page_size=8192)


def test_starved_buffer_pool_raises_not_corrupts(tmp_path):
    pager = Pager(tmp_path / "p.db", page_size=512)
    pages = []
    for i in range(4):
        page = pager.allocate()
        pager.write_page(page, f"v{i}".encode())
        pages.append(page)
    pool = BufferPool(pager, capacity=2)
    pool.pin(pages[0])
    pool.pin(pages[1])
    with pytest.raises(BufferFullError):
        pool.get(pages[2])
    # The pinned pages are still intact.
    assert pool.get(pages[0]) == b"v0"
    pager.close()


def test_disk_tree_with_minimal_buffer_still_correct(tmp_path):
    """Capacity-1 pool: pathological thrashing, identical answers."""
    items = [(Rect.from_point(p), i)
             for i, p in enumerate(uniform_points(150, seed=62))]
    path = str(tmp_path / "tiny.db")
    with DiskRTree(path, max_entries=8, buffer_capacity=1) as t:
        t.bulk_load(items)
        window = Rect(200, 200, 700, 700)
        expect = sorted(i for r, i in items if r.intersects(window))
        assert sorted(t.search(window)) == expect
        # Dynamic updates under the starved pool.
        t.insert(Rect(500, 500, 500, 500), 9999)
        assert 9999 in t.point_query(Point(500, 500))


def test_interleaved_handles_one_writer_wins(tmp_path):
    """Two handles on one file: flushed state is what the second sees."""
    path = str(tmp_path / "shared.db")
    a = DiskRTree(path, max_entries=8)
    a.insert(Rect(1, 1, 2, 2), 1)
    a.flush()
    b = DiskRTree(path)
    assert b.search(Rect(0, 0, 3, 3)) == [1]
    b.close()
    a.close()
