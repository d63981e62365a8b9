"""Integration tests for the persistent R-tree."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.rtree import RTree
from repro.rtree.bulkload import bulk_load_stream
from repro.storage import DiskRTree, failpoints
from repro.storage.pager import FP_COMMIT_AFTER_SYNC
from repro.workloads import uniform_points


@pytest.fixture()
def items():
    pts = uniform_points(300, seed=55)
    return [(Rect.from_point(p), i) for i, p in enumerate(pts)]


def brute(items, window):
    return sorted(i for r, i in items if r.intersects(window))


WINDOW = Rect(150, 150, 450, 450)


def test_bulk_load_and_search(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        t.bulk_load(items)
        assert len(t) == 300
        assert sorted(t.search(WINDOW)) == brute(items, WINDOW)


def test_bulk_load_methods(tmp_path, items):
    for method in ("nn", "lowx", "str", "hilbert"):
        with DiskRTree(str(tmp_path / f"{method}.db"), max_entries=8) as t:
            t.bulk_load(items, method=method)
            assert sorted(t.search(WINDOW)) == brute(items, WINDOW)


def test_bulk_load_twice_rejected(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        t.bulk_load(items[:10])
        with pytest.raises(ValueError):
            t.bulk_load(items[10:])


def test_persistence_roundtrip(tmp_path, items):
    path = str(tmp_path / "t.db")
    with DiskRTree(path, max_entries=8) as t:
        t.bulk_load(items)
        depth = t.depth
        nodes = t.node_count
    with DiskRTree(path) as t:
        assert len(t) == 300
        assert t.depth == depth
        assert t.node_count == nodes
        assert sorted(t.search(WINDOW)) == brute(items, WINDOW)


def test_dynamic_insert(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        for r, i in items:
            t.insert(r, i)
        assert len(t) == 300
        assert sorted(t.search(WINDOW)) == brute(items, WINDOW)


def test_insert_after_bulk_load(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        t.bulk_load(items[:200])
        for r, i in items[200:]:
            t.insert(r, i)
        assert sorted(t.search(WINDOW)) == brute(items, WINDOW)


def test_search_within(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        t.bulk_load(items)
        expect = sorted(i for r, i in items if WINDOW.contains(r))
        assert sorted(t.search_within(WINDOW)) == expect
        # within results are a subset of intersecting results
        assert set(t.search_within(WINDOW)) <= set(t.search(WINDOW))


def test_point_query(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        t.bulk_load(items)
        target = items[42][0].center()
        assert 42 in t.point_query(target)
        assert t.point_query(Point(-10, -10)) == []


def test_knn_matches_brute_force(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        t.bulk_load(items)
        query = Point(512.5, 487.25)
        got = t.knn(query, k=7)
        qrect = Rect.from_point(query)
        brute = sorted((r.min_distance_to(qrect), i) for r, i in items)[:7]
        assert [round(d, 9) for d, _ in got] == [
            round(d, 9) for d, _ in brute]
        dists = [d for d, _ in got]
        assert dists == sorted(dists)


def test_knn_edge_cases(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        assert t.knn(Point(0, 0), k=3) == []  # empty tree
        t.bulk_load(items[:2])
        assert len(t.knn(Point(0, 0), k=10)) == 2  # k exceeds size
        with pytest.raises(ValueError):
            t.knn(Point(0, 0), k=0)


def test_delete(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        t.bulk_load(items)
        for r, i in items[::2]:
            assert t.delete(r, i)
        remaining = items[1::2]
        assert len(t) == len(remaining)
        assert sorted(t.search(WINDOW)) == brute(remaining, WINDOW)


def test_delete_missing_returns_false(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        t.bulk_load(items[:20])
        assert not t.delete(Rect(0, 0, 1, 1), 999)


def test_delete_everything_then_insert(tmp_path, items):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        subset = items[:50]
        t.bulk_load(subset)
        rng = random.Random(0)
        order = list(subset)
        rng.shuffle(order)
        for r, i in order:
            assert t.delete(r, i)
        assert len(t) == 0
        t.insert(Rect(5, 5, 6, 6), 7)
        assert t.search(Rect(0, 0, 10, 10)) == [7]


LOADERS = {
    "bulk_load": lambda t, items: t.bulk_load(items, method="str"),
    "bulk_load_stream": lambda t, items: t.bulk_load_stream(items,
                                                            run_size=40),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("bad", [
    (Rect(5, 5, 1, 1), 0),                                   # inverted
    (Rect(float("nan"), 0, 1, 1), 0),                        # NaN
    (Rect(0, 0, 1, 1), -3),                                  # negative oid
], ids=["inverted", "nan", "negative-oid"])
def test_loaders_validate_every_item_first(tmp_path, items, loader, bad):
    """A bad item anywhere fails the load before any page is written."""
    load = LOADERS[loader]
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        with pytest.raises(ValueError,
                           match="invalid rectangle|non-negative"):
            load(t, items[:51] + [bad] + items[51:100])
        assert len(t) == 0
        assert t.search(Rect(0, 0, 1000, 1000)) == []
        load(t, items)
        assert len(t) == 300
        assert sorted(t.search(WINDOW)) == brute(items, WINDOW)


def _page_census(t):
    """(header + meta + reachable node pages + free pages, page_count)."""
    reachable = t.node_count
    return 2 + reachable + len(t.pager._free_pages), t.pager.page_count


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loaders_leak_no_page(tmp_path, loader):
    """The constructor's empty root page is reused, not orphaned."""
    pts = uniform_points(1000, seed=8)
    items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
    path = str(tmp_path / "t.db")
    with DiskRTree(path, max_entries=8) as t:
        LOADERS[loader](t, items)
        accounted, pages = _page_census(t)
        assert accounted == pages
    with DiskRTree(path) as t:
        assert _page_census(t) == (pages, pages)
        assert sorted(t.search(WINDOW)) == brute(items, WINDOW)


def test_invalid_oid_rejected(tmp_path):
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8) as t:
        with pytest.raises(ValueError):
            t.insert(Rect(0, 0, 1, 1), -3)


def test_branching_factor_exceeding_page_rejected(tmp_path):
    with pytest.raises(ValueError):
        DiskRTree(str(tmp_path / "t.db"), max_entries=10_000,
                  page_size=512)


def test_default_branching_factor_fills_page(tmp_path):
    t = DiskRTree(str(tmp_path / "t.db"), page_size=4096)
    # ~100 entries of 40 bytes fit a 4 KiB page.
    assert t.max_entries > 50
    t.close()


def test_buffer_pool_reduces_physical_reads(tmp_path, items):
    path = str(tmp_path / "t.db")
    with DiskRTree(path, max_entries=8, buffer_capacity=256) as t:
        t.bulk_load(items)
        t.flush()
        t.pool.clear()
        reads_cold = t.pager.reads
        t.search(WINDOW)
        cold = t.pager.reads - reads_cold
        reads_warm = t.pager.reads
        t.search(WINDOW)
        warm = t.pager.reads - reads_warm
    assert warm < cold  # second search served from the pool


def test_flush_then_crash_consistency(tmp_path, items):
    """After flush, a brand-new handle sees everything (simulated crash)."""
    path = str(tmp_path / "t.db")
    t = DiskRTree(path, max_entries=8)
    t.bulk_load(items[:100])
    t.flush()
    # "Crash": drop the handle without close(); reopen from disk.
    t2 = DiskRTree(path)
    assert len(t2) == 100
    assert sorted(t2.search(WINDOW)) == brute(items[:100], WINDOW)
    t2.close()
    t.close()


@pytest.mark.parametrize("loader", ["bulk_load", "bulk_load_stream"])
def test_crash_after_mid_build_commit_reopens_empty(tmp_path, loader):
    """A WAL build that commits part-way and then crashes reopens empty."""
    pts = uniform_points(3500, seed=9)
    items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
    path, wal = str(tmp_path / "t.db"), str(tmp_path / "t.wal")
    t = DiskRTree(path, max_entries=4, wal_path=wal, wal_sync="none")
    failpoints.arm(FP_COMMIT_AFTER_SYNC, "crash")
    try:
        with pytest.raises(failpoints.SimulatedCrash):
            if loader == "bulk_load":
                t.bulk_load(items, method="str")  # 1,168 nodes > 1,024
            else:
                bulk_load_stream(t, items, run_size=500, commit_every=8)
    finally:
        failpoints.reset()
    del t  # crash: abandon the handles without closing
    with DiskRTree(path, wal_path=wal, wal_sync="none") as t:
        assert len(t) == 0
        assert t.search(Rect(0, 0, 1000, 1000)) == []
        t.bulk_load(items[:100])
        assert sorted(t.search(WINDOW)) == brute(items[:100], WINDOW)


def _leaf_groups(tree):
    """Each leaf's object ids, leaves left to right."""
    return [tuple(e[4] for e in entries)
            for _level, _ref, is_leaf, entries in tree.walk() if is_leaf]


def test_delete_reinserts_orphaned_subtree_whole(tmp_path):
    """CondenseTree re-inserts an orphaned subtree at its own level.

    24 points packed by ascending x at M=4 make leaves {0..3} ... {20..23}
    under two level-1 nodes, the second holding {16..19} and {20..23}.
    Deleting 20, 21 and 22 dissolves the last leaf, then its parent; the
    sibling leaf {16..19} goes back in as one entry, on its own page.
    """
    items = [(Rect.from_point(Point(i, (7 * i) % 24)), i) for i in range(24)]
    with DiskRTree(str(tmp_path / "t.db"), max_entries=4) as t:
        t.bulk_load(items, method="lowx")
        (page, entries), = [(ref, tuple(e)) for _l, ref, leaf, e in t.walk()
                            if leaf and {x[4] for x in e} == {16, 17, 18, 19}]
        for rect, oid in items[20:23]:
            assert t.delete(rect, oid)
        assert tuple(t.store.fetch(page)[1]) == entries
        assert (16, 17, 18, 19) in _leaf_groups(t)
        t.validate()


def test_insert_delete_sequence_same_tree_in_memory_and_on_disk(tmp_path):
    """One mutator: the same operations build the same leaves on both
    node stores, deletes that dissolve internal nodes included."""
    pts = uniform_points(120, seed=21)
    items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
    memory = RTree(max_entries=4)
    with DiskRTree(str(tmp_path / "t.db"), max_entries=4) as disk:
        for tree in (memory, disk):
            for rect, oid in items:
                tree.insert(rect, oid)
            for rect, oid in items[::3] + items[1::3][:25]:
                assert tree.delete(rect, oid)
            tree.validate()
        assert _leaf_groups(memory) == _leaf_groups(disk)
