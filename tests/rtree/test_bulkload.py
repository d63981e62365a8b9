"""The out-of-core bulk loader: streaming pipeline and swap safety.

The load-bearing property is *equivalence*: the external-sort pipeline
must write the very tree the in-memory loader (``DiskRTree.bulk_load``)
writes for the same order, node for node, because the pipeline's whole
point is changing the build's memory profile, not its result.
"""

import os
import random

import pytest

from repro.geometry import Point, Rect
from repro.rtree.bulkload import (
    SORT_KEYS,
    BulkLoadStats,
    _level_sizes,
    bulk_load_stream,
)
from repro.storage import disk_rtree, failpoints
from repro.storage.disk_rtree import DiskRTree


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


def _items(n, seed=42):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        w, h = rng.uniform(0, 5), rng.uniform(0, 5)
        out.append((Rect(x, y, x + w, y + h), i))
    return out


def _windows(n, seed=99):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x, y = rng.uniform(0, 900), rng.uniform(0, 900)
        out.append(Rect(x, y, x + rng.uniform(1, 150),
                        y + rng.uniform(1, 150)))
    return out


def _walk(tree):
    """The tree's level-order walk with each node's entries listed."""
    return [(level, ref, is_leaf, list(entries))
            for level, ref, is_leaf, entries in tree.walk()]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """An in-memory-loaded DiskRTree over the shared item set."""
    path = tmp_path_factory.mktemp("ref") / "ref.db"
    tree = DiskRTree(str(path), max_entries=8)
    tree.bulk_load(_items(2000))
    yield tree
    tree.close()


class TestEquivalence:
    @pytest.mark.parametrize("method", SORT_KEYS)
    def test_matches_in_memory_load(self, tmp_path, method):
        items = _items(2000)
        memory = DiskRTree(str(tmp_path / "m.db"), max_entries=8)
        memory.bulk_load(items,
                         method="str" if method == "adaptive" else method)
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        stats = bulk_load_stream(tree, iter(items), method=method,
                                 run_size=300)
        assert stats.items == len(tree) == 2000
        assert stats.runs == 7  # ceil(2000 / 300)
        assert _walk(tree) == _walk(memory)
        for rect, oid in random.Random(5).sample(items, 25):
            assert oid in tree.point_query(Point(rect.x1, rect.y1))
        tree.close()
        memory.close()

    def test_single_run_fast_path(self, tmp_path, reference):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        stats = bulk_load_stream(tree, iter(_items(2000)), run_size=5000)
        assert stats.runs == 1
        for w in _windows(10, seed=3):
            assert sorted(tree.search(w)) == sorted(reference.search(w))
        tree.close()

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "t.db")
        items = _items(500, seed=9)
        tree = DiskRTree(path, max_entries=8)
        bulk_load_stream(tree, iter(items), run_size=100)
        expect = sorted(tree.search(Rect(0, 0, 500, 500)))
        tree.close()
        with DiskRTree(path, max_entries=8) as reopened:
            assert len(reopened) == 500
            assert sorted(reopened.search(Rect(0, 0, 500, 500))) == expect

    def test_wal_attached_tree(self, tmp_path):
        path = str(tmp_path / "t.db")
        wal = str(tmp_path / "t.wal")
        items = _items(800, seed=2)
        tree = DiskRTree(path, max_entries=8, wal_path=wal)
        bulk_load_stream(tree, iter(items), run_size=150, commit_every=16)
        expect = sorted(tree.search(Rect(100, 100, 600, 600)))
        tree.close()
        with DiskRTree(path, max_entries=8, wal_path=wal) as reopened:
            assert sorted(reopened.search(Rect(100, 100, 600, 600))) \
                == expect

    def test_method_on_tree_object(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        stats = tree.bulk_load_stream(iter(_items(100)), run_size=40)
        assert stats.items == len(tree) == 100
        tree.close()


class TestEdgeCases:
    def test_empty_input(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        stats = bulk_load_stream(tree, iter(()))
        assert stats == BulkLoadStats(items=0, runs=0, levels=1,
                                      nodes_written=0)
        assert len(tree) == 0
        assert tree.search(Rect(0, 0, 1000, 1000)) == []
        tree.close()

    def test_empty_input_survives_reopen(self, tmp_path):
        """An empty load leaves a valid, durable tree on disk.

        Regression: the empty-input early return used to skip the
        flush, so the meta page only reached disk by luck of the
        buffer pool.  Reopening must pass meta validation and answer
        searches with [].
        """
        path = str(tmp_path / "t.db")
        tree = DiskRTree(path, max_entries=8)
        bulk_load_stream(tree, iter(()))
        tree.pager.close()  # drop without the close() flush
        with DiskRTree(path, max_entries=8) as reopened:
            assert len(reopened) == 0
            assert reopened.search(Rect(0, 0, 1000, 1000)) == []
            assert reopened.point_query(Point(1, 1)) == []

    def test_rebuild_from_nothing_reopens_empty(self, tmp_path):
        path = str(tmp_path / "empty.db")
        with DiskRTree(path, max_entries=8) as tree:
            tree.rebuild(iter(()), "str")
        with DiskRTree(path, max_entries=8) as t:
            assert len(t) == 0
            assert t.search(Rect(0, 0, 1000, 1000)) == []

    def test_rebuild_to_empty(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        bulk_load_stream(tree, _items(100), run_size=40)
        tree.rebuild(iter(()), "str")
        assert len(tree) == 0
        assert tree.search(Rect(0, 0, 1000, 1000)) == []
        tree.close()

    def test_single_item(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        stats = bulk_load_stream(tree, [(Rect(1, 1, 2, 2), 7)])
        assert stats.levels == 1 and stats.nodes_written == 1
        assert stats.height == 0
        assert tree.search(Rect(0, 0, 3, 3)) == [7]
        tree.close()

    def test_exactly_one_full_node(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        stats = bulk_load_stream(tree, _items(8))
        assert stats.levels == 1 and stats.nodes_written == 1
        tree.close()

    def test_non_empty_tree_rejected(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        tree.insert(Rect(0, 0, 1, 1), 1)
        with pytest.raises(ValueError, match="empty tree"):
            bulk_load_stream(tree, _items(10))
        tree.close()

    def test_bad_run_size_rejected(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        with pytest.raises(ValueError, match="run_size"):
            bulk_load_stream(tree, _items(10), run_size=1)
        tree.close()

    def test_unknown_method_rejected(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        with pytest.raises(KeyError, match="zorder"):
            bulk_load_stream(tree, _items(10), method="zorder")
        tree.close()

    def test_invalid_rect_rejected(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        with pytest.raises(ValueError, match="invalid rectangle"):
            bulk_load_stream(tree, [(Rect(5, 5, 1, 1), 0)])
        tree.close()

    def test_negative_oid_rejected(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        with pytest.raises(ValueError, match="non-negative"):
            bulk_load_stream(tree, [(Rect(0, 0, 1, 1), -3)])
        tree.close()


class TestStructure:
    def test_level_sizes_exact(self):
        assert _level_sizes(1, 8) == [1]
        assert _level_sizes(8, 8) == [1]
        assert _level_sizes(9, 8) == [2, 1]
        assert _level_sizes(64, 8) == [8, 1]
        assert _level_sizes(65, 8) == [9, 2, 1]

    def test_nodes_written_matches_level_math(self, tmp_path):
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        stats = bulk_load_stream(tree, _items(777), run_size=100)
        sizes = _level_sizes(777, 8)
        assert stats.nodes_written == sum(sizes)
        assert stats.levels == len(sizes)
        tree.close()

    @staticmethod
    def _level_fills(tree):
        """Entry counts per node, grouped by level (root first)."""
        levels = []
        for level, _page, _is_leaf, entries in tree.walk():
            if level == len(levels):
                levels.append([])
            levels[level].append(len(entries))
        return levels

    def test_leaves_are_packed_full(self, tmp_path):
        """Run-packing fills every leaf but the trailing pair (3.3)."""
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        bulk_load_stream(tree, _items(500), run_size=120)
        fills = self._level_fills(tree)[-1]
        assert sum(f == 8 for f in fills) >= len(fills) - 2
        assert sum(fills) == 500
        tree.close()

    @pytest.mark.parametrize("n", [9, 17, 65, 498, 513])
    def test_min_fill_on_every_level(self, tmp_path, n):
        """No level emits a node below min_fill (trailing-node bugfix).

        Sizes chosen so the trailing remainder group would hold fewer
        than ``min_fill`` entries without the redistribution (e.g. 17 =
        2x8 + 1: the old code wrote a 1-entry leaf).
        """
        tree = DiskRTree(str(tmp_path / f"t{n}.db"), max_entries=8)
        bulk_load_stream(tree, _items(n), run_size=100)
        levels = self._level_fills(tree)
        for depth, fills in enumerate(levels):
            if depth == 0:     # the root is exempt from min fill
                continue
            assert all(tree.min_entries <= f <= 8 for f in fills), \
                (n, depth, fills)
        assert sum(levels[-1]) == n
        tree.close()


class TestAdaptive:
    """``adaptive``: the alias of ``str`` the benchmark spine calls."""

    def _clustered(self, n, seed=7):
        rng = random.Random(seed)
        centers = [(100, 100), (880, 120), (500, 870)]
        out = []
        for i in range(n):
            cx, cy = centers[rng.randrange(len(centers))]
            x = min(995.0, max(0.0, rng.gauss(cx, 15)))
            y = min(995.0, max(0.0, rng.gauss(cy, 15)))
            out.append((Rect(x, y, x + 1, y + 1), i))
        return out

    def test_adaptive_matches_brute_force(self, tmp_path):
        items = self._clustered(600)
        tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
        stats = bulk_load_stream(tree, iter(items), method="adaptive",
                                 run_size=150)
        assert stats.items == len(tree) == 600
        for w in _windows(25, seed=11):
            expect = sorted(i for r, i in items if r.intersects(w))
            assert sorted(tree.search(w)) == expect
        tree.close()


class TestRebuildAndSwap:
    def test_rebuild_replaces_contents(self, tmp_path):
        path = str(tmp_path / "t.db")
        tree = DiskRTree(path, max_entries=8)
        bulk_load_stream(tree, _items(200, seed=1), run_size=50)
        new_items = _items(900, seed=2)
        tree.rebuild(iter(new_items), "str")
        assert len(tree) == 900
        w = Rect(0, 0, 400, 400)
        assert sorted(tree.search(w)) == sorted(
            oid for rect, oid in new_items if rect.intersects(w))
        assert not os.path.exists(path + ".rebuild")
        tree.close()

    def test_rebuild_overwrites_stale_leftover(self, tmp_path):
        path = str(tmp_path / "x.db")
        with open(path + ".rebuild", "wb") as f:
            f.write(b"junk from a crashed earlier rebuild")
        with DiskRTree(path, max_entries=8) as tree:
            tree.rebuild(_items(50), "str")
        with DiskRTree(path, max_entries=8) as t:
            assert len(t) == 50

    def test_crash_before_swap_leaves_old_tree_intact(self, tmp_path):
        path = str(tmp_path / "t.db")
        tree = DiskRTree(path, max_entries=8)
        old_items = _items(300, seed=5)
        bulk_load_stream(tree, iter(old_items), run_size=100)
        failpoints.arm(disk_rtree.FP_SWAP_BEFORE, "crash")
        with pytest.raises(failpoints.SimulatedCrash):
            tree.rebuild(_items(50, seed=6), "str")
        # "Recover": reopen from disk as a fresh process would.
        with DiskRTree(path, max_entries=8) as recovered:
            assert len(recovered) == 300
            w = Rect(0, 0, 500, 500)
            assert sorted(recovered.search(w)) == sorted(
                oid for rect, oid in old_items if rect.intersects(w))

    def test_crash_after_swap_leaves_new_tree_readable(self, tmp_path):
        path = str(tmp_path / "t.db")
        tree = DiskRTree(path, max_entries=8)
        bulk_load_stream(tree, _items(300, seed=5), run_size=100)
        new_items = _items(80, seed=6)
        failpoints.arm(disk_rtree.FP_SWAP_AFTER, "crash")
        with pytest.raises(failpoints.SimulatedCrash):
            tree.rebuild(iter(new_items), "str")
        with DiskRTree(path, max_entries=8) as recovered:
            assert len(recovered) == 80
            w = Rect(0, 0, 500, 500)
            assert sorted(recovered.search(w)) == sorted(
                oid for rect, oid in new_items if rect.intersects(w))

    def test_failpoints_are_declared(self):
        assert disk_rtree.FP_SWAP_BEFORE in failpoints.names()
        assert disk_rtree.FP_SWAP_AFTER in failpoints.names()
