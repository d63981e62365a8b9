"""Disk-backed local repack: splice correctness, durability, invariants.

The page-resident twin of ``test_repack.py``: hot-spot churn degrades a
packed :class:`DiskRTree`, ``local_repack_disk`` rebuilds just the
covering subtree onto fresh pages, and everything the rest of the system
relies on — query answers, entry count, all-leaves-one-depth, meta
durability across reopen — must hold before and after the splice.
"""

import os
import random

import pytest

from repro.geometry.rect import Rect
from repro.rtree.maintenance import worst_overlap_rect
from repro.rtree.repack import local_repack_disk
from repro.rtree.search import SearchStats
from repro.storage.disk_rtree import DiskRTree


def uniform_items(n, seed=1):
    rng = random.Random(seed)
    return [(Rect(x, y, x + 1, y + 1), i)
            for i, (x, y) in enumerate(
                (rng.uniform(0, 999), rng.uniform(0, 999))
                for _ in range(n))]


def hot_spot_churn(tree, live, center, count, seed=2):
    """Gaussian inserts around *center* (the Section 3.4 hot spot)."""
    rng = random.Random(seed)
    cx, cy = center
    next_oid = max(live) + 1
    for _ in range(count):
        x = min(max(rng.gauss(cx, 20.0), 0.0), 998.0)
        y = min(max(rng.gauss(cy, 20.0), 0.0), 998.0)
        rect = Rect(x, y, x + 1, y + 1)
        tree.insert(rect, next_oid)
        live[next_oid] = rect
        next_oid += 1


def brute(live, window):
    return sorted(oid for oid, rect in live.items()
                  if rect.intersects(window))


def assert_equivalent(tree, live, seed=3, windows=60):
    rng = random.Random(seed)
    for _ in range(windows):
        x, y = rng.uniform(0, 900), rng.uniform(0, 900)
        window = Rect(x, y, x + 100, y + 100)
        assert sorted(tree.search(window)) == brute(live, window)


def leaf_depths(tree):
    return {level for level, _page, is_leaf, _e in tree.walk() if is_leaf}


def root_entries(tree):
    return tree.store.fetch(tree.root)[1]


@pytest.fixture()
def churned(tmp_path):
    items = uniform_items(2000)
    tree = DiskRTree(os.path.join(str(tmp_path), "t.db"), max_entries=8)
    tree.bulk_load_stream(iter(items), method="hilbert", run_size=500)
    live = {oid: rect for rect, oid in items}
    child = Rect(*root_entries(tree)[0][:4])
    center = (child.center().x, child.center().y)
    hot_spot_churn(tree, live, center, 400)
    # Target what the maintenance loop would target: the post-churn root
    # partition most overlapped by its siblings relative to its size.
    region = worst_overlap_rect([Rect(*e[:4]) for e in root_entries(tree)])
    assert region is not None
    yield tree, live, region
    tree.close()


class TestSubtreeSplice:
    def test_targets_a_proper_subtree(self, churned):
        tree, _live, region = churned
        path, _slots = tree._covering_path(region)
        assert len(path) > 1

    def test_answers_and_size_preserved(self, churned):
        tree, live, region = churned
        result = local_repack_disk(tree, region=region)
        assert 0 < result.entries_repacked < len(live)
        assert len(tree) == len(live)
        assert_equivalent(tree, live)

    def test_repack_reduces_subtree_nodes(self, churned):
        tree, _live, region = churned
        result = local_repack_disk(tree, region=region)
        assert result.nodes_after <= result.nodes_before
        assert result.nodes_saved > 0

    def test_leaves_stay_at_one_depth(self, churned):
        tree, _live, region = churned
        before = leaf_depths(tree)
        local_repack_disk(tree, region=region)
        assert leaf_depths(tree) == before
        assert len(leaf_depths(tree)) == 1

    def test_splice_survives_reopen(self, churned, tmp_path):
        tree, live, region = churned
        local_repack_disk(tree, region=region)
        tree.close()
        reopened = DiskRTree(os.path.join(str(tmp_path), "t.db"),
                             max_entries=8)
        try:
            assert len(reopened) == len(live)
            assert_equivalent(reopened, live)
        finally:
            reopened.close()

    def test_improves_hot_spot_search_cost(self, churned):
        tree, _live, region = churned

        def cost():
            stats = SearchStats()
            tree.search(region, stats=stats)
            return stats.nodes_visited

        before = cost()
        local_repack_disk(tree, region=region)
        assert cost() <= before


class TestWholeTree:
    def test_region_none_rebuilds_via_swap(self, churned):
        tree, live, _region = churned
        result = local_repack_disk(tree, region=None)
        assert result.entries_repacked == len(live)
        assert result.nodes_saved > 0
        assert_equivalent(tree, live)

    def test_straddling_region_falls_back(self, tmp_path):
        # A region no single partition covers → whole-tree rebuild.
        items = uniform_items(600, seed=7)
        tree = DiskRTree(os.path.join(str(tmp_path), "w.db"),
                         max_entries=8)
        tree.bulk_load_stream(iter(items), method="hilbert", run_size=500)
        try:
            result = local_repack_disk(tree, region=Rect(1, 1, 998, 998))
            assert result.entries_repacked == 600
            live = {oid: rect for rect, oid in items}
            assert_equivalent(tree, live)
        finally:
            tree.close()

    def test_unsortable_order_is_rejected_before_any_write(self, churned):
        """The out-of-core rebuild cannot sort the paper's nn order: a
        whole-tree repack in it is refused up front, naming the orders
        it can sort, and leaves the tree as it was."""
        tree, live, _region = churned
        pages = tree.pager.page_count
        with pytest.raises(ValueError, match="'nn'") as refused:
            local_repack_disk(tree, region=None, method="nn")
        for order in ("str", "hilbert", "lowx"):
            assert order in str(refused.value)
        assert len(tree) == len(live)
        assert tree.pager.page_count == pages
        assert not os.path.exists(tree.pager.path + ".rebuild")
        tree.validate(check_fill=False)
        assert_equivalent(tree, live)

    def test_empty_tree_is_a_noop_success(self, tmp_path):
        tree = DiskRTree(os.path.join(str(tmp_path), "e.db"),
                         max_entries=8)
        try:
            result = local_repack_disk(tree)
            assert result.entries_repacked == 0
            assert tree.search(Rect(0, 0, 1000, 1000)) == []
        finally:
            tree.close()


class TestPadding:
    def test_sparse_subtree_keeps_height(self, tmp_path):
        """Deleting most of a subtree then repacking pads to height."""
        items = uniform_items(2000, seed=9)
        tree = DiskRTree(os.path.join(str(tmp_path), "p.db"),
                         max_entries=8)
        tree.bulk_load_stream(iter(items), method="hilbert", run_size=500)
        live = {oid: rect for rect, oid in items}
        try:
            child = Rect(*root_entries(tree)[0][:4])
            # Empty the partition down to a handful of entries so the
            # packed replacement is shallower than the original subtree.
            victims = [oid for oid in tree.search(child)
                       if child.contains(live[oid])][:-4]
            for oid in victims:
                assert tree.delete(live[oid], oid)
                del live[oid]
            probe = Rect(child.center().x - 1, child.center().y - 1,
                         child.center().x + 1, child.center().y + 1)
            local_repack_disk(tree, region=probe)
            assert len(leaf_depths(tree)) == 1
            assert_equivalent(tree, live)
        finally:
            tree.close()
