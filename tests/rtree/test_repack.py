"""Unit tests for local re-packing (the paper's Section 4 future work)."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.rtree import RTree, local_repack
from repro.rtree.packing import pack
from repro.rtree.stats import average_nodes_visited, coverage
from repro.workloads import random_point_probes, uniform_points


def degraded_tree(n=400, updates=300, seed=3):
    """A packed tree after a heavy update burst."""
    pts = uniform_points(n, seed=seed)
    items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
    tree = pack(items, max_entries=4)
    live = dict((i, r) for r, i in items)
    rng = random.Random(seed)
    next_id = n
    for _ in range(updates):
        if rng.random() < 0.5 and live:
            oid = rng.choice(list(live))
            tree.delete(live.pop(oid), oid)
        else:
            r = Rect.from_point(Point(rng.uniform(0, 1000),
                                      rng.uniform(0, 1000)))
            tree.insert(r, next_id)
            live[next_id] = r
            next_id += 1
    return tree, live


def all_contents(tree):
    return sorted(tree.search(Rect(-1, -1, 1001, 1001)))


class TestFullRepack:
    def test_preserves_contents(self):
        tree, live = degraded_tree()
        before = all_contents(tree)
        result = local_repack(tree)
        assert all_contents(tree) == before
        assert result.entries_repacked == len(live)
        tree.validate(check_fill=False)

    def test_reduces_node_count(self):
        tree, _live = degraded_tree()
        nodes_before = tree.node_count
        result = local_repack(tree)
        assert tree.node_count <= nodes_before
        assert result.nodes_after <= result.nodes_before

    def test_restores_search_quality(self):
        tree, live = degraded_tree(updates=400)
        probes = random_point_probes(300, seed=5)
        degraded_a = average_nodes_visited(tree, probes)
        local_repack(tree)
        repacked_a = average_nodes_visited(tree, probes)
        assert repacked_a <= degraded_a

    def test_empty_tree(self):
        tree = RTree(max_entries=4)
        result = local_repack(tree)
        assert result.entries_repacked == 0

    def test_tree_stays_dynamic_after_repack(self):
        tree, _ = degraded_tree()
        local_repack(tree)
        tree.insert(Rect(5, 5, 6, 6), "post")
        assert "post" in tree.search(Rect(0, 0, 10, 10))
        assert tree.delete(Rect(5, 5, 6, 6), "post")
        tree.validate(check_fill=False)


class TestLocalRepack:
    def test_region_repack_preserves_contents(self):
        tree, _live = degraded_tree()
        before = all_contents(tree)
        result = local_repack(tree, region=Rect(100, 100, 300, 300))
        assert all_contents(tree) == before
        assert result.entries_repacked > 0
        tree.validate(check_fill=False)

    def test_region_repack_touches_subtree_only(self):
        tree, _live = degraded_tree(n=800, updates=0)
        total = len(tree)
        result = local_repack(tree, region=Rect(100, 100, 200, 200))
        # A local hot spot should not force re-packing everything.
        assert result.entries_repacked <= total

    def test_leaf_depths_stay_uniform(self):
        tree, _live = degraded_tree()
        local_repack(tree, region=Rect(400, 400, 600, 600))
        depths = {level for level, _ref, is_leaf, _e in tree.walk()
                  if is_leaf}
        assert len(depths) == 1

    def test_region_outside_tree(self):
        tree, _live = degraded_tree(n=100, updates=0)
        before = all_contents(tree)
        local_repack(tree, region=Rect(2000, 2000, 2100, 2100))
        assert all_contents(tree) == before

    def test_repeated_repacks_idempotent_contents(self):
        tree, _live = degraded_tree()
        before = all_contents(tree)
        for _ in range(3):
            local_repack(tree, region=Rect(0, 0, 500, 500))
        assert all_contents(tree) == before

    def test_leaf_fill_improves_after_full_repack(self):
        """Re-packing restores fully filled leaves (fewer, fuller nodes)."""
        tree, _live = degraded_tree(updates=400)

        def mean_fill(t):
            leaves = [len(entries)
                      for _l, _r, is_leaf, entries in t.walk() if is_leaf]
            return sum(leaves) / len(leaves)

        fill_before = mean_fill(tree)
        local_repack(tree)
        assert mean_fill(tree) > fill_before
        assert mean_fill(tree) > 3.5  # nearly every leaf holds M = 4

    def test_method_forwarded(self):
        tree, _live = degraded_tree(n=100, updates=50)
        before = all_contents(tree)
        local_repack(tree, method="str")
        assert all_contents(tree) == before
        with pytest.raises(KeyError):
            local_repack(tree, method="nope")
