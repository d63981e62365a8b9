"""Unit tests for PACK and the comparative bulk loaders."""

import math

import pytest

from repro.geometry import Point, Rect
from repro.rtree import RTree, node_mbr
from repro.rtree.packing import (
    PACK_METHODS,
    pack,
    pack_hilbert,
    pack_lowx,
    pack_nearest_neighbor,
    pack_points,
    pack_str,
)
from repro.rtree.theory import expected_pack_depth, expected_pack_node_count
from repro.workloads import uniform_points


def leaves(tree):
    """Each leaf's entries, left to right."""
    return [entries for _l, _r, is_leaf, entries in tree.walk() if is_leaf]

ALL_METHODS = sorted(PACK_METHODS)


@pytest.mark.parametrize("method", ALL_METHODS)
class TestPackContract:
    def test_contains_every_item(self, method, small_items):
        t = pack(small_items, max_entries=4, method=method)
        assert len(t) == len(small_items)
        got = sorted(t.search(Rect(0, 0, 1000, 1000)))
        assert got == sorted(oid for _r, oid in small_items)

    def test_structure_is_valid(self, method, small_items):
        t = pack(small_items, max_entries=4, method=method)
        t.validate(check_fill=False)

    def test_search_matches_brute_force(self, method, small_items):
        t = pack(small_items, max_entries=4, method=method)
        window = Rect(200, 200, 700, 700)
        expect = sorted(oid for r, oid in small_items
                        if r.intersects(window))
        assert sorted(t.search(window)) == expect

    def test_minimal_node_count(self, method, small_items):
        """Packed trees hit the geometric-series node count (N column)."""
        t = pack(small_items, max_entries=4, method=method)
        assert t.node_count == expected_pack_node_count(len(small_items), 4)

    def test_minimal_depth(self, method, small_items):
        t = pack(small_items, max_entries=4, method=method)
        assert t.depth == expected_pack_depth(len(small_items), 4)

    def test_empty_input(self, method):
        t = pack([], max_entries=4, method=method)
        assert len(t) == 0
        assert t.search(Rect(0, 0, 10, 10)) == []

    def test_single_item(self, method):
        t = pack([(Rect(1, 1, 2, 2), "only")], max_entries=4, method=method)
        assert t.search(Rect(0, 0, 3, 3)) == ["only"]
        assert t.depth == 0

    def test_exactly_one_node(self, method):
        items = [(Rect(i, i, i + 1, i + 1), i) for i in range(4)]
        t = pack(items, max_entries=4, method=method)
        assert t.depth == 0
        assert t.node_count == 1

    def test_non_multiple_of_fanout(self, method):
        items = [(Rect(i, 0, i + 0.5, 1), i) for i in range(13)]
        t = pack(items, max_entries=4, method=method)
        assert len(t) == 13
        assert sorted(t.search(Rect(0, 0, 20, 2))) == list(range(13))


class TestNearestNeighborSpecifics:
    def test_tight_clusters_grouped_together(self):
        pts = []
        for cx, cy in [(0, 0), (100, 0), (0, 100), (100, 100)]:
            pts.extend(Point(cx + dx, cy + dy)
                       for dx, dy in [(0, 0), (1, 0), (0, 1), (1, 1)])
        items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
        t = pack_nearest_neighbor(items, max_entries=4)
        leaf_sets = [frozenset(e[4] for e in leaf) for leaf in leaves(t)]
        expect = [frozenset(range(k, k + 4)) for k in range(0, 16, 4)]
        assert sorted(leaf_sets, key=min) == expect

    def test_grid_matches_brute_force(self):
        """The grid-accelerated NN must build the same tree as brute force."""
        pts = uniform_points(300, seed=77)
        items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
        from repro.rtree import packing as pk

        grid_tree = pack_nearest_neighbor(items)

        class BruteFinder(pk._NeighborFinder):
            def __init__(self, ordered, distance):
                super().__init__(ordered, distance)
                self._grid = None

        original = pk._NeighborFinder
        pk._NeighborFinder = BruteFinder
        try:
            brute_tree = pack_nearest_neighbor(items)
        finally:
            pk._NeighborFinder = original

        def leaf_sets(tree):
            return sorted((frozenset(e[4] for e in leaf)
                           for leaf in leaves(tree)), key=min)

        assert leaf_sets(grid_tree) == leaf_sets(brute_tree)

    def test_enlargement_distance_variant(self, small_items):
        t = pack(small_items, max_entries=4, method="nn",
                 distance="enlargement")
        assert len(t) == len(small_items)
        t.validate(check_fill=False)

    def test_unknown_distance_rejected(self, small_items):
        with pytest.raises(KeyError, match="unknown distance"):
            pack(small_items, method="nn", distance="chebyshev")


class TestComparators:
    def test_lowx_zero_overlap_on_points(self, small_items):
        """x-run packing of points realises Theorem 3.2: zero leaf overlap."""
        from repro.rtree.stats import overlap
        t = pack_lowx(small_items, max_entries=4)
        # Uniform random points have distinct x with probability 1.
        assert overlap(t, method="union") == pytest.approx(0.0)

    def test_str_slab_structure(self, small_items):
        t = pack_str(small_items, max_entries=4)
        assert t.node_count == expected_pack_node_count(len(small_items), 4)

    def test_hilbert_handles_degenerate_universe(self):
        # All points on one vertical line: universe has zero width.
        items = [(Rect(5, float(i), 5, float(i)), i) for i in range(9)]
        t = pack_hilbert(items, max_entries=4)
        assert sorted(t.search(Rect(0, 0, 10, 10))) == list(range(9))

    def test_unknown_method_rejected(self, small_items):
        with pytest.raises(KeyError, match="unknown pack method"):
            pack(small_items, method="tgs")


class TestPackRegions:
    """PACK over objects with positive area (the paper's regions)."""

    @pytest.fixture(scope="class")
    def region_items(self):
        from repro.workloads import uniform_rects
        return [(r, i) for i, r in
                enumerate(uniform_rects(80, max_side=60, seed=91))]

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_region_pack_complete(self, method, region_items):
        t = pack(region_items, max_entries=4, method=method)
        window = Rect(200, 200, 800, 800)
        expect = sorted(i for r, i in region_items if r.intersects(window))
        assert sorted(t.search(window)) == expect

    def test_region_leaves_cover_their_objects(self, region_items):
        t = pack(region_items, max_entries=4, method="nn")
        by_oid = dict((i, r) for r, i in region_items)
        for leaf in leaves(t):
            mbr = Rect(*node_mbr(leaf))
            for e in leaf:
                assert mbr.contains(by_oid[e[4]])

    def test_theorem33_in_practice(self, region_items):
        """Unlike points (Thm 3.2), region packs generally keep some
        overlap — Theorem 3.3 made empirical."""
        from repro.rtree.stats import overlap
        t = pack(region_items, max_entries=4, method="lowx")
        # Overlap may be zero for lucky layouts, but coverage must at
        # least include every object's own area.
        from repro.rtree.stats import coverage
        assert coverage(t) >= sum(r.area() for r, _ in region_items) - 1e-6
        assert overlap(t, method="union") >= 0.0


class TestPackPoints:
    def test_pack_points_convenience(self):
        pts = [Point(float(i), 0.0) for i in range(10)]
        t = pack_points(pts, max_entries=4)
        assert len(t) == 10
        hits = t.search(Rect(0, -1, 3, 1))
        assert sorted(hits) == [Point(0, 0), Point(1, 0), Point(2, 0),
                                Point(3, 0)]


class TestDynamicConfigCarriesOver:
    def test_packed_tree_uses_requested_split(self, small_items):
        t = pack(small_items, max_entries=4, split="linear")
        assert t.split_strategy.name == "linear"

    def test_packed_tree_branching_factor(self, small_items):
        t = pack(small_items, max_entries=8)
        for _level, _ref, _is_leaf, entries in t.walk():
            assert len(entries) <= 8
