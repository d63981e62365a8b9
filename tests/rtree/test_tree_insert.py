"""Unit tests for Guttman INSERT and tree structure."""

import pytest

from repro.geometry import Point, Rect
from repro.rtree import RTree, SearchStats


def brute_hits(items, window):
    return sorted(oid for rect, oid in items if rect.intersects(window))


class TestConstruction:
    def test_empty_tree(self):
        t = RTree()
        assert len(t) == 0
        assert t.depth == 0
        assert t.node_count == 1
        assert t.bounds() is None
        assert t.search(Rect(0, 0, 100, 100)) == []

    def test_invalid_branching_factor(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)

    def test_invalid_min_entries(self):
        with pytest.raises(ValueError):
            RTree(max_entries=4, min_entries=3)  # m must be <= M/2
        with pytest.raises(ValueError):
            RTree(max_entries=4, min_entries=0)

    def test_default_min_entries_is_half(self):
        assert RTree(max_entries=10).min_entries == 5

    def test_invalid_rect_rejected(self):
        t = RTree()
        with pytest.raises(ValueError):
            t.insert(Rect(5, 0, 1, 1), "bad")


class TestInsert:
    def test_single_insert(self):
        t = RTree(max_entries=4)
        t.insert(Rect(1, 1, 2, 2), "a")
        assert len(t) == 1
        assert t.search(Rect(0, 0, 3, 3)) == ["a"]
        t.validate()

    def test_root_split_grows_depth(self):
        t = RTree(max_entries=4)
        for i in range(5):
            t.insert(Rect(i * 10, 0, i * 10 + 1, 1), i)
        assert t.depth == 1
        assert len(t) == 5
        t.validate()

    def test_insert_duplicates_allowed(self):
        t = RTree(max_entries=4)
        for i in range(6):
            t.insert(Rect(5, 5, 6, 6), i)
        assert sorted(t.search(Rect(5, 5, 6, 6))) == list(range(6))
        t.validate()

    @pytest.mark.parametrize("split", ["exhaustive", "quadratic", "linear"])
    def test_invariants_hold_under_growth(self, split, small_items):
        t = RTree(max_entries=4, split=split)
        for i, (rect, oid) in enumerate(small_items):
            t.insert(rect, oid)
            if i % 25 == 24:
                t.validate()
        t.validate()
        assert len(t) == len(small_items)

    def test_search_matches_brute_force(self, small_items):
        t = RTree(max_entries=4)
        t.insert_all(small_items)
        for window in (Rect(0, 0, 200, 200), Rect(400, 400, 600, 600),
                       Rect(-50, -50, 0, 0), Rect(0, 0, 1000, 1000)):
            assert sorted(t.search(window)) == brute_hits(small_items, window)

    def test_bounds_covers_everything(self, small_items):
        t = RTree(max_entries=4)
        t.insert_all(small_items)
        bounds = t.bounds()
        for rect, _ in small_items:
            assert bounds.contains(rect)

    def test_items_iterates_all_pairs(self, small_items):
        t = RTree(max_entries=4)
        t.insert_all(small_items)
        assert sorted(t.items(), key=lambda it: it[1]) == sorted(
            small_items, key=lambda it: it[1])
        assert sorted(t, key=lambda it: it[1]) == sorted(
            small_items, key=lambda it: it[1])

    def test_high_fanout_shallower(self, small_items):
        low = RTree(max_entries=4)
        low.insert_all(small_items)
        high = RTree(max_entries=16)
        high.insert_all(small_items)
        assert high.depth <= low.depth
        assert high.node_count < low.node_count


class TestQueries:
    @pytest.fixture()
    def tree(self, small_items):
        t = RTree(max_entries=4)
        t.insert_all(small_items)
        return t

    def test_point_query(self, tree, small_points):
        target = small_points[13]
        hits = tree.point_query(target)
        assert 13 in hits

    def test_point_query_miss(self, tree):
        assert tree.point_query(Point(-100, -100)) == []

    def test_search_within_subset_of_search(self, tree):
        window = Rect(100, 100, 600, 600)
        within = set(tree.search_within(window))
        intersecting = set(tree.search(window))
        assert within <= intersecting

    def test_point_query_counts_at_least_root(self, tree):
        stats = SearchStats()
        tree.point_query(Point(-1, -1), stats)
        assert stats.nodes_visited >= 1

    def test_on_node_callback_counts(self, tree):
        stats = SearchStats()
        tree.search(Rect(0, 0, 1000, 1000), stats=stats)
        assert stats.nodes_visited == tree.node_count  # full-universe window


class TestValidate:
    def test_validate_detects_broken_mbr(self, small_items):
        t = RTree(max_entries=4)
        t.insert_all(small_items[:20])
        # Corrupt one internal entry rectangle.
        _is_leaf, entries = t.store.fetch(t.root)
        t.store.write(t.root, False,
                      [(0, 0, 0.5, 0.5, entries[0][4]), *entries[1:]])
        with pytest.raises(AssertionError):
            t.validate()

    def test_validate_detects_size_drift(self, small_items):
        t = RTree(max_entries=4)
        t.insert_all(small_items[:10])
        t._size = 99
        with pytest.raises(AssertionError):
            t.validate()
