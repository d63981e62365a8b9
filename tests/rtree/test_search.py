"""Unit tests for instrumented search and kNN."""

import pytest

from repro.geometry import Point, Rect
from repro.rtree import RTree, knn_search, point_search, window_search
from repro.rtree.packing import pack
from repro.rtree.search import (
    SearchStats,
    pruning_factor,
    window_search_within,
)


@pytest.fixture()
def tree(small_items):
    return pack(small_items, max_entries=4)


def test_window_search_records_stats(tree):
    stats = SearchStats()
    results = window_search(tree, Rect(0, 0, 1000, 1000), stats)
    assert stats.nodes_visited == tree.node_count
    assert stats.leaves_visited == sum(
        is_leaf for _level, _ref, is_leaf, _e in tree.walk())
    assert stats.results == len(results) == len(tree)


def test_window_search_within_is_papers_search(tree, small_points):
    window = Rect(100, 100, 500, 500)
    stats = SearchStats()
    results = window_search_within(tree, window, stats)
    expect = sorted(i for i, p in enumerate(small_points)
                    if window.contains(Rect.from_point(p)))
    assert sorted(results) == expect
    assert stats.nodes_visited >= 1


def test_point_search(tree, small_points):
    stats = SearchStats()
    results = point_search(tree, small_points[7], stats)
    assert 7 in results
    assert stats.nodes_visited <= tree.node_count


def test_stats_merge():
    a = SearchStats(nodes_visited=2, leaves_visited=1, entries_tested=5,
                    results=3)
    b = SearchStats(nodes_visited=4, leaves_visited=2, entries_tested=7,
                    results=0)
    a.merge(b)
    assert (a.nodes_visited, a.leaves_visited,
            a.entries_tested, a.results) == (6, 3, 12, 3)


def test_pruning_factor_bounds(tree):
    tiny = pruning_factor(tree, Rect(0, 0, 1, 1))
    everything = pruning_factor(tree, Rect(0, 0, 1000, 1000))
    assert 0.0 <= everything <= tiny <= 1.0
    assert everything == 0.0  # the full-universe window visits all nodes


class TestKnn:
    def test_knn_one(self, tree, small_points):
        target = small_points[25]
        [(dist, oid)] = knn_search(tree, target, k=1)
        assert dist == 0.0
        # Could be another co-located point in principle; verify distance.
        assert small_points[oid] == target

    def test_knn_matches_brute_force(self, tree, small_points):
        query = Point(321.5, 654.5)
        got = knn_search(tree, query, k=5)
        brute = sorted((p.distance_to(query), i)
                       for i, p in enumerate(small_points))[:5]
        assert [round(d, 9) for d, _ in got] == [
            round(d, 9) for d, _ in brute]

    def test_knn_k_larger_than_tree(self, small_items):
        t = pack(small_items[:3], max_entries=4)
        got = knn_search(t, Point(0, 0), k=10)
        assert len(got) == 3

    def test_knn_empty_tree(self):
        assert knn_search(RTree(), Point(0, 0), k=3) == []

    def test_knn_invalid_k(self, tree):
        with pytest.raises(ValueError):
            knn_search(tree, Point(0, 0), k=0)

    def test_knn_visits_fewer_nodes_than_full_scan(self, small_items):
        t = pack(small_items, max_entries=4)
        stats = SearchStats()
        knn_search(t, Point(500, 500), k=1, stats=stats)
        assert stats.nodes_visited < t.node_count

    def test_knn_distances_nondecreasing(self, tree):
        got = knn_search(tree, Point(777, 111), k=8)
        dists = [d for d, _ in got]
        assert dists == sorted(dists)

    def test_knn_obs_counter_equals_search_stats(self, tree):
        """SearchStats is the single source of truth for node visits;
        the observability counter is derived from it and must agree."""
        from repro import obs

        stats = SearchStats()
        with obs.scope(forward=False, enable=True) as registry:
            knn_search(tree, Point(400, 400), k=3, stats=stats)
        snapshot = registry.snapshot()
        assert snapshot["rtree.knn.nodes_visited"] == stats.nodes_visited
        assert stats.nodes_visited > 0

    def test_knn_obs_counter_deltas_with_preloaded_stats(self, tree):
        """A caller-supplied SearchStats carrying earlier counts must
        contribute only this query's delta to the obs counter."""
        from repro import obs

        stats = SearchStats(nodes_visited=100)
        with obs.scope(forward=False, enable=True) as registry:
            knn_search(tree, Point(400, 400), k=3, stats=stats)
        visited_this_query = stats.nodes_visited - 100
        assert registry.snapshot()["rtree.knn.nodes_visited"] == \
            visited_this_query
        assert 0 < visited_this_query <= tree.node_count
