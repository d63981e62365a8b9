"""Unit tests for coverage/overlap/stats — the Table 1 columns."""

import pytest

from repro.geometry import Point, Rect
from repro.rtree import RTree
from repro.rtree.packing import pack
from repro.rtree.stats import (
    average_nodes_visited,
    coverage,
    leaf_mbrs,
    overlap,
    tree_stats,
)
from repro.workloads.queries import random_point_probes


def single_leaf_tree(*rects) -> RTree:
    t = RTree(max_entries=8)
    for i, r in enumerate(rects):
        t.insert(r, i)
    return t


def test_leaf_mbrs_single_leaf():
    t = single_leaf_tree(Rect(0, 0, 2, 2), Rect(4, 4, 6, 6))
    assert leaf_mbrs(t) == [Rect(0, 0, 6, 6)]


def test_coverage_is_sum_of_leaf_areas():
    t = single_leaf_tree(Rect(0, 0, 2, 3))
    assert coverage(t) == 6.0


def test_coverage_empty_tree():
    assert coverage(RTree()) == 0.0


def test_overlap_zero_single_leaf():
    t = single_leaf_tree(Rect(0, 0, 2, 2))
    assert overlap(t) == 0.0


def test_overlap_counted_vs_union():
    """Three co-located leaves: counted = 3 pairs, union counts once."""
    # Build a two-leaf tree by hand via pack with forced grouping.
    items = [(Rect(0, 0, 10, 10), 0), (Rect(0, 0, 10, 10), 1),
             (Rect(0, 0, 10, 10), 2), (Rect(0, 0, 10, 10), 3),
             (Rect(0, 0, 10, 10), 4), (Rect(0, 0, 10, 10), 5),
             (Rect(0, 0, 10, 10), 6), (Rect(0, 0, 10, 10), 7),
             (Rect(0, 0, 10, 10), 8), (Rect(0, 0, 10, 10), 9),
             (Rect(0, 0, 10, 10), 10), (Rect(0, 0, 10, 10), 11)]
    t = pack(items, max_entries=4)  # 3 identical leaf MBRs
    assert overlap(t, method="counted") == pytest.approx(300.0)  # 3 pairs
    assert overlap(t, method="union") == pytest.approx(100.0)


def test_overlap_unknown_method():
    with pytest.raises(ValueError):
        overlap(RTree(), method="bogus")


def test_average_nodes_visited_counts_root():
    t = single_leaf_tree(Rect(0, 0, 1, 1))
    avg = average_nodes_visited(t, [Point(50, 50), Point(0.5, 0.5)])
    assert avg == 1.0  # single-node tree: every probe touches the root


def test_average_nodes_visited_requires_queries():
    with pytest.raises(ValueError):
        average_nodes_visited(RTree(), [])


def test_tree_stats_columns(small_items):
    t = pack(small_items, max_entries=4)
    queries = random_point_probes(50, Rect(0, 0, 1000, 1000), seed=3)
    stats = tree_stats(t, queries)
    assert stats.size == len(small_items)
    assert stats.depth == t.depth
    assert stats.node_count == t.node_count
    assert stats.coverage == pytest.approx(coverage(t))
    assert stats.overlap_counted >= stats.overlap_union
    assert stats.avg_nodes_visited >= 1.0
    c, o, d, n, a = stats.as_row()
    assert (c, d, n) == (stats.coverage, stats.depth, stats.node_count)
