"""Unit tests for per-level tree analysis."""

import pytest

from repro.geometry import Rect
from repro.rtree import RTree
from repro.rtree.packing import pack
from repro.rtree.stats import analyze, format_report


@pytest.fixture()
def packed(small_items):
    return pack(small_items, max_entries=4)


def test_level_structure(packed):
    report = analyze(packed)
    assert report.depth == packed.depth
    assert len(report.levels) == packed.depth + 1
    assert report.levels[0].nodes == 1  # the root
    assert report.node_count == sum(s.nodes for s in report.levels)


def test_entry_counts(packed, small_items):
    report = analyze(packed)
    assert report.leaf_level.entries == len(small_items)


def test_packed_leaves_nearly_full(packed):
    report = analyze(packed)
    assert report.leaf_level.mean_fill > 3.5


def test_coverage_decreases_toward_leaves(packed):
    """Each level's MBRs nest inside the previous level's."""
    report = analyze(packed)
    for upper, lower in zip(report.levels, report.levels[1:]):
        # Upper-level MBRs contain lower ones, so cover at least as much
        # unique area; the counted sum can only shrink going down for a
        # packed tree of points.
        assert lower.coverage <= upper.coverage * 4  # loose sanity bound


def test_dead_space_nonnegative(packed):
    report = analyze(packed)
    assert all(s.dead_space >= 0 for s in report.levels)


def test_points_have_full_leaf_dead_space(packed):
    """Point data occupies zero area, so leaf dead space == coverage."""
    report = analyze(packed)
    leaf = report.leaf_level
    assert leaf.dead_space == pytest.approx(leaf.coverage)


def test_single_node_tree():
    t = RTree(max_entries=4)
    t.insert(Rect(0, 0, 2, 2), "a")
    report = analyze(t)
    assert report.depth == 0
    assert len(report.levels) == 1
    assert report.levels[0].dead_space == 0.0  # MBR == the one object


def test_degraded_tree_has_more_leaf_overlap(small_items):
    packed = pack(small_items, max_entries=4)
    dynamic = RTree(max_entries=4, split="linear")
    # Insert in an adversarial (y-sorted) order to degrade structure.
    for rect, oid in sorted(small_items, key=lambda it: it[0].y1):
        dynamic.insert(rect, oid)
    rep_packed = analyze(packed)
    rep_dynamic = analyze(dynamic)
    assert (rep_packed.leaf_level.nodes < rep_dynamic.leaf_level.nodes)


def test_format_report(packed):
    text = format_report(analyze(packed))
    assert "R-tree:" in text
    assert "dead space" in text
    assert len(text.splitlines()) == 2 + packed.depth + 1


def test_dump_tree(packed):
    from repro.rtree.stats import dump_tree
    text = dump_tree(packed)
    lines = text.splitlines()
    assert lines[0].startswith("node ")
    leaves = [entries for _l, _r, is_leaf, entries in packed.walk()
              if is_leaf]
    assert sum(1 for l in lines if "leaf " in l) == len(leaves)
    assert "->" in text  # leaf entries listed
    assert "... " in text or all(len(leaf) <= 4 for leaf in leaves)


def test_dump_tree_elides_large_leaves(small_items):
    from repro.rtree.stats import dump_tree
    big = pack(small_items, max_entries=16)
    text = dump_tree(big, max_entries_shown=2)
    assert "more" in text


def test_dump_empty_tree():
    from repro.rtree.stats import dump_tree
    assert "(empty)" in dump_tree(RTree())
