"""Tests for the analytical cost model — and with it, the paper's thesis
that coverage/overlap govern search cost."""

import pytest

from repro.geometry import Rect
from repro.rtree import RTree
from repro.rtree.packing import pack
from repro.rtree.stats import (
    measured_window_accesses,
    node_visit_probability,
    summarize,
)
from repro.workloads import TABLE1_UNIVERSE, uniform_points


def expected(tree, w, h, universe=TABLE1_UNIVERSE):
    return summarize(tree, universe).expected_window_accesses(w, h)


@pytest.fixture(scope="module")
def trees():
    pts = uniform_points(600, seed=33)
    items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
    packed = pack(items, max_entries=4)
    dynamic = RTree(max_entries=4, split="linear")
    dynamic.insert_all(items)
    return packed, dynamic


def test_estimate_structure(trees):
    packed, _ = trees
    summary = summarize(packed, TABLE1_UNIVERSE)
    # One term per level below the root, which is always read.
    assert len(summary.internal) == packed.depth
    per_level = [agg.expected_intersecting(50, 50, TABLE1_UNIVERSE)
                 for agg in summary.internal]
    assert summary.expected_window_accesses(50, 50) == pytest.approx(
        1.0 + sum(per_level))


def test_estimate_monotone_in_window_size(trees):
    packed, _ = trees
    assert expected(packed, 10, 10) < expected(packed, 200, 200)


@pytest.mark.parametrize("w", [20.0, 80.0, 200.0])
def test_estimate_matches_measurement(trees, w):
    """The analytical estimate tracks Monte-Carlo ground truth.

    Boundary effects (windows whose centre is near the universe edge
    hang over it) make the estimate a slight overcount; 25% agreement
    over a 10x window-size range validates the model.
    """
    packed, _ = trees
    measured = measured_window_accesses(packed, w, w, TABLE1_UNIVERSE,
                                        samples=300, seed=5)
    assert expected(packed, w, w) == pytest.approx(measured, rel=0.25)


def test_papers_thesis_packed_cheaper(trees):
    """Coverage drives cost: the estimator orders the trees the same way
    the measurements do — the quantitative core of Section 3.1."""
    packed, dynamic = trees
    for w in (20.0, 80.0):
        est_packed = expected(packed, w, w)
        est_dynamic = expected(dynamic, w, w)
        meas_packed = measured_window_accesses(packed, w, w,
                                               TABLE1_UNIVERSE, seed=7)
        meas_dynamic = measured_window_accesses(dynamic, w, w,
                                                TABLE1_UNIVERSE, seed=7)
        assert est_packed < est_dynamic
        assert meas_packed < meas_dynamic


def test_boundary_clipping_matches_measurement_within_10pct():
    """Per-node clipping pins the estimate on a boundary-heavy workload.

    Every point hugs the universe border, so every MBR's Minkowski
    rectangle hangs well past the universe; the seed's axis-wise clamp
    (min(width + w, universe.width)) barely clips anything and
    over-estimated these trees badly.  Per-node clipping must land the
    estimate within 10% of Monte-Carlo ground truth.
    """
    import random

    rng = random.Random(99)
    pts = []
    for _ in range(500):
        # A 20-unit frame around the edge of the 1000x1000 universe.
        edge = rng.randrange(4)
        along = rng.uniform(0, 1000)
        across = rng.uniform(0, 20)
        if edge == 0:
            pts.append((along, across))
        elif edge == 1:
            pts.append((along, 1000 - across))
        elif edge == 2:
            pts.append((across, along))
        else:
            pts.append((1000 - across, along))
    items = [(Rect(x, y, x, y), i) for i, (x, y) in enumerate(pts)]
    tree = pack(items, max_entries=4)
    for w in (100.0, 300.0):
        measured = measured_window_accesses(tree, w, w, TABLE1_UNIVERSE,
                                            samples=2000, seed=3)
        assert expected(tree, w, w) == pytest.approx(measured, rel=0.10)


def test_clipping_never_exceeds_unclipped_estimate(trees):
    """The clipped probability is bounded by the naive Minkowski term."""
    packed, _ = trees
    for _level, _ref, is_leaf, entries in packed.walk():
        if is_leaf:
            continue
        for e in entries:
            rect = Rect(*e[:4])
            clipped = node_visit_probability(rect, 50, 50,
                                             TABLE1_UNIVERSE)
            naive = ((rect.width + 50) * (rect.height + 50)
                     / TABLE1_UNIVERSE.area())
            assert 0.0 <= clipped <= min(1.0, naive) + 1e-12


def test_zero_window_degenerates_to_point_probe(trees):
    packed, _ = trees
    # A point probe visits at least the root and at most everything.
    assert 1.0 <= expected(packed, 0, 0) <= packed.node_count


def test_validation_errors(trees):
    packed, _ = trees
    with pytest.raises(ValueError):
        expected(packed, -1, 0)
    with pytest.raises(ValueError):
        expected(packed, 1, 1, Rect(0, 0, 0, 5))


def test_empty_tree_costs_one():
    assert expected(RTree(), 10, 10) == 1.0
