"""E20 — validating the coverage-governs-cost thesis analytically.

Section 3.1 argues search efficiency "demands that both overlap and
coverage be minimized".  The Minkowski-sum cost model makes that claim
checkable without running queries: expected accesses are a pure function
of the node MBRs.  This benchmark tabulates estimate vs Monte-Carlo
measurement for packed and dynamic trees across window sizes.
"""

import pytest

from repro.geometry import Rect
from repro.rtree.packing import pack
from repro.rtree.stats import measured_window_accesses, summarize
from repro.rtree.tree import RTree
from repro.workloads import TABLE1_UNIVERSE, uniform_points

N = 600
WINDOWS = (10.0, 50.0, 150.0)


@pytest.fixture(scope="module")
def trees():
    items = [(Rect.from_point(p), i)
             for i, p in enumerate(uniform_points(N, seed=33))]
    packed = pack(items, max_entries=4)
    dynamic = RTree(max_entries=4, split="linear")
    dynamic.insert_all(items)
    return packed, dynamic


@pytest.fixture(scope="module")
def table(report, trees):
    packed, dynamic = trees
    lines = [f"Cost model vs measurement (n={N}, fanout 4, "
             f"300 Monte-Carlo windows)",
             f"{'window':>7} | {'pack est':>8} {'pack meas':>9} | "
             f"{'ins est':>8} {'ins meas':>8}"]
    rows = {}
    for w in WINDOWS:
        pe = summarize(packed, TABLE1_UNIVERSE).expected_window_accesses(
            w, w)
        pm = measured_window_accesses(packed, w, w, TABLE1_UNIVERSE,
                                      samples=300, seed=1)
        de = summarize(dynamic, TABLE1_UNIVERSE).expected_window_accesses(
            w, w)
        dm = measured_window_accesses(dynamic, w, w, TABLE1_UNIVERSE,
                                      samples=300, seed=1)
        rows[w] = (pe, pm, de, dm)
        lines.append(f"{w:>7.0f} | {pe:>8.2f} {pm:>9.2f} | "
                     f"{de:>8.2f} {dm:>8.2f}")
    report("costmodel", "\n".join(lines))
    return rows


def test_model_tracks_measurement(table):
    for pe, pm, de, dm in table.values():
        assert pe == pytest.approx(pm, rel=0.3)
        assert de == pytest.approx(dm, rel=0.3)


def test_model_orders_trees_like_reality(table):
    for pe, pm, de, dm in table.values():
        assert (pe < de) == (pm < dm)


def test_estimator_speed(benchmark, trees):
    packed, _ = trees
    est = benchmark(
        lambda: summarize(packed, TABLE1_UNIVERSE).expected_window_accesses(
            50, 50))
    assert est > 1
