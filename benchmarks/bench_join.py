"""E10b — scaling of the synchronized R-tree join (juxtaposition engine).

Section 2.2 calls juxtaposition "simultaneous search on the two (or
more) spatial organizations".  This benchmark sweeps the relation sizes
and reports how many node pairs the lockstep descent visits versus the
full cross product — the pruning that makes geographic joins feasible.
"""

import pytest

from repro.geometry import Rect
from repro.geometry.predicates import OPERATORS, covered_by
from repro.rtree.join import JoinStats, spatial_join
from repro.rtree.packing import pack
from repro.workloads import uniform_points, uniform_rects

SIZES = (100, 400, 1600)


def point_items(n, seed):
    return [(Rect.from_point(p), i)
            for i, p in enumerate(uniform_points(n, seed=seed))]


def rect_items(n, seed):
    return [(r, i) for i, r in
            enumerate(uniform_rects(n, max_side=60, seed=seed))]


@pytest.fixture(scope="module")
def sweep(report):
    lines = ["Spatial join scaling (points covered-by rectangles, "
             "packed trees, fanout 8)",
             f"{'n':>5} | {'results':>8} {'pairs':>8} {'pruned':>8} "
             f"{'cross':>10} {'visited%':>9}"]
    rows = {}
    for n in SIZES:
        left = pack(point_items(n, seed=n), max_entries=8)
        right = pack(rect_items(n // 2, seed=n + 1), max_entries=8)
        stats = JoinStats()
        results = spatial_join(left, right, covered_by, stats=stats)
        cross = left.node_count * right.node_count
        fraction = stats.pairs_visited / cross
        rows[n] = (len(results), stats.pairs_visited, stats.pairs_pruned,
                   cross, fraction)
        lines.append(f"{n:>5} | {len(results):>8} "
                     f"{stats.pairs_visited:>8} {stats.pairs_pruned:>8} "
                     f"{cross:>10} {fraction:>9.2%}")
    report("join_scaling", "\n".join(lines))
    return rows


def test_pruning_fraction_improves_with_size(sweep):
    """Bigger trees prune a larger share of the node cross product."""
    fractions = [sweep[n][4] for n in SIZES]
    assert fractions[-1] < fractions[0]
    assert all(f < 0.5 for f in fractions)


def test_join_results_nonempty(sweep):
    assert all(sweep[n][0] > 0 for n in SIZES)


@pytest.mark.parametrize("n", SIZES)
def test_join_speed(benchmark, n):
    left = pack(point_items(n, seed=n), max_entries=8)
    right = pack(rect_items(n // 2, seed=n + 1), max_entries=8)
    results = benchmark(spatial_join, left, right, covered_by)
    assert isinstance(results, list)


@pytest.mark.parametrize("op", ["intersecting", "overlapping",
                                "covering", "covered-by"])
def test_operator_join_speed(benchmark, op):
    """One row per PSQL operator, timed with the predicate object the
    executor passes (``OPERATORS[op]``), not a ``Rect`` method."""
    left = pack(rect_items(800, seed=80), max_entries=8)
    right = pack(rect_items(400, seed=81), max_entries=8)
    results = benchmark(spatial_join, left, right, OPERATORS[op])
    assert sorted(results) == sorted(
        spatial_join(left, right, lambda a, b: OPERATORS[op](a, b)))


def test_brute_force_comparison_speed(benchmark):
    """The nested-loop alternative, for the speedup narrative."""
    left = point_items(400, seed=400)
    right = rect_items(200, seed=401)

    def nested_loop():
        return [(a, b) for ra, a in left for rb, b in right
                if covered_by(ra, rb)]

    results = benchmark(nested_loop)
    packed_left = pack(left, max_entries=8)
    packed_right = pack(right, max_entries=8)
    assert sorted(results) == sorted(
        spatial_join(packed_left, packed_right, covered_by))
