"""Observability overhead: disabled instrumentation must be (nearly) free.

The obs call sites in the R-tree hot path reduce, while disabled, to one
module-attribute read per query (``track = obs.ENABLED``) plus one
counting branch per node.  This module measures that cost directly:

- ``baseline``  — an uninstrumented re-implementation of the window-search
  loop, structurally identical to :meth:`Tree._search` minus every obs
  and stats line;
- ``disabled``  — the real :meth:`RTree.search` with ``obs.ENABLED`` False;
- ``enabled``   — the real search with a registry recording.

The acceptance bar (ISSUE): disabled / baseline < 1.10 — under 10% search
throughput overhead.  Timing uses best-of-R over a fixed batch of windows
(minimum is the standard noise-robust estimator for microbenchmarks); the
three figures are also written to ``benchmarks/out/obs_overhead.txt``.
"""

import random
import time

import pytest

from repro import obs
from repro.geometry import Point, Rect
from repro.rtree.packing import pack

N_ITEMS = 2000
N_WINDOWS = 400
REPEATS = 7
MAX_DISABLED_OVERHEAD = 1.10


@pytest.fixture(scope="module")
def tree():
    rng = random.Random(17)
    items = [(Rect.from_point(Point(rng.uniform(0, 1000),
                                    rng.uniform(0, 1000))), i)
             for i in range(N_ITEMS)]
    return pack(items, max_entries=25, method="nn")


@pytest.fixture(scope="module")
def windows():
    rng = random.Random(23)
    out = []
    for _ in range(N_WINDOWS):
        x = rng.uniform(0, 950)
        y = rng.uniform(0, 950)
        out.append(Rect(x, y, x + 50, y + 50))
    return out


def baseline_search(tree, window):
    """The tree's search loop with zero instrumentation — the yardstick."""
    wx1, wy1, wx2, wy2 = window
    fetch = tree.store.fetch
    results = []
    stack = [tree.root]
    while stack:
        is_leaf, entries = fetch(stack.pop())
        hits = [ref for x1, y1, x2, y2, ref in entries
                if x1 <= wx2 and wx1 <= x2 and y1 <= wy2 and wy1 <= y2]
        if is_leaf:
            results += hits
        else:
            stack += hits
    return results


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_overhead_under_10_percent(tree, windows, report):
    assert not obs.is_enabled()
    def run_baseline():
        for w in windows:
            baseline_search(tree, w)

    def run_real():
        for w in windows:
            tree.search(w)

    # Same answers before trusting the timings.
    assert [sorted(tree.search(w)) for w in windows[:20]] == \
           [sorted(baseline_search(tree, w)) for w in windows[:20]]

    # Interleave so neither contender owns the warm cache.
    run_baseline(), run_real()
    t_baseline = best_of(REPEATS, run_baseline)
    t_disabled = best_of(REPEATS, run_real)

    obs.enable()
    try:
        t_enabled = best_of(REPEATS, run_real)
    finally:
        obs.disable()
        obs.default_registry().reset()

    ratio = t_disabled / t_baseline
    lines = [
        f"windows per batch : {N_WINDOWS}  (tree: {N_ITEMS} items, M=25)",
        f"baseline (no obs) : {t_baseline * 1e3:8.3f} ms",
        f"obs disabled      : {t_disabled * 1e3:8.3f} ms"
        f"   ({ratio:.3f}x baseline)",
        f"obs enabled       : {t_enabled * 1e3:8.3f} ms"
        f"   ({t_enabled / t_baseline:.3f}x baseline)",
    ]
    report("obs_overhead", "\n".join(lines))
    assert ratio < MAX_DISABLED_OVERHEAD, (
        f"disabled-obs search is {ratio:.3f}x the uninstrumented loop "
        f"(budget {MAX_DISABLED_OVERHEAD}x)")


def test_search_throughput_obs_disabled(benchmark, tree, windows):
    assert not obs.is_enabled()
    benchmark(lambda: [tree.search(w) for w in windows])


def test_search_throughput_obs_enabled(benchmark, tree, windows):
    obs.enable()
    try:
        benchmark(lambda: [tree.search(w) for w in windows])
    finally:
        obs.disable()
        obs.default_registry().reset()
