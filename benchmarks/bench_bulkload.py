"""E24 — bulk-load construction cost: insert-loop vs PACK vs streaming.

The paper's Table 1 argument is that a packed tree is *cheaper to build*
and better to search than one grown by repeated INSERT.  This experiment
extends that comparison to the disk tree at modern scales: the
tuple-at-a-time insert loop, the in-memory PACK
(:meth:`DiskRTree.bulk_load`), and the out-of-core streaming pipeline
(:func:`repro.rtree.bulkload.bulk_load_stream`), which writes the
in-memory build's tree while never materialising the item set.  Both
build in the rebuild order, STR.

Knobs (environment):

- ``REPRO_BULKLOAD_N`` — streamed/packed item count (default 20_000;
  the acceptance-scale run uses 1_000_000).
- ``REPRO_BULKLOAD_INSERT_N`` — insert-loop item count (default 4_000:
  the loop is the O(n log n)-with-big-constants baseline, so it gets a
  smaller n and rates are compared per item).
- ``REPRO_BULKLOAD_RUN_SIZE`` — external-sort run length (default
  50_000).
"""

import os
import time

import pytest

from repro.geometry import Rect
from repro.rtree.bulkload import bulk_load_stream
from repro.rtree.search import SearchStats
from repro.storage.disk_rtree import DiskRTree
from repro.workloads import (clustered_points, random_windows,
                             stream_uniform_point_items)

N = int(os.environ.get("REPRO_BULKLOAD_N", "20000"))
INSERT_N = int(os.environ.get("REPRO_BULKLOAD_INSERT_N", "4000"))
RUN_SIZE = int(os.environ.get("REPRO_BULKLOAD_RUN_SIZE", "50000"))
SEED = 77
CHECK_WINDOWS = 200


def _rate(n, elapsed):
    return n / max(elapsed, 1e-9)


@pytest.fixture(scope="module")
def build_rates(report, tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("bulk"))
    rows: dict[str, float] = {}

    t0 = time.perf_counter()
    with DiskRTree(os.path.join(tmp, "insert.db")) as tree:
        for rect, oid in stream_uniform_point_items(INSERT_N, seed=SEED):
            tree.insert(rect, oid)
    rows["insert-loop"] = _rate(INSERT_N, time.perf_counter() - t0)

    t0 = time.perf_counter()
    with DiskRTree(os.path.join(tmp, "pack.db")) as tree:
        tree.bulk_load(list(stream_uniform_point_items(N, seed=SEED)))
    rows["in-memory PACK"] = _rate(N, time.perf_counter() - t0)

    t0 = time.perf_counter()
    with DiskRTree(os.path.join(tmp, "stream.db")) as tree:
        stats = bulk_load_stream(
            tree, stream_uniform_point_items(N, seed=SEED),
            run_size=RUN_SIZE)
    rows["streaming"] = _rate(N, time.perf_counter() - t0)

    lines = [f"Disk-tree construction rates "
             f"(stream n={N}, insert n={INSERT_N}, run={RUN_SIZE}; "
             f"runs={stats.runs})",
             f"{'builder':>16} | {'items/s':>10} {'vs insert':>9}"]
    for label, rate in rows.items():
        lines.append(f"{label:>16} | {rate:>10.0f} "
                     f"{rate / rows['insert-loop']:>8.1f}x")
    report("bulkload", "\n".join(lines))
    return rows


def test_streaming_beats_insert_loop_5x(build_rates):
    """The acceptance bar: the pipeline loads at least 5x faster per
    item than the tuple-at-a-time insert loop."""
    assert build_rates["streaming"] >= 5.0 * build_rates["insert-loop"]


def test_streaming_within_reach_of_in_memory_pack(build_rates):
    """Spilling through disk runs costs something, but the pipeline must
    stay within 10x of the all-in-RAM pack, or it has regressed into
    accidental quadratic territory."""
    assert build_rates["streaming"] * 10 >= build_rates["in-memory PACK"]


def test_streaming_matches_in_memory_results(report, tmp_path_factory):
    """Equivalence at benchmark scale: identical search/point results on
    random windows (the acceptance criterion's 200-window check)."""
    tmp = str(tmp_path_factory.mktemp("bulkeq"))
    with DiskRTree(os.path.join(tmp, "mem.db")) as reference, \
            DiskRTree(os.path.join(tmp, "ooc.db")) as streamed:
        reference.bulk_load(list(stream_uniform_point_items(N, seed=SEED)))
        bulk_load_stream(streamed,
                         stream_uniform_point_items(N, seed=SEED),
                         run_size=RUN_SIZE)
        assert len(streamed) == len(reference) == N
        mismatches = 0
        for window in random_windows(CHECK_WINDOWS, max_extent=60.0,
                                     seed=SEED + 1):
            if sorted(streamed.search(window)) != \
                    sorted(reference.search(window)):
                mismatches += 1
        assert mismatches == 0
    report("bulkload_equivalence",
           f"{CHECK_WINDOWS} random windows over n={N}: 0 mismatches "
           f"between streaming pipeline and in-memory PACK")


@pytest.fixture(scope="module")
def str_ablation(report, tmp_path_factory):
    """E24b — the streamed loader's two tiling orders: STR (the rebuild
    order, and the ``adaptive`` alias) vs Hilbert, on clustered points,
    the paper's motivating cartographic shape."""
    n = min(N, 20000)
    tmp = str(tmp_path_factory.mktemp("bulkorder"))
    items = [(Rect.from_point(p), i)
             for i, p in enumerate(clustered_points(n, clusters=6,
                                                    spread=25.0, seed=SEED))]
    windows = list(random_windows(CHECK_WINDOWS, max_extent=80.0,
                                  seed=SEED + 2))
    costs: dict[str, float] = {}
    answers: dict[str, list] = {}
    for method in ("hilbert", "str"):
        with DiskRTree(os.path.join(tmp, f"{method}.db")) as tree:
            bulk_load_stream(tree, iter(items), method=method,
                             run_size=RUN_SIZE)
            visited = 0
            per_window = []
            for window in windows:
                stats = SearchStats()
                per_window.append(sorted(tree.search(window, stats=stats)))
                visited += stats.nodes_visited
            costs[method] = visited / len(windows)
            answers[method] = per_window
    lines = [f"Streamed order ablation (clustered n={n}, "
             f"{CHECK_WINDOWS} windows)",
             f"{'method':>10} | {'nodes/query':>11}"]
    for method, cost in costs.items():
        lines.append(f"{method:>10} | {cost:>11.2f}")
    report("bulkload_str_vs_hilbert", "\n".join(lines))
    return costs, answers


def test_adaptive_matches_or_beats_hilbert_on_clusters(str_ablation):
    """STR (``adaptive`` is its alias) reads no more nodes per window
    than Hilbert on the clustered workload."""
    costs, _ = str_ablation
    assert costs["str"] <= costs["hilbert"]


def test_adaptive_answers_match_hilbert(str_ablation):
    _, answers = str_ablation
    assert answers["str"] == answers["hilbert"]


def test_benchmark_streaming_build(benchmark, tmp_path):
    """pytest-benchmark timing of the full pipeline at a small, stable n."""
    n = min(N, 20000)

    def build():
        path = str(tmp_path / "b.db")
        if os.path.exists(path):
            os.remove(path)
        with DiskRTree(path) as tree:
            bulk_load_stream(tree, stream_uniform_point_items(n, seed=3),
                             run_size=10000)
        return n

    assert benchmark.pedantic(build, rounds=3, iterations=1) == n
