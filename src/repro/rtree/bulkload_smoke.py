"""Bulk-load memory smoke: big streamed load under a peak-RSS cap.

``python -m repro.rtree.bulkload_smoke`` streams a large uniform point
workload through the out-of-core pipeline and asserts, via
``resource.getrusage``, that peak RSS stayed under a cap sized for the
*run*, not the *input* — the property the pipeline exists to provide.
A sample of query windows is then cross-checked against brute force
over a re-generated stream.  Exit code 0 on success; CI runs this as
its bounded-memory gate.

Knobs (environment):

- ``REPRO_BULKLOAD_SMOKE_N`` — items to load (default 100_000).
- ``REPRO_BULKLOAD_SMOKE_RSS_MB`` — peak-RSS cap in MiB (default 256).
- ``REPRO_BULKLOAD_SMOKE_RUN_SIZE`` — run length (default 20_000).
"""

from __future__ import annotations

import os
import resource
import sys
import tempfile

from repro.geometry.rect import Rect
from repro.rtree.bulkload import bulk_load_stream
from repro.rtree.packing import _level_sizes
from repro.rtree.stats import walk_levels
from repro.storage.disk_rtree import DiskRTree
from repro.workloads import random_windows, stream_uniform_point_items

N = int(os.environ.get("REPRO_BULKLOAD_SMOKE_N", "100000"))
RSS_CAP_MB = int(os.environ.get("REPRO_BULKLOAD_SMOKE_RSS_MB", "256"))
RUN_SIZE = int(os.environ.get("REPRO_BULKLOAD_SMOKE_RUN_SIZE", "20000"))
SEED = 20_85
CHECK_WINDOWS = 25


def _peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux: ru_maxrss KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _structure_failures(tree: DiskRTree) -> list[str]:
    """``validate()`` (fill bound, MBRs, page census) and Theorem 3.2's
    ``ceil(n/M)`` level chain, at the page-filling fanout the property
    suites (M 4-16) never reach."""
    failures = []
    try:
        tree.validate()
    except AssertionError as exc:
        failures.append(f"validate: {exc}")
    sizes = [len(nodes) for nodes in walk_levels(tree)]
    chain = _level_sizes(len(tree), tree.max_entries)
    if sizes[::-1] != chain:
        failures.append(f"level sizes {sizes[::-1]} (leaves first) break "
                        f"the ceil(n/M) chain {chain}")
    return failures


def run_smoke(verbose: bool = True) -> int:
    """Returns a process exit code (0 = all checks passed)."""
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bulkload-smoke-") as tmp:
        tree = DiskRTree(os.path.join(tmp, "smoke.db"))
        stats = bulk_load_stream(
            tree, stream_uniform_point_items(N, seed=SEED),
            run_size=RUN_SIZE, tmp_dir=tmp)
        peak = _peak_rss_mb()
        if verbose:
            print(f"loaded {stats.items} items in {stats.runs} runs, "
                  f"{stats.nodes_written} nodes, {stats.levels} levels; "
                  f"peak RSS {peak:.1f} MiB (cap {RSS_CAP_MB})")
        if len(tree) != N:
            failures.append(f"tree holds {len(tree)} of {N} items")
        if peak > RSS_CAP_MB:
            failures.append(
                f"peak RSS {peak:.1f} MiB exceeds the {RSS_CAP_MB} MiB "
                f"cap — the pipeline is no longer out-of-core")
        failures.extend(_structure_failures(tree))

        # Spot-check correctness against brute force over a fresh stream.
        windows = random_windows(CHECK_WINDOWS, max_extent=40.0,
                                 seed=SEED + 1)
        expected: dict[int, list[int]] = {i: [] for i in range(len(windows))}
        for rect, oid in stream_uniform_point_items(N, seed=SEED):
            for i, w in enumerate(windows):
                if w.intersects(rect):
                    expected[i].append(oid)
        for i, w in enumerate(windows):
            got = sorted(tree.search(w))
            if got != expected[i]:
                failures.append(
                    f"window {i} ({w}): {len(got)} results, "
                    f"expected {len(expected[i])}")
        tree.close()

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if verbose and not failures:
        print(f"bulkload smoke OK: {CHECK_WINDOWS} windows verified, "
              f"RSS bounded")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_smoke())
