#!/usr/bin/env python3
"""Gate the spine counts that repeat exactly from run to run.

Wall-clock numbers move with the machine, so a noisy runner cannot gate
them.  Some of the spine's per-layer numbers are counts that do not
depend on how far a timed window got: the paper's Table 1 anchor (nodes
per point query at J=900, M=4, PACK and INSERT), the serving workload's
nodes per in-memory point query and node pairs per juxtaposition, and
the disk tree's nodes per window, point and kNN query.  This script runs
each workload of ``BENCHMARK.json`` once with tracing on::

    python3 benchmarks/spine/run.py --workload W --trace 1 --seconds 2

and compares those counts with ``benchmarks/exact_counts.json``.  Any
difference, or any failed operation, exits non-zero.  A change that
moves a count on purpose writes the measured value into the file and
says why.  One pass takes about 75 s on two cores.

Usage::

    python3 benchmarks/exact_counts.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = os.path.join(HERE, "exact_counts.json")
RUN = os.path.join(HERE, "spine", "run.py")
SECONDS = "2"

#: The counts each workload's traced run must repeat.
TABLE1 = ("rtree.table1.pack_nodes_per_point_query",
          "rtree.table1.insert_nodes_per_point_query")
EXACT = {
    "serve_uncached": (*TABLE1, "rtree.search.nodes_per_query",
                       "rtree.join.node_pairs_per_query"),
    "serve_cached": TABLE1,
    "disk_search": (*TABLE1, "storage.disk_rtree.nodes_per_search",
                    "storage.disk_rtree.nodes_per_point_query",
                    "storage.disk_rtree.nodes_per_knn"),
    "disk_churn": TABLE1,
}


def measure(workload: str) -> dict[str, float]:
    """The exact counts of one traced run of *workload*.

    Raises:
        RuntimeError: when the run fails or reports a failed operation.
    """
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--trace", "1",
         "--seconds", SECONDS],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    if not record["correct"] or record["failed"]:
        raise RuntimeError(f"{workload}: {record['failed']} failed ops")
    return {name: record["metrics"][name]["value"]
            for name in EXACT[workload]}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    measured = {w: measure(w) for w in workloads}
    with open(COUNTS, encoding="utf-8") as f:
        recorded = json.load(f)
    moved = [(w, name, recorded.get(w, {}).get(name), value)
             for w in workloads for name, value in measured[w].items()
             if recorded.get(w, {}).get(name) != value]
    for w in workloads:
        for name, value in measured[w].items():
            print(f"{w:15s} {name:45s} {value!r}")
    for w, name, want, got in moved:
        print(f"MOVED {w} {name}: recorded {want!r}, measured {got!r}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
