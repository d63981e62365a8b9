"""Layer measurements that do not depend on a workload's op list."""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterable, Sequence

from harness import median
from repro.experiments.table1 import run_table1_row
from repro.geometry.rect import Rect
from repro.storage.disk_rtree import DiskRTree


def per_call_us(fn: Callable[..., Any], calls: Iterable[Sequence[Any]],
                ) -> float:
    """Median microseconds of ``fn(*args)`` over *calls*, timed one by one."""
    clock = time.perf_counter
    times = []
    for args in calls:
        t0 = clock()
        fn(*args)
        times.append(clock() - t0)
    return median(times) * 1e6


def table1_anchor() -> dict[str, float]:
    """The paper's Table 1, column A, at J=900 and M=4.

    An exact, hardware-independent count (1000 seeded point probes over
    900 seeded points): it moves only when the packing or insertion
    algorithm itself changes.
    """
    row = run_table1_row(900, queries=1000, seed=0, max_entries=4)
    return {
        "rtree.table1.pack_nodes_per_point_query":
            row.pack.avg_nodes_visited,
        "rtree.table1.insert_nodes_per_point_query":
            row.insert.avg_nodes_visited,
    }


def bulkload_items_per_s(items: list[tuple[Rect, int]], method: str,
                         path: str) -> float:
    """Items per second of one bulk load of *items* into a fresh file.

    ``adaptive`` exists only in the streaming loader, so it goes through
    ``bulk_load_stream``; the others through ``bulk_load``.
    """
    tree = DiskRTree(path)
    try:
        t0 = time.perf_counter()
        if method == "adaptive":
            tree.bulk_load_stream(items, method=method,
                                  tmp_dir=os.path.dirname(path))
        else:
            tree.bulk_load(items, method=method)
        tree.flush()
        elapsed = time.perf_counter() - t0
    finally:
        tree.close()
    return len(items) / elapsed
