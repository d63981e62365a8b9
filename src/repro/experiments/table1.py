"""Table 1: Guttman's INSERT versus PACK (Section 3.5).

The paper's protocol, reproduced exactly:

- J uniform random points over [0, 1000]^2 for J in {10 ... 900};
- both algorithms build from *the same* point set per J;
- branching factor 4;
- measured per tree: coverage C, overlap O, depth D, node count N, and
  the average number A of nodes visited over random point queries
  ("Is point (x, y) contained in the database?").

The INSERT baseline defaults to Guttman's linear split (his recommended
cheap configuration); ``split`` selects the others — the split ablation
(benchmarks/bench_ablation_splits.py) shows how much the baseline's
quality moves the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.geometry.rect import Rect
from repro.rtree.packing import pack
from repro.rtree.stats import TreeStats, tree_stats
from repro.rtree.tree import RTree
from repro.workloads.queries import random_point_probes
from repro.workloads.uniform import (
    TABLE1_J_VALUES,
    TABLE1_UNIVERSE,
    uniform_points,
)

#: The paper's Table 1 values, for side-by-side comparison in reports.
#: Per J: (C, O, D, N, A) for INSERT then PACK.
PAPER_TABLE1: dict[int, tuple[tuple[float, float, int, int, float],
                              tuple[float, float, int, int, float]]] = {
    10: ((68483, 43731, 1, 4, 2.217), (39590, 0, 1, 3, 1.424)),
    25: ((74577, 124311, 2, 12, 4.800), (31230, 144, 2, 9, 2.249)),
    50: ((70718, 177809, 3, 28, 7.775), (37421, 1295, 2, 16, 2.282)),
    75: ((74561, 229949, 3, 39, 9.379), (36152, 1329, 3, 26, 3.431)),
    100: ((75234, 235079, 4, 60, 12.955), (38271, 994, 3, 35, 3.645)),
    125: ((77578, 246084, 4, 73, 14.024), (36476, 1318, 3, 42, 3.658)),
    150: ((77342, 255692, 4, 86, 14.894), (40145, 2729, 3, 51, 3.784)),
    175: ((79869, 255523, 4, 103, 16.277), (36432, 2532, 3, 58, 3.820)),
    200: ((80034, 295091, 4, 117, 17.870), (33959, 1394, 3, 68, 3.873)),
    250: ((79117, 293730, 4, 142, 18.585), (40069, 1946, 3, 83, 3.897)),
    300: ((78891, 376731, 4, 167, 20.838), (38438, 1527, 4, 102, 5.397)),
    400: ((82116, 553650, 5, 233, 28.935), (37558, 965, 4, 135, 5.418)),
    500: ((85290, 698248, 5, 302, 36.132), (39820, 1688, 4, 168, 5.466)),
    600: ((85253, 749874, 5, 368, 40.799), (39542, 2106, 4, 202, 5.276)),
    700: ((86225, 852205, 5, 438, 45.924), (37016, 1252, 4, 234, 5.604)),
    800: ((87418, 1002339, 6, 507, 55.462), (38614, 1522, 4, 268, 5.730)),
    900: ((87640, 1164809, 6, 573, 63.595), (38808, 1512, 4, 302, 6.071)),
}


@dataclass(frozen=True)
class Table1Row:
    """One J-row of the reproduced table."""

    j: int
    insert: TreeStats
    pack: TreeStats


def run_table1_row(j: int, queries: int = 1000, seed: int = 0,
                   max_entries: int = 4, split: str = "linear",
                   pack_method: str = "nn",
                   universe: Rect = TABLE1_UNIVERSE,
                   points_fn=None) -> Table1Row:
    """Build both trees over the same J points and measure every column.

    *points_fn(j, seed)* overrides the data generator — the clustered
    variant of the experiment (E21) passes a Gaussian-mixture generator;
    the default is the paper's uniform distribution.
    """
    if points_fn is None:
        points = uniform_points(j, universe=universe, seed=seed + j)
    else:
        points = points_fn(j, seed + j)
    items = [(Rect.from_point(p), idx) for idx, p in enumerate(points)]
    probes = random_point_probes(queries, universe=universe, seed=seed + 1)

    dynamic = RTree(max_entries=max_entries, split=split)
    dynamic.insert_all(items)
    packed = pack(items, max_entries=max_entries, method=pack_method)

    return Table1Row(j=j, insert=tree_stats(dynamic, probes),
                     pack=tree_stats(packed, probes))


def run_table1(j_values: Sequence[int] = TABLE1_J_VALUES,
               queries: int = 1000, seed: int = 0,
               max_entries: int = 4, split: str = "linear",
               pack_method: str = "nn", points_fn=None) -> list[Table1Row]:
    """The full Table 1 sweep."""
    return [run_table1_row(j, queries=queries, seed=seed,
                           max_entries=max_entries, split=split,
                           pack_method=pack_method, points_fn=points_fn)
            for j in j_values]


def format_table1(rows: Sequence[Table1Row],
                  include_paper: bool = False) -> str:
    """Render rows in the paper's layout (INSERT block, then PACK block).

    With ``include_paper`` each measured row is followed by the paper's
    values (prefixed ``paper>``) for the same J, when available.
    """
    header = (f"{'':>6} | {'GUTTMAN INSERT':^44} | {'PACK':^44}\n"
              f"{'J':>6} | {'C':>9} {'O':>9} {'D':>2} {'N':>5} {'A':>8} "
              f"{'':>5} | {'C':>9} {'O':>9} {'D':>2} {'N':>5} {'A':>8}")
    lines = [header, "-" * len(header.splitlines()[1])]
    for row in rows:
        lines.append(_fmt_row(str(row.j), row.insert.as_row(),
                              row.pack.as_row()))
        if include_paper and row.j in PAPER_TABLE1:
            ins, pk = PAPER_TABLE1[row.j]
            lines.append(_fmt_row("paper>", ins, pk))
    return "\n".join(lines)


def _fmt_row(label: str, ins: tuple[float, ...],
             pk: tuple[float, ...]) -> str:
    def block(vals: tuple[float, ...]) -> str:
        c, o, d, n, a = vals
        return f"{c:>9.0f} {o:>9.0f} {int(d):>2} {int(n):>5} {a:>8.3f} {'':>5}"

    return f"{label:>6} | {block(ins)}| {block(pk)[:-6]}"
