"""E14 — ablation: node split algorithms under dynamic INSERT.

The gap between INSERT and PACK in Table 1 depends on how good the
INSERT baseline's node splits are.  This ablation builds the same data
with exhaustive / quadratic / linear / R* splits and measures every
Table 1 column, quantifying how much of the paper's gap survives a
strong baseline.

A second table runs the splits at the served fanout (M=102), where a
packed tree's full leaves make the first insert into each one split
(Section 3.4): an STR-packed tree of clustered rectangles takes hot-spot
inserts, then windows over the hot spot are searched.  Per split it
reports insert seconds, the insert p99 and max, and nodes per window.
Two environment knobs shrink it for CI smoke runs:
``REPRO_SPLITS_M102_N`` (packed rectangles, default 40000) and
``REPRO_SPLITS_M102_INSERTS`` (hot-spot inserts, default 15000).
"""

import os
import random
import time

import pytest

from repro.geometry import Rect
from repro.rtree.packing import pack
from repro.rtree.search import SearchStats
from repro.rtree.stats import tree_stats
from repro.rtree.tree import RTree
from repro.workloads import clustered_points, random_point_probes, \
    uniform_points

N = 600
SPLITS = ("exhaustive", "quadratic", "linear", "rstar")


@pytest.fixture(scope="module")
def items():
    return [(Rect.from_point(p), i)
            for i, p in enumerate(uniform_points(N, seed=4))]


@pytest.fixture(scope="module")
def table(report, items):
    probes = random_point_probes(400, seed=5)
    lines = [f"Split ablation (n={N}, fanout 4, 400 probes)",
             f"{'builder':>16} | {'C':>9} {'O':>8} {'D':>2} {'N':>5} "
             f"{'A':>6}"]
    rows = {}
    for split in SPLITS:
        t = RTree(max_entries=4, split=split)
        t.insert_all(items)
        s = tree_stats(t, probes)
        rows[f"insert/{split}"] = s
        lines.append(f"{'insert/' + split:>16} | {s.coverage:>9.0f} "
                     f"{s.overlap_counted:>8.0f} {s.depth:>2} "
                     f"{s.node_count:>5} {s.avg_nodes_visited:>6.2f}")
    packed = pack(items, max_entries=4)
    s = tree_stats(packed, probes)
    rows["pack/nn"] = s
    lines.append(f"{'pack/nn':>16} | {s.coverage:>9.0f} "
                 f"{s.overlap_counted:>8.0f} {s.depth:>2} {s.node_count:>5} "
                 f"{s.avg_nodes_visited:>6.2f}")
    report("ablation_splits", "\n".join(lines))
    return rows


def test_split_quality_ordering(table):
    """Exhaustive <= quadratic <= linear in overlap, as Guttman found."""
    o = {name: s.overlap_counted for name, s in table.items()}
    assert o["insert/exhaustive"] <= o["insert/quadratic"] * 1.25
    assert o["insert/quadratic"] <= o["insert/linear"] * 1.25


def test_pack_beats_weakest_baseline(table):
    assert (table["pack/nn"].avg_nodes_visited
            <= table["insert/linear"].avg_nodes_visited)


def test_pack_minimal_nodes_regardless_of_baseline(table):
    for name, s in table.items():
        assert table["pack/nn"].node_count <= s.node_count


M102_N = int(os.environ.get("REPRO_SPLITS_M102_N", "40000"))
M102_INSERTS = int(os.environ.get("REPRO_SPLITS_M102_INSERTS", "15000"))
M102_WINDOWS = 1000
#: Exhaustive is exponential in the node size, so it sits this one out.
M102_SPLITS = ("quadratic", "linear", "rstar")


def _hot_spot(rng, n):
    """*n* rectangles (sides 0-4) around one Gaussian hot spot."""
    out = []
    for _ in range(n):
        x = min(max(rng.gauss(150.0, 40.0), 0.0), 996.0)
        y = min(max(rng.gauss(150.0, 40.0), 0.0), 996.0)
        out.append(Rect(x, y, x + rng.uniform(0, 4), y + rng.uniform(0, 4)))
    return out


@pytest.fixture(scope="module")
def m102_table(report):
    rng = random.Random(14)
    items = [(Rect(p.x, p.y, p.x + rng.uniform(0, 4),
                   p.y + rng.uniform(0, 4)), i)
             for i, p in enumerate(clustered_points(M102_N, clusters=12,
                                                    spread=25.0, seed=14))]
    inserts = _hot_spot(rng, M102_INSERTS)
    windows = [Rect(r.x1 - side, r.y1 - side, r.x2 + side, r.y2 + side)
               for r, side in zip(_hot_spot(rng, M102_WINDOWS),
                                  (rng.uniform(1, 15)
                                   for _ in range(M102_WINDOWS)))]
    lines = [f"Split ablation at M=102 (STR-packed n={M102_N} clustered "
             f"rectangles, {M102_INSERTS} hot-spot inserts, "
             f"{M102_WINDOWS} windows over the hot spot)",
             f"{'split':>10} | {'insert s':>8} {'p99 ms':>7} {'max ms':>7} "
             f"{'nodes/window':>12}"]
    rows = {}
    for split in M102_SPLITS:
        tree = pack(items, max_entries=102, method="str", split=split)
        times = []
        for oid, rect in enumerate(inserts, start=M102_N):
            t0 = time.perf_counter()
            tree.insert(rect, oid)
            times.append(time.perf_counter() - t0)
        tree.validate(check_fill=False)  # a pack's last nodes may be short
        stats = SearchStats()
        for w in windows:
            tree.search(w, stats=stats)
        times.sort()
        rows[split] = (sum(times), times[int(0.99 * (len(times) - 1))],
                       times[-1], stats.nodes_visited / len(windows))
        total, p99, worst, nodes = rows[split]
        lines.append(f"{split:>10} | {total:>8.2f} {p99 * 1e3:>7.2f} "
                     f"{worst * 1e3:>7.2f} {nodes:>12.2f}")
    report("ablation_splits_m102", "\n".join(lines))
    return rows


def test_served_split_reads_no_more_nodes_than_quadratic(m102_table):
    """R*'s choice, the served split, leaves the hot spot no worse to
    search than Guttman's quadratic split (exact node counts)."""
    assert m102_table["rstar"][3] <= m102_table["quadratic"][3]


@pytest.mark.parametrize("split", SPLITS)
def test_insert_speed_by_split(benchmark, items, split):
    def build():
        t = RTree(max_entries=4, split=split)
        t.insert_all(items)
        return t

    tree = benchmark(build)
    assert len(tree) == N
