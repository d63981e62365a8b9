"""E13 — ablation: branching factor.

The paper fixes M=4 for presentation and notes "extensions to higher
branching factors (that fill a logical disk block) are readily
apparent".  This sweep shows depth, node count and query accesses as M
grows to block-sized fan-outs.
"""

import pytest

from repro.geometry import Rect
from repro.rtree.packing import pack
from repro.rtree.stats import tree_stats
from repro.rtree.tree import RTree
from repro.workloads import random_point_probes, uniform_points

N = 2000
FANOUTS = (4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def items():
    return [(Rect.from_point(p), i)
            for i, p in enumerate(uniform_points(N, seed=6))]


@pytest.fixture(scope="module")
def sweep(report, items):
    probes = random_point_probes(300, seed=7)
    lines = [f"Branching-factor sweep (n={N}, PACK nn vs INSERT linear)",
             f"{'M':>3} | {'pack D':>6} {'pack N':>7} {'pack A':>7} | "
             f"{'ins D':>5} {'ins N':>6} {'ins A':>7}"]
    rows = {}
    for m in FANOUTS:
        packed = pack(items, max_entries=m)
        sp = tree_stats(packed, probes)
        dynamic = RTree(max_entries=m, split="linear")
        dynamic.insert_all(items)
        si = tree_stats(dynamic, probes)
        rows[m] = (sp, si)
        lines.append(f"{m:>3} | {sp.depth:>6} {sp.node_count:>7} "
                     f"{sp.avg_nodes_visited:>7.2f} | {si.depth:>5} "
                     f"{si.node_count:>6} {si.avg_nodes_visited:>7.2f}")
    report("ablation_fanout", "\n".join(lines))
    return rows


def test_depth_decreases_with_fanout(sweep):
    depths = [sweep[m][0].depth for m in FANOUTS]
    assert depths == sorted(depths, reverse=True)
    assert depths[-1] < depths[0]


def test_pack_never_deeper_than_insert(sweep):
    for m in FANOUTS:
        sp, si = sweep[m]
        assert sp.depth <= si.depth
        assert sp.node_count <= si.node_count


@pytest.mark.parametrize("m", FANOUTS)
def test_pack_speed_by_fanout(benchmark, items, m):
    tree = benchmark(pack, items, m)
    assert len(tree) == N
