"""E14 — ablation: Guttman split algorithms under dynamic INSERT.

The gap between INSERT and PACK in Table 1 depends on how good the
INSERT baseline's node splits are.  This ablation builds the same data
with exhaustive / quadratic / linear splits and measures every Table 1
column, quantifying how much of the paper's gap survives a strong
baseline.
"""

import pytest

from repro.geometry import Rect
from repro.rtree.packing import pack
from repro.rtree.stats import tree_stats
from repro.rtree.tree import RTree
from repro.workloads import random_point_probes, uniform_points

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


@pytest.mark.parametrize("split", SPLITS)
def test_insert_speed_by_split(benchmark, items, split):
    def build():
        t = RTree(max_entries=4, split=split)
        t.insert_all(items)
        return t

    tree = benchmark(build)
    assert len(tree) == N
