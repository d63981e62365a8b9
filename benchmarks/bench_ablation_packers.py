"""E12 — ablation: PACK grouping strategies.

The paper packs by nearest neighbour and remarks that minimising the
group MBR directly "could be combinatorially explosive".  This ablation
compares the paper's NN pack (both distance metrics) with lowx, STR and
Hilbert packing on uniform and clustered data: coverage, overlap and
average query accesses.
"""

import pytest

from repro.geometry import Rect
from repro.rtree.packing import pack
from repro.rtree.stats import tree_stats
from repro.workloads import (
    clustered_points,
    random_point_probes,
    uniform_points,
)

N = 1000
CONFIGS = [
    ("nn/center", dict(method="nn", distance="center")),
    ("nn/enlarge", dict(method="nn", distance="enlargement")),
    ("lowx", dict(method="lowx")),
    ("str", dict(method="str")),
    ("hilbert", dict(method="hilbert")),
]


def _items(points):
    return [(Rect.from_point(p), i) for i, p in enumerate(points)]


@pytest.fixture(scope="module")
def ablation_table(report):
    probes = random_point_probes(400, seed=3)
    datasets = {
        "uniform": _items(uniform_points(N, seed=2)),
        "clustered": _items(clustered_points(N, clusters=12, spread=25.0,
                                             seed=2)),
    }
    lines = [f"Packer ablation (n={N}, fanout 4, 400 point probes)",
             f"{'data':>10} {'packer':>11} | {'C':>9} {'O':>8} "
             f"{'D':>2} {'A':>6}"]
    results = {}
    for data_name, items in datasets.items():
        for packer_name, kwargs in CONFIGS:
            tree = pack(items, max_entries=4, **kwargs)
            s = tree_stats(tree, probes)
            results[(data_name, packer_name)] = s
            lines.append(
                f"{data_name:>10} {packer_name:>11} | {s.coverage:>9.0f} "
                f"{s.overlap_counted:>8.0f} {s.depth:>2} "
                f"{s.avg_nodes_visited:>6.2f}")
    report("ablation_packers", "\n".join(lines))
    return results


def test_all_packers_same_tree_shape(ablation_table):
    """Every packer produces the same (minimal) depth and node count."""
    depths = {s.depth for s in ablation_table.values()}
    assert len(depths) <= 2  # uniform vs clustered may differ, packers not


def test_nn_beats_lowx_on_clustered_data(ablation_table):
    nn = ablation_table[("clustered", "nn/center")]
    lowx = ablation_table[("clustered", "lowx")]
    assert nn.coverage < lowx.coverage


@pytest.mark.parametrize("packer,kwargs", CONFIGS,
                         ids=[c[0] for c in CONFIGS])
def test_pack_speed(benchmark, packer, kwargs):
    items = _items(uniform_points(N, seed=2))
    tree = benchmark(pack, items, 4, **kwargs)
    assert len(tree) == N
