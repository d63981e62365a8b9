"""E12 — ablation: PACK grouping strategies.

The paper packs by nearest neighbour and remarks that minimising the
group MBR directly "could be combinatorially explosive".  This ablation
compares the paper's NN pack (both distance metrics) with lowx, STR and
Hilbert packing on uniform and clustered data: coverage, overlap and
average query accesses.

A second table runs the orders at a page-sized fanout (M=102) on ~20k
rectangles of two shapes — the ``disk_search`` spine workload's and 12
tight clusters: nodes read per window, point and kNN (k=10) query, build
rate, and the streamed STR loader's build rate.  The first shape is why
``REBUILD_METHOD`` is ``str``.
"""

import os
import random
import tempfile
import time

import pytest

from repro.geometry import Rect
from repro.rtree.bulkload import bulk_load_stream
from repro.rtree.packing import pack
from repro.rtree.search import SearchStats
from repro.rtree.stats import tree_stats
from repro.storage.disk_rtree import DiskRTree
from repro.workloads import (
    clustered_points,
    random_point_probes,
    random_windows,
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


M102_N = 20_000
M102_ORDERS = ("nn", "hilbert", "str", "lowx")


def _spine_shape(n, seed=1):
    """The ``disk_search`` spine workload's shape, scaled: 70% of the
    centres in 50 Gaussian clusters (sigma 20-40), 30% uniform, sides
    0-2; windows of side 2-30 centred on the same distribution."""
    rng = random.Random(seed)
    clusters = [(rng.uniform(50, 950), rng.uniform(50, 950),
                 rng.uniform(20, 40)) for _ in range(50)]

    def centre():
        if rng.random() < 0.7:
            cx, cy, sigma = rng.choice(clusters)
            x, y = rng.gauss(cx, sigma), rng.gauss(cy, sigma)
        else:
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        return min(max(x, 1.0), 999.0), min(max(y, 1.0), 999.0)

    items = []
    for i in range(n):
        (x, y), w, h = centre(), rng.uniform(0, 2), rng.uniform(0, 2)
        items.append((Rect(x - w / 2, y - h / 2, x + w / 2, y + h / 2), i))
    windows = []
    for _ in range(2000):
        (x, y), side = centre(), rng.uniform(2, 30)
        windows.append(Rect(x - side / 2, y - side / 2,
                            x + side / 2, y + side / 2))
    return items, windows


def _tight_clusters(n, seed=2):
    """12 tight Gaussian blobs (spread 25) of rectangles with sides 0-4;
    uniform windows up to 100 wide."""
    rng = random.Random(seed)
    items = [(Rect(p.x, p.y, p.x + rng.uniform(0, 4),
                   p.y + rng.uniform(0, 4)), i)
             for i, p in enumerate(clustered_points(n, clusters=12,
                                                    spread=25.0, seed=seed))]
    return items, random_windows(2000, max_extent=100.0, seed=4)


def _nodes_per_query(run, queries):
    stats = SearchStats()
    for q in queries:
        run(q, stats)
    return stats.nodes_visited / len(queries)


@pytest.fixture(scope="module")
def m102_table(report):
    """Nodes per query (deterministic) and build rates at M=102."""
    points = random_point_probes(2000, seed=5)
    knn_points = random_point_probes(500, seed=6)
    tables = {}
    lines = [f"Packer ablation at M=102 (n={M102_N} rectangles; 2000 "
             f"windows, 2000 points, 500 kNN k=10)"]
    for data, (items, windows) in (
            ("spine", _spine_shape(M102_N)),
            ("tight", _tight_clusters(M102_N))):
        rows = tables[data] = {}
        for order in M102_ORDERS:
            t0 = time.perf_counter()
            tree = pack(items, max_entries=102, method=order)
            rate = len(items) / (time.perf_counter() - t0)
            rows[order] = (
                _nodes_per_query(lambda w, s: tree.search(w, stats=s),
                                 windows),
                _nodes_per_query(lambda p, s: tree.point_query(p, stats=s),
                                 points),
                _nodes_per_query(lambda p, s: tree.knn(p, 10, stats=s),
                                 knn_points),
                rate)
        with tempfile.TemporaryDirectory() as tmp:
            with DiskRTree(os.path.join(tmp, "s.db"),
                           max_entries=102) as disk:
                t0 = time.perf_counter()
                bulk_load_stream(disk, iter(items), method="str",
                                 tmp_dir=tmp)
                streamed = len(items) / (time.perf_counter() - t0)
        lines.append(f"{data:>5} {'order':>12} | {'nodes/window':>12} "
                     f"{'nodes/point':>11} {'nodes/kNN':>9} "
                     f"{'build items/s':>13}")
        for order, (w, p, k, rate) in rows.items():
            lines.append(f"{data:>5} {order:>12} | {w:>12.2f} {p:>11.2f} "
                         f"{k:>9.2f} {rate:>13.0f}")
        lines.append(f"{data:>5} {'str streamed':>12} | {'':>12} {'':>11} "
                     f"{'':>9} {streamed:>13.0f}")
    report("ablation_packers_m102", "\n".join(lines))
    return tables


def test_str_reads_fewest_nodes_per_window_at_m102(m102_table):
    """The rebuild order's case, from exact node counts on the
    ``disk_search`` shape: STR reads no more nodes per window than the
    paper's NN or Hilbert packing.  (On the tight clusters NN reads
    fewer; the table reports it.)"""
    window = {order: row[0] for order, row in m102_table["spine"].items()}
    assert window["str"] <= window["nn"]
    assert window["str"] <= window["hilbert"]


@pytest.mark.parametrize("packer,kwargs", CONFIGS,
                         ids=[c[0] for c in CONFIGS])
def test_pack_speed(benchmark, packer, kwargs):
    items = _items(uniform_points(N, seed=2))
    tree = benchmark(pack, items, 4, **kwargs)
    assert len(tree) == N
