"""Scaling sweep beyond the paper's J = 900.

The paper's experiments stop at 900 objects (1985 hardware); a modern
user cares whether PACK's advantages persist at realistic sizes and
block fan-outs.  Sweeps n up to 50k at fanout 50 and reports build
time proxy (benchmarked separately), depth, nodes and accesses.
"""

import pytest

from repro.geometry import Rect
from repro.rtree.packing import pack
from repro.rtree.stats import average_nodes_visited
from repro.rtree.tree import RTree
from repro.workloads import random_point_probes, uniform_points

SIZES = (1_000, 5_000, 20_000, 50_000)
FANOUT = 50


def items_of(n):
    return [(Rect.from_point(p), i)
            for i, p in enumerate(uniform_points(n, seed=n))]


@pytest.fixture(scope="module")
def sweep(report):
    probes = random_point_probes(200, seed=23)
    lines = [f"Scaling sweep (fanout {FANOUT}, 200 point probes)",
             f"{'n':>7} | {'pack D':>6} {'pack N':>7} {'pack A':>7} | "
             f"{'ins D':>5} {'ins N':>6} {'ins A':>6}"]
    rows = {}
    for n in SIZES:
        items = items_of(n)
        packed = pack(items, max_entries=FANOUT)
        dynamic = RTree(max_entries=FANOUT, split="linear")
        dynamic.insert_all(items)
        pa = average_nodes_visited(packed, probes)
        da = average_nodes_visited(dynamic, probes)
        rows[n] = (packed.depth, packed.node_count, pa,
                   dynamic.depth, dynamic.node_count, da)
        lines.append(f"{n:>7} | {packed.depth:>6} {packed.node_count:>7} "
                     f"{pa:>7.2f} | {dynamic.depth:>5} "
                     f"{dynamic.node_count:>6} {da:>6.2f}")
    report("scaling", "\n".join(lines))
    return rows


def test_pack_advantage_persists_at_scale(sweep):
    for n in SIZES:
        pd, pn, pa, dd, dn, da = sweep[n]
        assert pd <= dd
        assert pn <= dn
        assert pa <= da * 1.05


def test_pack_50k(benchmark):
    items = items_of(20_000)
    tree = benchmark.pedantic(pack, args=(items, FANOUT),
                              rounds=3, iterations=1)
    assert len(tree) == 20_000


def test_insert_20k(benchmark):
    items = items_of(20_000)

    def build():
        t = RTree(max_entries=FANOUT, split="linear")
        t.insert_all(items)
        return t

    tree = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(tree) == 20_000


def test_window_query_50k(benchmark):
    items = items_of(50_000)
    tree = pack(items, max_entries=FANOUT)
    window = Rect(480, 480, 520, 520)
    hits = benchmark(tree.search, window)
    assert hits
