"""E16 — disk residency: page I/O for packed vs dynamic trees.

Section 1 argues R-trees are "better in dealing with paging and disk I/O
buffering".  This experiment puts both construction styles on 4 KiB
pages and counts physical page reads per window query, cold and warm.
"""

import os

import pytest

from repro.geometry import Rect
from repro.storage import DiskRTree
from repro.workloads import uniform_points, windows_of_selectivity

N = 3000


@pytest.fixture(scope="module")
def items():
    return [(Rect.from_point(p), i)
            for i, p in enumerate(uniform_points(N, seed=16))]


def build(tmp_dir, name, items, bulk):
    tree = DiskRTree(os.path.join(tmp_dir, name), max_entries=32,
                     buffer_capacity=16)
    if bulk:
        tree.bulk_load(items, method="nn")  # the paper's PACK
    else:
        for r, i in items:
            tree.insert(r, i)
    tree.flush()
    tree.pool.clear()
    return tree


@pytest.fixture(scope="module")
def io_table(report, items, tmp_path_factory):
    tmp_dir = str(tmp_path_factory.mktemp("diskio"))
    windows = windows_of_selectivity(50, 0.01, seed=17)
    lines = [f"Disk I/O per 1%-selectivity window query "
             f"(n={N}, fanout 32, 16-frame pool)",
             f"{'builder':>8} | {'pages':>6} {'cold rd/q':>10} "
             f"{'warm rd/q':>10} {'hit rate':>9}"]
    rows = {}
    for name, bulk in (("pack", True), ("insert", False)):
        tree = build(tmp_dir, f"{name}.db", items, bulk)
        reads0 = tree.pager.reads
        for w in windows:
            tree.search(w)
        cold = (tree.pager.reads - reads0) / len(windows)
        reads1 = tree.pager.reads
        for w in windows:
            tree.search(w)
        warm = (tree.pager.reads - reads1) / len(windows)
        rows[name] = (tree.pager.page_count, cold, warm,
                      tree.pool.stats.hit_rate)
        lines.append(f"{name:>8} | {tree.pager.page_count:>6} "
                     f"{cold:>10.2f} {warm:>10.2f} "
                     f"{tree.pool.stats.hit_rate:>9.1%}")
        tree.close()
    report("storage_io", "\n".join(lines))
    return rows


def test_pack_uses_fewer_pages(io_table):
    assert io_table["pack"][0] <= io_table["insert"][0]


def test_buffering_reduces_reads(io_table):
    for name in ("pack", "insert"):
        _pages, cold, warm, _hr = io_table[name]
        assert warm <= cold


def test_pack_fewer_cold_reads(io_table):
    assert io_table["pack"][1] <= io_table["insert"][1] * 1.10


def test_disk_window_query_speed(benchmark, items, tmp_path_factory):
    tmp_dir = str(tmp_path_factory.mktemp("diskbench"))
    tree = build(tmp_dir, "bench.db", items, bulk=True)
    window = Rect(450, 450, 550, 550)
    hits = benchmark(tree.search, window)
    assert hits
    tree.close()


def test_disk_bulk_load_speed(benchmark, items, tmp_path_factory):
    tmp_dir = str(tmp_path_factory.mktemp("diskload"))
    counter = [0]

    def load():
        path = os.path.join(tmp_dir, f"load{counter[0]}.db")
        counter[0] += 1
        tree = DiskRTree(path, max_entries=32)
        tree.bulk_load(items, method="nn")
        tree.close()

    benchmark.pedantic(load, rounds=3, iterations=1)
