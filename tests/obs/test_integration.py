"""Cross-subsystem obs tests: the counters agree with the seed metrics.

Three contracts the ISSUE pins down:

- the obs-derived average-nodes-visited equals the :mod:`repro.rtree.stats`
  value Table 1 has always reported;
- :class:`~repro.storage.buffer.BufferStats` behaves exactly as the seed's
  plain dataclass did, and global mirroring only happens while enabled;
- the Table 1 harness produces bit-identical rows with instrumentation
  on and off (counting must never perturb the measurement).
"""

import random

import pytest

from repro import obs
from repro.geometry import Point, Rect
from repro.experiments.table1 import run_table1_row
from repro.psql.executor import Session
from repro.psql.repl import build_demo_database
from repro.rtree.stats import average_nodes_visited
from repro.rtree.packing import pack
from repro.rtree.search import SearchStats
from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.pager import Pager
from repro.workloads.queries import random_point_probes


def small_tree(n=200, m=4, seed=7):
    rng = random.Random(seed)
    items = [(Rect.from_point(Point(rng.uniform(0, 1000),
                                    rng.uniform(0, 1000))), i)
             for i in range(n)]
    return pack(items, max_entries=m, method="nn")


# -- avg nodes visited: obs counters == metrics module ----------------------


def test_obs_average_nodes_visited_matches_metrics():
    tree = small_tree()
    probes = random_point_probes(64, Rect(0, 0, 1000, 1000), seed=3)
    expected = average_nodes_visited(tree, probes)
    with obs.scope(enable=True) as reg:
        for p in probes:
            tree.point_query(p)
    queries = reg.counters.get("rtree.search.queries")
    visited = reg.counters.get("rtree.search.nodes_visited")
    assert queries == len(probes)
    assert visited / queries == pytest.approx(expected)


def test_obs_window_search_counters_are_consistent():
    tree = small_tree()
    window = Rect(100, 100, 400, 400)
    with obs.scope(enable=True) as reg:
        results = tree.search(window)
    c = reg.counters
    assert c.get("rtree.search.queries") == 1
    assert c.get("rtree.search.results") == len(results)
    assert c.get("rtree.search.nodes_visited") >= 1
    assert c.get("rtree.search.leaves_visited") >= 0
    assert (c.get("rtree.search.leaves_visited")
            <= c.get("rtree.search.nodes_visited"))
    # every visited node's entries were tested
    assert c.get("rtree.search.mbr_tests") >= c.get("rtree.search.results")


def test_stats_kwarg_and_obs_agree():
    tree = small_tree()
    window = Rect(0, 0, 500, 500)

    rec = SearchStats()
    with obs.scope(enable=True) as reg:
        tree.search(window, stats=rec)
    assert rec.nodes_visited == reg.counters.get(
        "rtree.search.nodes_visited")


# -- BufferStats: the seed contract -----------------------------------------


class TestBufferStatsSeedBehavior:
    def test_defaults_are_zero(self):
        s = BufferStats()
        assert (s.hits, s.misses, s.evictions, s.writebacks) == (0, 0, 0, 0)
        assert s.accesses == 0
        assert s.hit_rate == 0.0

    def test_augmented_assignment_still_works(self):
        s = BufferStats()
        s.hits += 1
        s.hits += 1
        s.misses += 1
        assert s.hits == 2
        assert s.accesses == 3
        assert s.hit_rate == pytest.approx(2 / 3)

    def test_constructor_seeds_fields(self):
        s = BufferStats(hits=3, misses=1, evictions=2, writebacks=4)
        assert (s.hits, s.misses, s.evictions, s.writebacks) == (3, 1, 2, 4)

    def test_equality_by_field_values(self):
        assert BufferStats(hits=1) == BufferStats(hits=1)
        assert BufferStats(hits=1) != BufferStats(hits=2)

    def test_per_pool_bag_counts_even_while_disabled(self, tmp_path):
        assert not obs.is_enabled()
        pager = Pager(tmp_path / "p.db", page_size=512)
        try:
            page = pager.allocate()
            pager.write_page(page, b"x")
            pool = BufferPool(pager, capacity=2)
            pool.get(page)
            pool.get(page)
            assert pool.stats.misses == 1
            assert pool.stats.hits == 1
            # ... but nothing leaked into the global registry
            assert obs.default_registry().snapshot("storage.buffer") == {}
        finally:
            pager.close()

    def test_pool_mirrors_to_global_registry_when_enabled(self, tmp_path):
        pager = Pager(tmp_path / "p.db", page_size=512)
        try:
            page = pager.allocate()
            pager.write_page(page, b"x")
            pool = BufferPool(pager, capacity=2)
            with obs.scope(enable=True) as reg:
                pool.get(page)
                pool.get(page)
            assert reg.counters.get("storage.buffer.misses") == 1
            assert reg.counters.get("storage.buffer.hits") == 1
            assert reg.counters.get("storage.pager.reads") == 1
        finally:
            pager.close()


# -- Table 1 harness: instrumentation never perturbs the measurement --------


def test_table1_row_identical_with_obs_enabled():
    baseline = run_table1_row(j=50, queries=64, seed=11)
    with obs.scope(enable=True):
        instrumented = run_table1_row(j=50, queries=64, seed=11)
    # TreeStats is a frozen dataclass: field-wise equality is exact.
    assert instrumented.insert == baseline.insert
    assert instrumented.pack == baseline.pack


# -- EXPLAIN STATS through the PSQL session ---------------------------------


@pytest.fixture(scope="module")
def demo_db():
    return build_demo_database(seed=42)


def test_explain_stats_returns_result_and_report(demo_db):
    session = Session(demo_db)
    query = ("select city from cities on us-map "
             "at loc covered-by {500+-500, 500+-500}")
    plain = session.execute(query)
    result, report = session.explain_stats(query)
    assert len(result) > 0
    assert len(result) == len(plain)  # stats scope doesn't change answers
    assert "counters:" in report
    assert "psql.plan.direct_spatial_search" in report
    assert "rtree.search.nodes_visited" in report
    assert "psql.execute" in report  # the timer

    # measuring one query must not flip the global flag on
    assert not obs.is_enabled()


def test_explain_stats_index_scan_path(demo_db):
    session = Session(demo_db)
    result, report = session.explain_stats(
        "select city from cities where population > 2_000_000")
    assert len(result) > 0
    assert "psql.plan.index_scan" in report
