"""Hypothetical-vs-real parity: applying a recommendation delivers it.

The advisor's promise is that ``cost_after`` is not a heuristic score
but the bill the production planner will present once the action is
applied.  For a hypothetical B-tree that equality is exact — the cost
model prices an index scan from the relation's size and the predicate's
selectivity, both identical in the hypothetical and the real world.
For a repack it is exact too, on either tree form: the what-if runs
the very PACK that ``REPACK`` runs (the same items, order and
trailing-node fill), through a sink that writes no node.
"""

import random

import pytest

from repro.advisor import (QueryLog, advise, hypothetical_packed_summary,
                           packed_degradation, run_health_checks)
from repro.advisor.smoke import (CLUSTERS, PROBES, UNIVERSE,
                                 build_degraded_database)
from repro.geometry.point import Point
from repro.psql.executor import Session
from repro.psql.parser import parse
from repro.psql.planner import plan_query
from repro.relational.catalog import Database
from repro.relational.relation import Column
from repro.rtree.maintenance import assess
from repro.rtree.packing import _level_sizes


def _capture(db, texts) -> QueryLog:
    log = QueryLog()
    session = Session(db)
    session.query_log = log
    for text in texts:
        session.execute(text)
    return log


class TestBTreeParity:
    QUERY = "select id from points where val > 900"

    def test_predicted_cost_is_exact_after_apply(self):
        db = build_degraded_database()
        log = _capture(db, [self.QUERY] * 3)
        report = advise(db, log)
        rec = next(r for r in report.recommendations
                   if r.kind == "create-index"
                   and r.target == ("points", "val"))
        rec.apply(db)
        replanned = 3 * plan_query(db, parse(self.QUERY)).root.est_cost
        assert replanned == pytest.approx(rec.cost_after)
        assert replanned < rec.cost_before

    def test_planner_picks_the_predicted_access_path(self):
        db = build_degraded_database()
        log = _capture(db, [self.QUERY])
        rec = next(r for r in advise(db, log).recommendations
                   if r.kind == "create-index")
        before = "\n".join(plan_query(db, parse(self.QUERY)).format())
        rec.apply(db)
        after = "\n".join(plan_query(db, parse(self.QUERY)).format())
        assert "index-scan" not in before
        assert "index-scan points.val" in after


#: the reference window of ``packed_degradation``: a tenth of each side
WINDOW = 0.1 * UNIVERSE.width


class TestRepackParity:
    def test_repack_improves_ratio_and_bill(self):
        db = build_degraded_database()
        texts = [f"select id from points on map at loc covered-by "
                 f"{{{cx:g}+-8, {cy:g}+-8}}" for cx, cy in PROBES]
        log = _capture(db, texts)
        report = advise(db, log, top=30)
        rec = next(r for r in report.recommendations
                   if r.kind == "repack")
        ratio_before, _, predicted = packed_degradation(db, "map", "points",
                                                        "loc")
        assert ratio_before >= 1.25
        rec.apply(db)
        ratio_after, _, _ = packed_degradation(db, "map", "points", "loc")
        assert ratio_after < ratio_before
        queries = [parse(t) for t in texts]
        replanned = sum(plan_query(db, q).root.est_cost for q in queries)
        assert replanned < rec.cost_before
        assert replanned == rec.cost_after
        rebuilt = db.index_summary("map", "points", "loc")
        assert rebuilt.node_count == predicted.node_count
        assert (rebuilt.expected_window_accesses(WINDOW, WINDOW)
                == predicted.expected_window_accesses(WINDOW, WINDOW))


def _churn(db: Database, start: int, count: int, seed: int = 3) -> None:
    """Clustered inserts through the Section 3.4 update path."""
    rng = random.Random(seed)
    for i in range(count):
        cx, cy = CLUSTERS[i % len(CLUSTERS)]
        db.insert("points", {"id": start + i, "loc": Point(
            min(max(rng.gauss(cx, 40.0), 0.0), 1000.0),
            min(max(rng.gauss(cy, 40.0), 0.0), 1000.0))})


class TestWhatIfAtScale:
    """Trees above the 4,096 entries the planner keeps rectangles for."""

    @staticmethod
    def _assert_what_if_is_the_rebuild(db: Database) -> None:
        predicted = hypothetical_packed_summary(db, "map", "points", "loc")
        fanout = db.picture("map").index("points", "loc").max_entries
        db.rebuild_index("map", "points", "loc")
        rebuilt = db.index_summary("map", "points", "loc")
        assert predicted.leaf.rects is None  # the aggregate branch
        assert predicted.node_count == rebuilt.node_count == sum(
            _level_sizes(rebuilt.size, fanout))
        assert (predicted.expected_window_accesses(WINDOW, WINDOW)
                == rebuilt.expected_window_accesses(WINDOW, WINDOW))

    def test_memory_index(self):
        db = build_degraded_database(n0=7800, churn=1200, max_entries=16)
        self._assert_what_if_is_the_rebuild(db)

    def test_disk_index(self, tmp_path):
        rng = random.Random(5)
        db = Database()
        points = db.create_relation("points", [Column("id", "int"),
                                               Column("loc", "point")])
        for i in range(18_000):
            points.insert({"id": i, "loc": Point(rng.uniform(0, 1000),
                                                 rng.uniform(0, 1000))})
        index = db.create_picture("map", UNIVERSE).register_disk(
            points, "loc", str(tmp_path / "points.idx"))
        try:
            _churn(db, 18_000, 1_200)
            self._assert_what_if_is_the_rebuild(db)
        finally:
            index.close()


def _degraded(form: str, path: str) -> Database:
    """A tree degraded past the 1.25 REPACK line: the advisor smoke's
    in-memory one, or a disk index under the maintenance tests' hot-spot
    churn (two inserts near (150, 150) per scattered delete)."""
    if form == "memory":
        return build_degraded_database()
    rng = random.Random(21)
    db = Database()
    points = db.create_relation("points", [Column("id", "int"),
                                           Column("loc", "point")])
    for i in range(900):
        points.insert({"id": i, "loc": Point(rng.uniform(0, 1000),
                                             rng.uniform(0, 1000))})
    db.create_picture("map", UNIVERSE).register_disk(
        points, "loc", path, max_entries=8)
    rng = random.Random(22)
    for k in range(4000):
        if k % 3 != 2:
            db.insert("points", {"id": 50_000 + k, "loc": Point(
                min(max(rng.gauss(150.0, 40.0), 0.0), 1000.0),
                min(max(rng.gauss(150.0, 40.0), 0.0), 1000.0))})
        else:
            db.delete("points", rng.choice([r for r, _ in points.rows()]))
    return db


def _repack_ratio(db: Database) -> float:
    """REPACK the index; the live tree's reference-window cost before it
    over the rebuilt tree's: the ratio an exact what-if reports."""
    before = db.index_summary("map", "points", "loc")
    db.rebuild_index("map", "points", "loc")
    after = db.index_summary("map", "points", "loc")
    return (before.expected_window_accesses(WINDOW, WINDOW)
            / after.expected_window_accesses(WINDOW, WINDOW))


class TestEveryEntryPointPricesTheRepack:
    """HEALTH, ADVISE and MAINTAIN's assess each price exactly the tree
    REPACK then builds, on either tree form."""

    FORMS = ["memory", "disk"]

    @pytest.mark.parametrize("form", FORMS)
    def test_health(self, tmp_path, form):
        db = _degraded(form, str(tmp_path / "points.idx"))
        (check,) = [c for c in run_health_checks(db).checks
                    if c.name == "tree.map/points.loc"]
        assert check.value == _repack_ratio(db)

    @pytest.mark.parametrize("form", FORMS)
    def test_assess(self, tmp_path, form):
        db = _degraded(form, str(tmp_path / "points.idx"))
        ((_, _, _, ratio),) = list(assess(db))
        assert ratio == _repack_ratio(db)

    @pytest.mark.parametrize("form", FORMS)
    def test_advise(self, tmp_path, form):
        db = _degraded(form, str(tmp_path / "points.idx"))
        texts = [f"select id from points on map at loc covered-by "
                 f"{{{cx:g}+-8, {cy:g}+-8}}" for cx, cy in PROBES]
        rec = next(r for r in advise(db, _capture(db, texts),
                                     top=30).recommendations
                   if r.kind == "repack")
        ratio, _, _ = packed_degradation(db, "map", "points", "loc")
        assert ratio == _repack_ratio(db)
        assert sum(plan_query(db, parse(t)).root.est_cost
                   for t in texts) == rec.cost_after
