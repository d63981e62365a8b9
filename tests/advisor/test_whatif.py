"""WhatIfDatabase and hypothetical summaries: priced, never built.

The planner costs exactly two catalog reads — ``relation().index_on()``
and ``index_summary()`` — so a hypothetical catalog only has to answer
those.  These tests pin that the overlay answers them, delegates
everything else, and never mutates the real catalog.
"""

import random

import pytest

from repro.advisor import (WhatIfDatabase, hypothetical_packed_summary,
                           packed_degradation)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.psql.parser import parse
from repro.psql.planner import plan_query
from repro.psql.repl import build_demo_database
from repro.relational.catalog import Database
from repro.relational.relation import Column


def degraded_db(n0=400, churn=600, seed=5) -> Database:
    rng = random.Random(seed)
    db = Database()
    points = db.create_relation("points", [
        Column("id", "int"), Column("val", "float"),
        Column("loc", "point")])
    for i in range(n0):
        points.insert({"id": i, "val": rng.uniform(0, 1000),
                       "loc": Point(rng.uniform(0, 1000),
                                    rng.uniform(0, 1000))})
    db.create_picture("map", Rect(0, 0, 1000, 1000)).register(
        points, "loc", max_entries=16)
    for i in range(churn):
        db.insert("points", {
            "id": n0 + i, "val": rng.uniform(0, 1000),
            "loc": Point(min(max(rng.gauss(150, 40), 0), 1000),
                         min(max(rng.gauss(150, 40), 0), 1000))})
    return db


class TestHypotheticalBTree:
    def test_index_on_answers_for_hypothetical_column(self):
        db = build_demo_database(seed=42)
        assert db.relation("cities").index_on("city") is None
        whatif = WhatIfDatabase(db, btrees=[("cities", "city")])
        assert whatif.relation("cities").index_on("city") is not None
        # The real catalog is untouched.
        assert db.relation("cities").index_on("city") is None

    def test_real_indexes_still_visible(self):
        db = build_demo_database(seed=42)
        whatif = WhatIfDatabase(db, btrees=[("cities", "city")])
        assert whatif.relation("cities").index_on("population") is not None

    def test_planner_picks_the_hypothetical_index(self):
        db = build_demo_database(seed=42)
        query = parse("select city from cities where city = 'Nowhere'")
        real = plan_query(db, query)
        whatif = WhatIfDatabase(db, btrees=[("cities", "city")])
        hypo = plan_query(whatif, query)
        assert hypo.root.est_cost < real.root.est_cost

    def test_len_delegates(self):
        db = build_demo_database(seed=42)
        whatif = WhatIfDatabase(db, btrees=[("cities", "city")])
        assert len(whatif.relation("cities")) == len(db.relation("cities"))

    def test_unrelated_attributes_delegate(self):
        db = build_demo_database(seed=42)
        whatif = WhatIfDatabase(db)
        assert whatif.generation == db.generation
        assert whatif.has_relation("cities")


class TestHypotheticalRepack:
    def test_summary_override_is_served(self):
        db = degraded_db()
        packed = hypothetical_packed_summary(db, "map", "points", "loc")
        whatif = WhatIfDatabase(
            db, summaries={("map", "points", "loc"): packed})
        assert whatif.index_summary("map", "points", "loc") is packed
        assert db.index_summary("map", "points", "loc") is not packed

    def test_packed_summary_costs_no_more(self):
        db = degraded_db()
        current = db.index_summary("map", "points", "loc")
        packed = hypothetical_packed_summary(db, "map", "points", "loc")
        assert packed.size == current.size
        assert (packed.expected_window_accesses(100.0, 100.0)
                <= current.expected_window_accesses(100.0, 100.0))

    def test_degradation_ratio_moves_with_churn(self):
        fresh = degraded_db(churn=0)
        # REPACK builds exactly the tree the what-if prices.
        fresh.rebuild_index("map", "points", "loc")
        ratio_fresh, _, _ = packed_degradation(fresh, "map", "points",
                                               "loc")
        churned = degraded_db()
        ratio_churned, _, _ = packed_degradation(churned, "map", "points",
                                                 "loc")
        assert ratio_churned > ratio_fresh
        assert ratio_fresh == 1.0

    def test_unknown_target_raises(self):
        db = degraded_db(churn=0)
        with pytest.raises(KeyError):
            hypothetical_packed_summary(db, "map", "nothing", "loc")


class TestDegenerateUniverse:
    """Zero-area universes must yield the no-data floor, not a crash."""

    @staticmethod
    def _point_universe_db(n=40) -> Database:
        db = Database()
        points = db.create_relation("points", [
            Column("id", "int"), Column("loc", "point")])
        for i in range(n):
            points.insert({"id": i, "loc": Point(5.0, 5.0)})
        db.create_picture("dot", Rect(5.0, 5.0, 5.0, 5.0)).register(
            points, "loc", max_entries=8)
        return db

    def test_degradation_is_floor_not_zero_division(self):
        db = self._point_universe_db()
        ratio, current, packed = packed_degradation(db, "dot", "points",
                                                    "loc")
        assert ratio == 1.0
        assert current.size == packed.size == 40

    def test_aggregate_estimate_survives_zero_area(self):
        from repro.rtree.stats import LevelAgg
        agg = LevelAgg(nodes=1, count=7, sum_w=0.0, sum_h=0.0, sum_wh=0.0,
                       rects=None)
        est = agg.expected_intersecting(10.0, 10.0,
                                        Rect(5.0, 5.0, 5.0, 5.0))
        assert est == 7.0

    def test_health_reports_ok_for_degenerate_tree(self):
        from repro.advisor import run_health_checks
        db = self._point_universe_db()
        report = run_health_checks(db)
        tree = [c for c in report.checks if c.name.startswith("tree.dot")]
        assert tree and all(c.status == "OK" for c in tree)
