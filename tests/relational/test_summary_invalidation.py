"""Database.index_summary cache: keyed on generation, never stale.

The advisor's degradation checks and the planner's cost model both read
cached :class:`~repro.rtree.stats.IndexSummary` objects; a summary
surviving a REPACK would keep reporting the degraded structure (or,
worse, keep pricing plans against it).
"""

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.relational.catalog import Database
from repro.relational.relation import Column


@pytest.fixture()
def db() -> Database:
    rng = random.Random(3)
    db = Database()
    points = db.create_relation("points", [
        Column("id", "int"), Column("loc", "point")])
    for i in range(300):
        points.insert({"id": i, "loc": Point(rng.uniform(0, 1000),
                                             rng.uniform(0, 1000))})
    db.create_picture("map", Rect(0, 0, 1000, 1000)).register(
        points, "loc", max_entries=16)
    return db


class TestSummaryCache:
    def test_same_generation_returns_cached_object(self, db):
        first = db.index_summary("map", "points", "loc")
        second = db.index_summary("map", "points", "loc")
        assert first is second

    def test_insert_bumps_generation_and_recomputes(self, db):
        before = db.index_summary("map", "points", "loc")
        gen = db.generation
        db.insert("points", {"id": 1000, "loc": Point(5.0, 5.0)})
        assert db.generation > gen
        after = db.index_summary("map", "points", "loc")
        assert after is not before
        assert after.size == before.size + 1

    def test_rebuild_invalidates_summary(self, db):
        # Degrade with clustered churn, snapshot the summary, repack:
        # the summary must be recomputed from the rebuilt structure.
        rng = random.Random(4)
        for i in range(500):
            db.insert("points", {
                "id": 2000 + i,
                "loc": Point(min(max(rng.gauss(120, 30), 0), 1000),
                             min(max(rng.gauss(130, 30), 0), 1000))})
        degraded = db.index_summary("map", "points", "loc")
        assert db.index_summary("map", "points", "loc") is degraded
        db.rebuild_index("map", "points", "loc")
        rebuilt = db.index_summary("map", "points", "loc")
        assert rebuilt is not degraded
        assert rebuilt.size == degraded.size
        # A fresh pack never costs more expected node accesses than the
        # churned structure it replaced.
        w, h = 100.0, 100.0
        assert (rebuilt.expected_window_accesses(w, h)
                <= degraded.expected_window_accesses(w, h))

    def test_manual_generation_bump_recomputes(self, db):
        before = db.index_summary("map", "points", "loc")
        db.bump_generation()
        after = db.index_summary("map", "points", "loc")
        assert after is not before
