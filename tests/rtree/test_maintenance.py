"""The maintenance loop: assess, pick_region, repair, and the scheduler.

Exercises the Section 3.4 watchdog end to end on a disk-backed picture
index: hot-spot churn degrades the packing, ``assess`` sees it,
``pick_region`` points at the overlapped partition, and
``run_maintenance_cycle`` repairs it (escalating to a full rebuild when
the incremental repack can't clear the WARN signal).  The scheduler
tests cover the daemon-thread plumbing the server builds on.
"""

import os
import random
import threading
import time

import pytest

from repro.advisor.whatif import packed_degradation
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.relational.catalog import Database
from repro.relational.relation import Column
from repro.rtree.maintenance import (
    MaintenanceConfig,
    assess,
    pick_region,
    run_maintenance_cycle,
    worst_overlap_rect,
)
from repro.server.scheduler import MaintenanceScheduler

N = 900
CHURN = 4000


def build_db(tmp_path, n=N, seed=21):
    rng = random.Random(seed)
    db = Database()
    points = db.create_relation("points", [
        Column("id", "int"), Column("loc", "point")])
    for i in range(n):
        points.insert({"id": i, "loc": Point(rng.uniform(0, 1000),
                                             rng.uniform(0, 1000))})
    picture = db.create_picture("map", Rect(0, 0, 1000, 1000))
    picture.register_disk(points, "loc",
                          os.path.join(str(tmp_path), "map.db"),
                          max_entries=8)
    return db


def churn(db, count=CHURN, seed=22):
    """2:1 hot-spot inserts vs scattered deletes (Section 3.4)."""
    rng = random.Random(seed)
    points = db.relation("points")
    for k in range(count):
        if k % 3 != 2:
            x = min(max(rng.gauss(150.0, 40.0), 0.0), 1000.0)
            y = min(max(rng.gauss(150.0, 40.0), 0.0), 1000.0)
            db.insert("points", {"id": 50_000 + k, "loc": Point(x, y)})
        else:
            rid = rng.choice([rid for rid, _ in points.rows()])
            db.delete("points", rid)


@pytest.fixture(scope="module")
def degraded_db(tmp_path_factory):
    db = build_db(tmp_path_factory.mktemp("maint"))
    churn(db)
    return db


class TestWorstOverlapRect:
    def test_fewer_than_two_is_none(self):
        assert worst_overlap_rect([]) is None
        assert worst_overlap_rect([Rect(0, 0, 10, 10)]) is None

    def test_disjoint_rects_is_none(self):
        assert worst_overlap_rect(
            [Rect(0, 0, 10, 10), Rect(20, 20, 30, 30)]) is None

    def test_normalised_score_prefers_small_swamped_rect(self):
        # The big rect has more absolute overlap area, but the small one
        # is almost entirely covered by a sibling — it must win.
        big = Rect(0, 0, 100, 100)
        big_sibling = Rect(90, 0, 200, 100)       # 10x100 overlap with big
        small = Rect(300, 300, 310, 310)
        small_cover = Rect(299, 299, 311, 311)    # covers small entirely
        pick = worst_overlap_rect([big, big_sibling, small, small_cover])
        assert pick == small

    def test_zero_area_rects_are_skipped(self):
        degenerate = Rect(5, 5, 5, 5)
        assert worst_overlap_rect([degenerate, degenerate]) is None


class TestAssess:
    def test_fresh_packed_tree_is_near_one(self, tmp_path):
        db = build_db(tmp_path, n=400)
        rows = list(assess(db))
        assert rows == [("map", "points", "loc", pytest.approx(
            rows[0][3]))]
        assert rows[0][3] < 1.1

    def test_degraded_tree_crosses_warn(self, degraded_db):
        ((_, _, _, ratio),) = list(assess(degraded_db))
        assert ratio >= 1.25

    def test_unscorable_tree_reports_floor(self, tmp_path):
        db = Database()
        empty = db.create_relation("empty", [
            Column("id", "int"), Column("loc", "point")])
        db.create_picture("map", Rect(0, 0, 100, 100)).register(
            empty, "loc")
        assert list(assess(db)) == [("map", "empty", "loc", 1.0)]


class TestPickRegion:
    def test_degraded_tree_yields_overlapped_partition(self, degraded_db):
        region = pick_region(degraded_db, "map", "points", "loc")
        assert region is not None
        index = degraded_db.picture("map").index("points", "loc")
        _level, _ref, is_leaf, entries = index.walk()[0]
        assert not is_leaf
        roots = [Rect(*e[:4]) for e in entries]
        assert any(region == r for r in roots)

    def test_single_leaf_tree_is_none(self, tmp_path):
        db = build_db(tmp_path, n=5)
        assert pick_region(db, "map", "points", "loc") is None


class TestRunMaintenanceCycle:
    def test_small_trees_are_left_alone(self, tmp_path):
        db = build_db(tmp_path, n=8)
        (action,) = run_maintenance_cycle(
            db, MaintenanceConfig(min_size=32))
        assert action.kind == "none"

    def test_healthy_tree_is_left_alone(self, tmp_path):
        db = build_db(tmp_path, n=400)
        (action,) = run_maintenance_cycle(db)
        assert action.kind == "none"
        assert action.ratio < 1.25

    def test_degraded_tree_gets_local_then_recovers(self, tmp_path):
        db = build_db(tmp_path)
        churn(db)
        gen_before = db.generation
        actions = [a for a in run_maintenance_cycle(
            db, MaintenanceConfig(warn_ratio=1.25)) if a.kind != "none"]
        assert actions, "degraded tree produced no repair"
        assert actions[0].kind == "local"
        assert actions[0].entries_repacked > 0
        # Escalation may add a full rebuild in the same cycle; either
        # way the signal must be back under WARN afterwards.
        after, _, _ = packed_degradation(db, "map", "points", "loc")
        assert after < 1.25
        assert db.generation > gen_before

    def test_past_full_ratio_goes_straight_to_rebuild(self, tmp_path):
        db = build_db(tmp_path)
        churn(db)
        actions = [a for a in run_maintenance_cycle(
            db, MaintenanceConfig(warn_ratio=1.0, full_ratio=1.05))
            if a.kind != "none"]
        assert actions[0].kind == "full"
        assert actions[0].entries_repacked == len(
            db.picture("map").index("points", "loc"))


class TestScheduler:
    def test_run_now_records_stats(self, tmp_path):
        db = build_db(tmp_path)
        churn(db)
        sched = MaintenanceScheduler(db, MaintenanceConfig())
        actions = sched.run_now()
        assert sched.cycles == 1
        assert sched.repacks == sum(1 for a in actions if a.kind != "none")
        assert sched.repacks >= 1
        assert any("repack" in line for line in sched.status_lines())

    def test_disabled_daemon_idles(self, tmp_path):
        db = build_db(tmp_path, n=64)
        sched = MaintenanceScheduler(db, interval=0.05)
        sched.start()
        try:
            time.sleep(0.3)
            assert sched.cycles == 0
        finally:
            sched.stop()

    def test_enable_triggers_prompt_cycle(self, tmp_path):
        db = build_db(tmp_path, n=64)
        fired = threading.Event()
        sched = MaintenanceScheduler(db, interval=30.0,
                                     on_cycle=lambda _a: fired.set())
        sched.start()
        try:
            sched.enable()
            assert fired.wait(timeout=5.0), "enable() did not wake the loop"
            assert sched.cycles >= 1
        finally:
            sched.stop()
        assert sched.enabled

    def test_errors_are_caught_and_reported(self):
        class Broken:
            def pictures(self):
                raise RuntimeError("catalog on fire")

        sched = MaintenanceScheduler(Broken(), interval=0.05, enabled=True)
        sched.start()
        try:
            deadline = time.monotonic() + 5.0
            while sched.last_error is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert sched.last_error is not None
            assert "catalog on fire" in sched.last_error
            assert any("last error" in line
                       for line in sched.status_lines())
        finally:
            sched.stop()
