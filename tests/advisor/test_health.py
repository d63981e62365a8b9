"""Health checks: grading branches, no-data honesty, report summary."""

from repro import obs
from repro.advisor import (HealthThresholds, advise, format_health,
                           run_health_checks)
from repro.advisor.querylog import QueryLog
from repro.advisor.smoke import build_degraded_database
from repro.rtree.maintenance import assess


def check(report, name):
    return next(c for c in report.checks if c.name == name)


class TestCounterChecks:
    def test_no_inputs_no_checks(self):
        report = run_health_checks()
        assert report.checks == ()
        assert report.worst == "OK"

    def test_buffer_rate_grades(self):
        base = {"storage.buffer.misses": 0.0}
        ok = run_health_checks(stats={**base,
                                      "storage.buffer.hits": 1000.0})
        assert check(ok, "buffer.hit_rate").status == "OK"
        warn = run_health_checks(stats={"storage.buffer.hits": 80.0,
                                        "storage.buffer.misses": 20.0})
        assert check(warn, "buffer.hit_rate").status == "WARN"
        fail = run_health_checks(stats={"storage.buffer.hits": 10.0,
                                        "storage.buffer.misses": 90.0})
        assert check(fail, "buffer.hit_rate").status == "FAIL"

    def test_low_traffic_is_no_data_not_warn(self):
        report = run_health_checks(stats={"storage.buffer.hits": 1.0,
                                          "storage.buffer.misses": 5.0})
        result = check(report, "buffer.hit_rate")
        assert result.status == "OK"
        assert "no data" in result.detail

    def test_checkpoint_backlog_grades(self):
        warn = run_health_checks(stats={"storage.wal.commits": 20_000.0,
                                        "storage.wal.checkpoints": 1.0})
        assert check(warn, "wal.checkpoint").status == "WARN"
        fail = run_health_checks(stats={"storage.wal.commits": 200_000.0,
                                        "storage.wal.checkpoints": 1.0})
        assert check(fail, "wal.checkpoint").status == "FAIL"
        idle = run_health_checks(stats={})
        assert check(idle, "wal.checkpoint").status == "OK"

    def test_replica_lag_grades(self):
        report = run_health_checks(
            stats={"cluster.replica.commits_behind": 50.0})
        assert check(report, "replica.lag").status == "WARN"
        primary = run_health_checks(stats={})
        result = check(primary, "replica.lag")
        assert result.status == "OK"
        assert "not a replica" in result.detail

    def test_custom_thresholds(self):
        report = run_health_checks(
            stats={"cluster.replica.commits_behind": 50.0},
            thresholds=HealthThresholds(replica_warn=100.0))
        assert check(report, "replica.lag").status == "OK"


class TestTreeChecks:
    def test_degraded_tree_warns_then_recovers(self):
        db = build_degraded_database()
        report = run_health_checks(db)
        result = check(report, "tree.map/points.loc")
        assert result.status in ("WARN", "FAIL")
        assert result.value >= 1.25
        assert report.worst in ("WARN", "FAIL")
        db.rebuild_index("map", "points", "loc")
        after = run_health_checks(db)
        assert check(after, "tree.map/points.loc").status == "OK"
        assert after.worst == "OK"

    def test_report_counts_and_summary_line(self):
        db = build_degraded_database()
        report = run_health_checks(db)
        ok, warn, fail = report.counts()
        assert ok + warn + fail == len(report.checks)
        lines = format_health(report)
        assert lines[0].startswith(f"health: {report.worst} ")
        assert len(lines) == 1 + len(report.checks)


class TestPricedOncePerGeneration:
    """HEALTH, ADVISE and MAINTAIN's assess share one PACK per index per
    catalog generation."""

    @staticmethod
    def _nodes_emitted(run) -> int:
        with obs.scope(forward=False, enable=True) as registry:
            run()
        return registry.snapshot().get("rtree.pack.nodes_emitted", 0)

    def test_second_health_emits_no_node(self):
        db = build_degraded_database()
        first = self._nodes_emitted(lambda: run_health_checks(db))
        assert first > 0
        assert self._nodes_emitted(lambda: run_health_checks(db)) == 0

    def test_entry_points_share_the_pack(self):
        db = build_degraded_database()
        assert self._nodes_emitted(lambda: run_health_checks(db)) > 0
        assert self._nodes_emitted(lambda: list(assess(db))) == 0
        assert self._nodes_emitted(lambda: advise(db, QueryLog())) == 0

    def test_a_mutation_reprices(self):
        db = build_degraded_database()
        run_health_checks(db)
        db.insert("points", {"id": -1, "val": 0.0,
                             "loc": db.relation("points").get(0)["loc"]})
        assert self._nodes_emitted(lambda: run_health_checks(db)) > 0
