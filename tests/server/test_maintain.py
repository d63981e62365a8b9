"""The MAINTAIN verb: the background repack daemon over the wire."""

import random
import time

import pytest

from repro.geometry import Point, Rect
from repro.relational import Column, Database
from repro.rtree import QuadraticSplit
from repro.server.client import Client
from repro.server.server import PsqlServer, ServerConfig

WINDOW_QUERY = ("select city from cities on map "
                "at loc covered-by {500+-500, 500+-500}")


def _addr(srv):
    return srv.config.host, srv.port


def _churned_db(tmp_path, n=1200, churn=2400):
    """A disk-backed picture index degraded by hot-spot churn.

    The churn splits quadratically: under the served R* split the same
    churn leaves the index under the 1.25x WARN line, with nothing for
    ``MAINTAIN run`` to repair.
    """
    db = Database()
    rel = db.create_relation("cities", [
        Column("city", "str"), Column("loc", "point")])
    rng = random.Random(31)
    for i in range(n):
        rel.insert({"city": f"c{i}",
                    "loc": Point(rng.uniform(0, 1000),
                                 rng.uniform(0, 1000))})
    pic = db.create_picture("map", Rect(0, 0, 1000, 1000))
    index = pic.register_disk(rel, "loc", str(tmp_path / "cities.rtree"),
                              max_entries=8)
    index.split_strategy = QuadraticSplit()
    for k in range(churn):
        if k % 3 != 2:
            x = min(max(rng.gauss(150.0, 40.0), 0.0), 1000.0)
            y = min(max(rng.gauss(150.0, 40.0), 0.0), 1000.0)
            db.insert("cities", {"city": f"h{k}", "loc": Point(x, y)})
        else:
            rid = rng.choice([rid for rid, _ in rel.rows()])
            db.delete("cities", rid)
    return db, index


@pytest.fixture()
def maintained_server(tmp_path):
    db, index = _churned_db(tmp_path)
    srv = PsqlServer(ServerConfig(port=0, workers=2,
                                  maintenance_interval=0.1), db=db)
    srv.start_background()
    yield srv
    srv.stop_background()
    index.close()


class TestMaintainVerb:
    def test_status_starts_disabled(self, maintained_server):
        with Client(*_addr(maintained_server)) as c:
            r = c.maintain().raise_for_status()
            assert r.rows[0][0].startswith("maintenance: off")

    def test_on_off_ack_reports_enabled_state(self, maintained_server):
        with Client(*_addr(maintained_server)) as c:
            assert c.maintain("on").raise_for_status().nrows == 1
            status = c.maintain("status").raise_for_status()
            assert status.rows[0][0].startswith("maintenance: on")
            assert c.maintain("off").raise_for_status().nrows == 0
            status = c.maintain("status").raise_for_status()
            assert status.rows[0][0].startswith("maintenance: off")

    def test_run_repairs_degraded_index(self, maintained_server):
        with Client(*_addr(maintained_server)) as c:
            r = c.maintain("run").raise_for_status()
            lines = [row[0] for row in r.rows]
            assert any("repack" in line for line in lines), lines
            # A second cycle finds nothing left to repair.
            again = c.maintain("run").raise_for_status()
            assert all(line.endswith("ok") for row in again.rows
                       for line in row), again.rows

    def test_daemon_cycle_invalidates_result_cache(self, maintained_server):
        with Client(*_addr(maintained_server)) as c:
            first = c.query(WINDOW_QUERY).raise_for_status()
            assert c.query(WINDOW_QUERY).raise_for_status().cached
            c.maintain("on").raise_for_status()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if c.stats().get("server.maintenance.repacks", 0.0) >= 1.0:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("daemon never repacked the churned index")
            after = c.query(WINDOW_QUERY).raise_for_status()
            assert not after.cached
            assert after.generation > first.generation
            assert sorted(after.rows) == sorted(first.rows)

    def test_bad_action_is_protocol_error(self, maintained_server):
        with Client(*_addr(maintained_server)) as c:
            r = c.maintain("sideways")
            assert r.status == "error"
            assert r.error_kind == "ProtocolError"
            assert "usage" in r.error_message
            assert c.ping()


class TestProcessMode:
    def test_process_executor_refuses_maintain(self, tmp_path):
        srv = PsqlServer(ServerConfig(port=0, workers=1,
                                      executor="process"))
        srv.start_background()
        try:
            with Client(*_addr(srv)) as c:
                r = c.maintain("on")
                assert r.status == "error"
                assert r.error_kind == "ValueError"
                assert "thread executor" in r.error_message
        finally:
            srv.stop_background()
