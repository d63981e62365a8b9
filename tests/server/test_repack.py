"""The REPACK verb: offline rebuild over a live server connection."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.relational import Column, Database
from repro.server.client import Client
from repro.server.server import PsqlServer, ServerConfig

WINDOW_QUERY = ("select city from cities on map "
                "at loc covered-by {500+-500, 500+-500}")


def _addr(srv):
    return srv.config.host, srv.port


def _disk_db(tmp_path, n=300):
    db = Database()
    rel = db.create_relation("cities", [
        Column("city", "str"), Column("loc", "point")])
    rng = random.Random(13)
    for i in range(n):
        rel.insert({"city": f"c{i}",
                    "loc": Point(rng.uniform(0, 1000),
                                 rng.uniform(0, 1000))})
    pic = db.create_picture("map", Rect(0, 0, 1000, 1000))
    index = pic.register_disk(rel, "loc", str(tmp_path / "cities.rtree"),
                              max_entries=16)
    return db, index


@pytest.fixture()
def disk_server(tmp_path):
    db, index = _disk_db(tmp_path)
    srv = PsqlServer(ServerConfig(port=0, workers=2), db=db)
    srv.start_background()
    yield srv
    srv.stop_background()
    index.close()


class TestRepackVerb:
    def test_repack_bumps_generation_and_invalidates_cache(
            self, disk_server):
        with Client(*_addr(disk_server)) as c:
            first = c.query(WINDOW_QUERY).raise_for_status()
            assert first.nrows == 300
            assert c.query(WINDOW_QUERY).raise_for_status().cached

            r = c.repack("map", "cities").raise_for_status()
            assert r.status == "ok" and not r.cached
            assert r.generation == first.generation + 1
            assert r.nrows == 300  # rebuilt index entry count

            after = c.query(WINDOW_QUERY).raise_for_status()
            assert not after.cached
            assert after.generation == r.generation
            assert sorted(after.rows) == sorted(first.rows)

    def test_repack_drops_stale_cache_entries(self, disk_server):
        with Client(*_addr(disk_server)) as c:
            c.query(WINDOW_QUERY).raise_for_status()
            assert c.stats()["server.cache.size"] == 1.0
            c.repack("map", "cities").raise_for_status()
            stats = c.stats()
            assert stats["server.cache.size"] == 0.0
            assert stats["server.repacks"] == 1.0
            assert stats["server.repacks.completed"] == 1.0

    def test_unknown_picture_is_framed_error(self, disk_server):
        with Client(*_addr(disk_server)) as c:
            r = c.repack("atlantis", "cities")
            assert r.status == "error"
            assert r.error_kind == "KeyError"
            # The connection survives the error frame.
            assert c.ping()

    def test_malformed_repack_is_protocol_error(self, disk_server):
        with Client(*_addr(disk_server)) as c:
            r = c._roundtrip("REPACK map")
            assert r.status == "error"
            assert r.error_kind == "ProtocolError"
            assert "usage" in r.error_message

    def test_concurrent_queries_during_repack_stay_correct(
            self, disk_server):
        import threading

        failures: list[BaseException] = []
        stop = threading.Event()

        def hammer() -> None:
            try:
                with Client(*_addr(disk_server)) as c:
                    while not stop.is_set():
                        r = c.query(WINDOW_QUERY).raise_for_status()
                        assert r.nrows == 300
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            with Client(*_addr(disk_server)) as c:
                for _ in range(3):
                    c.repack("map", "cities").raise_for_status()
        finally:
            stop.set()
            for t in threads:
                t.join(15)
        assert not failures, failures
