"""End-to-end server behaviour over real sockets.

Covers the ISSUE's acceptance criteria: concurrent clients get results
byte-identical to direct ``Session.execute``; a query exceeding its
timeout gets a ``TIMEOUT`` frame and the connection stays usable; the
admission gate answers ``BUSY``; the cache serves repeats and misses
after a generation bump; shutdown drains in-flight queries.
"""

import functools
import random
import threading
import time

import pytest

from repro.geometry import Point
from repro.psql.executor import Session
from repro.server import binproto, protocol
from repro.server.client import Client
from repro.server.server import PsqlServer, ServerConfig

MIXED_QUERIES = [
    "select city from cities on us-map "
    "at loc covered-by {400+-150, 300+-150}",
    "select city, population from cities on us-map "
    "at loc covered-by {500+-500, 300+-300} where population > 500_000",
    "select state from states on us-map "
    "at loc intersecting {250+-250, 150+-150}",
    "select city, zone from cities, time-zones "
    "on us-map, time-zone-map at cities.loc covered-by time-zones.loc",
    "select hwy-name, sum(length(loc)) from highways",
    "select city from cities where population > 1_000_000",
]


@pytest.fixture()
def server(map_database):
    srv = PsqlServer(ServerConfig(port=0, workers=4), db=map_database)
    srv.start_background()
    yield srv
    srv.stop_background()


def _addr(srv):
    return srv.config.host, srv.port


def nap_session_factory(db, started=None):
    """Sessions with a sleep function installed, for timeout/busy tests.

    *started*, a ``threading.Event``, is set each time a nap begins.
    """
    session = Session(db)

    def nap(ms):
        if started is not None:
            started.set()
        time.sleep(ms / 1000.0)
        return ms

    session.functions.register("nap", nap)
    return session


@pytest.fixture()
def slow_server(map_database):
    """One worker, one admission slot, 300ms query timeout."""
    srv = PsqlServer(
        ServerConfig(port=0, workers=1, max_inflight=1,
                     query_timeout=0.3),
        db=map_database, session_factory=nap_session_factory)
    srv.start_background()
    yield srv
    srv.stop_background()


# One row so ``select nap(...) from states where state = ...`` sleeps
# exactly once; the fixture's states are deterministic.
ONE_ROW_SLOW = ("select nap({ms}) from states "
                "where population-density > 0 and state = '{state}'")


def _one_state_name(db):
    return db.relation("states").rows().__iter__().__next__()[1]["state"]


class TestConcurrentClients:
    N_CLIENTS = 8
    ROUNDS = 3

    def test_byte_identical_to_direct_execution(self, server,
                                                map_database):
        host, port = _addr(server)
        direct = Session(map_database)
        expected = {
            q: ("\n".join(protocol.encode_result(direct.execute(q)))
                + "\n").encode()
            for q in MIXED_QUERIES}

        failures = []
        lock = threading.Lock()

        def client_main(seed):
            rng = random.Random(seed)
            try:
                with Client(host, port) as client:
                    for _ in range(self.ROUNDS):
                        queries = MIXED_QUERIES[:]
                        rng.shuffle(queries)
                        for q in queries:
                            r = client.query(q)
                            if not r.ok:
                                with lock:
                                    failures.append(
                                        f"{q!r}: {r.status} "
                                        f"{r.error_message}")
                            elif r.payload != expected[q]:
                                with lock:
                                    failures.append(
                                        f"{q!r}: payload mismatch")
            except Exception as exc:  # noqa: BLE001
                with lock:
                    failures.append(f"client {seed}: {exc!r}")

        threads = [threading.Thread(target=client_main, args=(i,))
                   for i in range(self.N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures, failures[:5]

        stats = server.stats()
        assert stats["server.queries"] >= (
            self.N_CLIENTS * self.ROUNDS * len(MIXED_QUERIES))
        # Repeats across clients must have hit the cache.
        assert stats["server.cache.hits"] > 0


class TestTimeout:
    def test_timeout_frame_and_connection_survives(self, slow_server,
                                                   map_database):
        host, port = _addr(slow_server)
        state = _one_state_name(map_database)
        with Client(host, port) as client:
            r = client.query(ONE_ROW_SLOW.format(ms=2000, state=state))
            assert r.status == "timeout"
            # The worker is still finishing the abandoned query; once it
            # frees, the same connection keeps working.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                r2 = client.query("select city from cities "
                                  "where population > 1_000_000")
                if r2.status != "busy":
                    break
                time.sleep(0.1)
            assert r2.ok
            assert len(r2.rows) > 0
        assert slow_server.stats()["server.timeouts"] >= 1


class TestBackpressure:
    def test_busy_when_inflight_limit_reached(self, slow_server,
                                              map_database):
        host, port = _addr(slow_server)
        state = _one_state_name(map_database)
        slow_result = {}

        def occupy():
            with Client(host, port) as c:
                slow_result["r"] = c.query(
                    ONE_ROW_SLOW.format(ms=250, state=state))

        t = threading.Thread(target=occupy)
        t.start()
        time.sleep(0.1)  # let the slow query take the only slot
        with Client(host, port) as c2:
            r = c2.query("select city from cities "
                         "where population > 1_000_000")
            assert r.status == "busy"
            with pytest.raises(protocol.ServerBusyError):
                r.raise_for_status()
        t.join(timeout=10)
        assert slow_result["r"].ok
        assert slow_server.stats()["server.busy_rejections"] >= 1


class TestErrorFraming:
    def test_bad_queries_do_not_kill_the_connection(self, server):
        host, port = _addr(server)
        with Client(host, port) as client:
            r = client.query("select city from nowhere")
            assert r.status == "error"
            assert r.error_kind == "PsqlSemanticError"
            r = client.query("select city from cities where x = 'oops")
            assert r.status == "error"
            assert r.error_kind == "PsqlSyntaxError"
            r = client.query("select city from cities "
                             "where population > 1_000_000")
            assert r.ok

    def test_unresolvable_name_on_an_empty_window_is_an_error(self,
                                                             server):
        # Regression: with no qualifying row the bad name used to go
        # unnoticed and the server answered (and cached) OK with 0 rows.
        host, port = _addr(server)
        q = ("select nosuch from cities on us-map "
             "at loc covered-by {0+-0.0001, 0+-0.0001}")
        with Client(host, port) as text, \
                Client(host, port, binary=True) as binary:
            for client in (text, binary, text):
                r = client.query(q)
                assert r.status == "error"
                assert r.error_kind == "PsqlSemanticError"
                assert "nosuch" in r.error_message
                assert client.ping()
        assert len(server.cache) == 0
        assert server.cache.hits == 0

    def test_unknown_command_is_an_error_frame(self, server):
        host, port = _addr(server)
        with Client(host, port) as client:
            resp = client._roundtrip("FROBNICATE now")
            assert resp.status == "error"
            assert client.ping()


class TestCache:
    def test_repeat_is_served_from_cache(self, server):
        host, port = _addr(server)
        q = MIXED_QUERIES[0]
        with Client(host, port) as client:
            before = client.stats().get("server.cache.hits", 0)
            r1 = client.query(q)
            r2 = client.query(q)
            assert r1.ok and r2.ok
            assert not r1.cached or r1.generation == r2.generation
            assert r2.cached
            assert r2.payload == r1.payload
            after = client.stats()["server.cache.hits"]
            assert after >= before + 1

    @pytest.mark.parametrize("fill_binary", [False, True],
                             ids=["text-then-binary", "binary-then-text"])
    @pytest.mark.parametrize("q", MIXED_QUERIES)
    def test_cross_codec_hit_derives_the_other_rendering(
            self, server, map_database, q, fill_binary):
        """A worker renders only its connection's encoding; the first
        hit from the other codec derives the missing one from the cached
        one, byte-identical to a direct render, without a miss or an
        execution."""
        host, port = _addr(server)
        result = Session(map_database).execute(q)
        expected = {
            False: ("\n".join(protocol.encode_result(result))
                    + "\n").encode(),
            True: binproto.encode_result_body(result)}
        with Client(host, port, binary=fill_binary) as first, \
                Client(host, port, binary=not fill_binary) as second:
            r1 = first.query(q)
            assert r1.ok and not r1.cached
            assert r1.payload == expected[fill_binary]
            (entry,) = server.cache._entries.values()
            assert bool(entry.bbody) == fill_binary
            assert bool(entry.payload) != fill_binary
            before = second.stats()
            r2 = second.query(q)
            r3 = second.query(q)      # the derived rendering is kept
            r4 = first.query(q)       # and the original still serves
            after = second.stats()
        for r in (r2, r3):
            assert r.ok and r.cached
            assert r.payload == expected[not fill_binary]
        assert r4.cached and r4.payload == expected[fill_binary]
        assert r2.rows == r4.rows == r1.rows
        assert entry.payload and entry.bbody
        assert after["server.cache.hits"] == before["server.cache.hits"] + 3
        for idle in ("server.cache.misses", "server.queries.executed",
                     "psql.plan.built"):
            assert after.get(idle, 0) == before.get(idle, 0), idle

    def test_whitespace_variant_hits_same_entry(self, server):
        host, port = _addr(server)
        with Client(host, port) as client:
            r1 = client.query("select city from cities "
                              "where population > 1_000_000")
            r2 = client.query("SELECT   city FROM cities "
                              "WHERE population > 1000000")
            assert r1.ok and r2.ok
            assert r2.cached
            assert r2.payload == r1.payload

    def test_explain_over_the_wire(self, server):
        host, port = _addr(server)
        q = ("select city from cities on us-map "
             "at loc covered-by {400+-150, 300+-150}")
        with Client(host, port) as client:
            r1 = client.explain(q)
            assert r1.ok
            assert r1.columns == ("plan",)
            plan_text = "\n".join(row[0] for row in r1.rows)
            assert "rtree-window" in plan_text
            assert "(actual" not in plan_text
            # EXPLAIN rides the query cache like any other statement.
            r2 = client.explain(q)
            assert r2.cached
            assert r2.payload == r1.payload
            analyzed = client.explain(q, analyze=True)
            assert analyzed.ok
            assert "(actual rows=" in "\n".join(
                row[0] for row in analyzed.rows)

    def test_insert_bumps_generation_and_invalidates(self, server,
                                                     map_database):
        host, port = _addr(server)
        q = ("select city from cities on us-map "
             "at loc covered-by {111+-7, 222+-7}")
        with Client(host, port) as client:
            r1 = client.query(q)
            r2 = client.query(q)
            assert r2.cached and r2.generation == r1.generation
            map_database.insert("cities", {
                "city": "Gen-Bump-Ville", "state": "Avalon",
                "population": 1, "loc": Point(111.0, 222.0)})
            r3 = client.query(q)
            assert not r3.cached
            assert r3.generation > r2.generation
            # The fresh result sees the new row; the cached one did not.
            assert ("Gen-Bump-Ville",) in r3.rows
            assert ("Gen-Bump-Ville",) not in r2.rows

    def test_repack_bumps_generation(self, server, map_database):
        host, port = _addr(server)
        q = MIXED_QUERIES[2]
        with Client(host, port) as client:
            client.query(q)
            r2 = client.query(q)
            assert r2.cached
            map_database.repack("us-map", "states")
            r3 = client.query(q)
            assert not r3.cached
            assert r3.generation > r2.generation
            assert r3.payload == r2.payload  # contents unchanged


class TestStats:
    def test_stats_surface_engine_metrics(self, server):
        host, port = _addr(server)
        with Client(host, port) as client:
            for q in MIXED_QUERIES[:3]:
                assert client.query(q).ok
            stats = client.stats()
        assert stats["server.queries"] >= 3
        assert stats["server.qps"] > 0
        assert stats["server.workers"] == 4
        assert "server.cache.hit_rate" in stats
        # Engine-level obs counters merged from worker snapshots.
        assert stats.get("rtree.search.nodes_visited", 0) > 0
        assert stats.get("psql.queries", 0) >= 3
        assert stats.get("avg.nodes_visited_per_query", 0) > 0

    def test_ping(self, server):
        host, port = _addr(server)
        with Client(host, port) as client:
            assert client.ping()


class TestGracefulShutdown:
    def test_inflight_query_drains_before_close(self, map_database):
        started = threading.Event()
        srv = PsqlServer(
            ServerConfig(port=0, workers=1, query_timeout=10.0,
                         drain_timeout=10.0),
            db=map_database,
            session_factory=functools.partial(nap_session_factory,
                                              started=started))
        host, port = srv.start_background()
        state = _one_state_name(map_database)
        result = {}

        def run_slow():
            with Client(host, port) as c:
                result["r"] = c.query(
                    ONE_ROW_SLOW.format(ms=400, state=state))

        t = threading.Thread(target=run_slow)
        t.start()
        assert started.wait(timeout=10)  # slow query is now in flight
        srv.stop_background()
        t.join(timeout=10)
        assert "r" in result
        assert result["r"].ok
        assert result["r"].rows == [("400",)]

    def test_finished_query_holds_its_slot_until_its_reply_is_sent(
            self, map_database, monkeypatch):
        """Between a worker finishing and the reply being written, the
        query must still count as in flight, or a drain poll landing
        there closes the connection on a finished reply."""
        in_flight = []
        send = PsqlServer.send

        async def recording_send(self, conn, reply):
            in_flight.append((reply.status, self._inflight))
            await send(self, conn, reply)

        monkeypatch.setattr(PsqlServer, "send", recording_send)
        srv = PsqlServer(ServerConfig(port=0, workers=1), db=map_database)
        host, port = srv.start_background()
        try:
            with Client(host, port) as c:
                for n in range(3):  # distinct texts: no cache hits
                    assert c.query(f"select city from cities "
                                   f"where population > {n}").ok
        finally:
            srv.stop_background()
        assert [n for status, n in in_flight if status == "ok"] == [1, 1, 1]


def faulty_session_factory(db):
    """Sessions with a function that raises a storage-layer fault."""
    from repro.storage.failpoints import InjectedFault
    session = Session(db)

    def bad_disk(x):
        raise InjectedFault("injected I/O error at test.server")

    session.functions.register("bad-disk", bad_disk)
    return session


class TestIOFaultHandling:
    """Storage faults become graceful ERR frames, never dead workers."""

    @pytest.fixture()
    def faulty_server(self, map_database):
        srv = PsqlServer(ServerConfig(port=0, workers=2), db=map_database,
                         session_factory=faulty_session_factory)
        srv.start_background()
        yield srv
        srv.stop_background()

    def test_storage_fault_is_framed_and_counted(self, faulty_server):
        host, port = _addr(faulty_server)
        with Client(host, port) as client:
            r = client.query("select bad-disk(population) from cities")
            assert r.status == "error"
            assert r.error_kind == "InjectedFault"
            # The connection and the worker both survive.
            assert client.ping()
            assert client.query("select city from cities").ok
            stats = client.stats()
        assert stats["server.io_errors"] >= 1
        assert stats["server.queries"] >= 2
