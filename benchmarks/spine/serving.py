"""The two serving workloads: ``serve_uncached`` and ``serve_cached``.

Both run the real server as a subprocess (``python -m repro.server``,
2 thread workers, database from :mod:`factory`) and drive it closed
loop from the bench process: 2 blocking :class:`Client` connections on
2 threads, each sending its next request when the previous reply has
arrived.  ``serve_uncached`` disables the result cache so every query
pays lexer to tree traversal to text encode; ``serve_cached`` replays
128 prepared executions the cache answers, so only the binary codec,
the cache and the event loop are on the path.

Expected answers come from a brute-force scan over the rows of an
identical database built in the bench process, which the single-threaded
in-process passes after the window reuse.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import random
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional

import numpy as np

import factory
import layers
from harness import (SPINE_DIR, SRC_DIR, Window, Workload, mean,
                     peak_rss_of_mb, trace_prefix)
from repro import obs
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.psql import executor as psql_executor
from repro.psql.executor import Session
from repro.psql.normalize import normalize_query
from repro.psql.parser import parse_statement
from repro.psql.prepare import PreparedStatement
from repro.relational.catalog import index_items, mbr_of_value
from repro.rtree.join import JoinStats, nested_window_join, spatial_join
from repro.rtree.packing import pack
from repro.rtree.search import SearchStats, point_search
from repro.server import binproto, protocol
from repro.server.cache import QueryCache
from repro.server.client import Client
from repro.server.protocol import ProtocolError
from repro.server.service import QueryService
from tracing import ROOT, Tracer

CONNECTIONS = 2
WORKERS = 2
UNCACHED_OPS = 2000
UNCACHED_MIX = (("window", 0.5), ("window_where", 0.2), ("point", 0.2),
                ("join", 0.1))
CACHED_TUPLES = 128
DEFAULT_CACHE_ENTRIES = 256
PING_SAMPLES = 200

WINDOW_TEMPLATE = ("select city from cities on us-map "
                   "at loc covered-by {?, ?}")
WHERE_TEMPLATE = ("select city, population from cities on us-map "
                  "at loc covered-by {?, ?} where population > 250_000")
POINT_TEMPLATE = "select state from states on us-map at loc covering {?, ?}"
JOIN_TEXT = ("select lake, zone from lakes, time-zones "
             "on lake-map, time-zone-map "
             "at lakes.loc intersecting time-zones.loc")
POPULATION_FLOOR = 250_000


class _Op:
    """One generated request with its brute-force answer."""

    __slots__ = ("cls", "request", "rows", "window")

    def __init__(self, cls: str, request: Any, rows: list[tuple[str, ...]],
                 window: Optional[Rect] = None):
        self.cls = cls
        self.request = request    # query text, or EXECUTE params tuple
        self.rows = rows          # sorted, as the client sees them
        self.window = window


class _Server:
    """A running server subprocess and the connections into it."""

    def __init__(self, proc: subprocess.Popen, port: int):
        self.proc = proc
        self.port = port
        self.clients: list[Client] = []
        self.calls: list[Callable[[Any], Any]] = []
        self.control: Optional[Client] = None


def _fill(template: str, params: tuple[str, str]) -> str:
    return template.replace("?", "%s") % params


class _Serving(Workload):
    """A server subprocess, driven closed loop over sockets."""

    binary: bool
    cache_entries: int
    #: STATS counters that must not move while this workload runs: the
    #: layers it was chosen to bypass
    idle_stats: tuple[str, ...]
    over_socket = True

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.scale = max(1, factory.FULL_SCALE // self.divisor)
        self._procs: list[subprocess.Popen] = []
        self._positions = [0] * CONNECTIONS

    # -- data, ops, oracle --------------------------------------------------

    def generate(self) -> None:
        self.db = factory.build_database(
            self.scale, os.path.join(self.scratch, "inprocess.idx"))
        cities = [row for _rid, row in self.db.relation("cities").rows()]
        self._city = np.array([row["city"] for row in cities])
        self._population = np.array([row["population"] for row in cities])
        self._x = np.array([row["loc"].x for row in cities])
        self._y = np.array([row["loc"].y for row in cities])
        self.ops = self._generate_ops(random.Random(self.seed))
        if self.corrupt_oracle:
            self.ops[0].rows = self.ops[0].rows + [("no such row",)]
        # Connection t cycles over the whole list, starting a t-th of
        # the way in.
        n = len(self.ops)
        self._offsets = [t * n // CONNECTIONS for t in range(CONNECTIONS)]
        self._thread_ops = [
            [(op.request, len(op.rows))
             for op in self.ops[offset:] + self.ops[:offset]]
            for offset in self._offsets]

    def _generate_ops(self, rng: random.Random) -> list[_Op]:
        raise NotImplementedError

    def _window_params(self, rng: random.Random,
                       ) -> tuple[tuple[str, str], Rect]:
        """``{x+-dx, y+-dy}`` as the two EXECUTE parameters, plus the
        rectangle the server will parse out of them."""
        params = (f"{rng.uniform(50, 950):.1f}+-{rng.uniform(10, 40):.1f}",
                  f"{rng.uniform(50, 950):.1f}+-{rng.uniform(10, 40):.1f}")
        (x, dx), (y, dy) = (map(float, p.split("+-")) for p in params)
        return params, Rect(x - dx, y - dy, x + dx, y + dy)

    def _cities_within(self, window: Rect, floor: Optional[int] = None,
                       ) -> list[tuple[str, ...]]:
        mask = ((self._x >= window.x1) & (self._x <= window.x2)
                & (self._y >= window.y1) & (self._y <= window.y2))
        if floor is None:
            return sorted((name,) for name in self._city[mask].tolist())
        mask &= self._population > floor
        return sorted(zip(self._city[mask].tolist(),
                          map(repr, self._population[mask].tolist())))

    # -- the server subprocess ----------------------------------------------

    def setup(self) -> _Server:
        slot = os.path.join(self.scratch, f"server{len(self._procs) + 1}")
        os.makedirs(slot)
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR, SPINE_DIR] + ([inherited] if inherited else []))
        env["SPINE_SCALE"] = str(self.scale)
        env["SPINE_INDEX_PATH"] = os.path.join(slot, "cities.idx")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--workers", str(WORKERS), "--executor", "thread",
             "--database", "factory:spine_database",
             "--cache-size", str(self.cache_entries)],
            env=env, stdout=subprocess.PIPE, text=True)
        self._procs.append(proc)
        banner = proc.stdout.readline()
        match = re.search(r"listening on \S+:(\d+)", banner)
        if match is None:
            raise RuntimeError(f"server did not start: {banner!r}")
        return _Server(proc, int(match.group(1)))

    def first_op(self, server: _Server) -> None:
        for _ in range(CONNECTIONS):
            client = Client("127.0.0.1", server.port, timeout=30.0,
                            binary=self.binary)
            if client.binary != self.binary:
                raise RuntimeError("binary protocol was not negotiated")
            server.clients.append(client)
            server.calls.append(self._call_for(client))
        server.control = Client("127.0.0.1", server.port, timeout=30.0)
        op = self.ops[0]
        response = server.calls[0](op.request)
        self._check(response.status == "ok"
                    and sorted(response.rows) == op.rows)

    def _call_for(self, client: Client) -> Callable[[Any], Any]:
        raise NotImplementedError

    def teardown(self, server: _Server) -> None:
        for client in server.clients + [server.control]:
            if client is not None:
                with contextlib.suppress(OSError, ProtocolError):
                    client.close()
        _stop(server.proc)

    def close(self) -> None:
        """Stop every server this workload ever started."""
        for proc in self._procs:
            _stop(proc)

    def peak_rss_mb(self, server: _Server) -> float:
        return peak_rss_of_mb(server.proc.pid)

    # -- the closed loop ------------------------------------------------------

    def drive(self, server: _Server, seconds: float) -> Window:
        stats0 = server.control.stats()
        barrier = threading.Barrier(CONNECTIONS)
        n = len(self.ops)
        with ThreadPoolExecutor(CONNECTIONS) as pool:
            futures = [pool.submit(_client_loop, server.calls[t],
                                   self._thread_ops[t], self._positions[t],
                                   seconds, barrier)
                       for t in range(CONNECTIONS)]
            results = [f.result() for f in futures]
        stats1 = server.control.stats()

        latencies: list[float] = []
        ends: list[float] = []
        classes: list[str] = []
        failed = 0
        for t, (lat, end, bad, _start) in enumerate(results):
            first = self._offsets[t] + self._positions[t]
            classes += [self.ops[(first + k) % n].cls
                        for k in range(len(lat))]
            latencies += lat
            ends += end
            failed += bad
            self._positions[t] = (self._positions[t] + len(lat)) % n
        start = min(r[3] for r in results)
        delta = {k: stats1[k] - stats0.get(k, 0) for k in stats1
                 if isinstance(stats1[k], (int, float))}
        for key in self.idle_stats:
            self._check(delta.get(key, 0) == 0)
        return Window(latencies, ends, classes, failed, start,
                      max(ends) - start, extra={"stats": delta})

    # -- per-layer measurements ----------------------------------------------

    def _server_metrics(self, server: _Server,
                        window: Window) -> dict[str, float]:
        """Counts the server itself published across the timed window."""
        d = collections.defaultdict(int, window.extra["stats"])
        ops = window.attempted

        def ratio(top: float, bottom: float) -> float:
            return top / bottom if bottom else 0.0

        return {
            "server.ping_rtt_us": layers.per_call_us(
                server.clients[0].ping, [()] * PING_SAMPLES),
            "server.cache.hit_rate": ratio(
                d["server.cache.hits"],
                d["server.cache.hits"] + d["server.cache.misses"]),
            "server.cache.evictions_per_op":
                ratio(d["server.cache.evictions"], ops),
            "server.busy_frac": ratio(d["server.busy_rejections"], ops),
            "psql.plan_cache_hit_rate": ratio(
                d["psql.plan.cache_hits"],
                d["psql.plan.cache_hits"] + d["psql.plan.cache_misses"]),
            "psql.rows_examined_per_row_returned": ratio(
                d["psql.at.rows_out"] + d["psql.where.rows_in"],
                d["psql.rows_returned"]),
            "storage.disk_rtree.nodes_per_search": ratio(
                d["storage.disk_rtree.nodes_read"],
                d["storage.disk_rtree.queries"]),
            "storage.buffer.hit_rate": ratio(
                d["storage.buffer.hits"],
                d["storage.buffer.hits"] + d["storage.buffer.misses"]),
            "storage.buffer.evictions_per_op":
                ratio(d["storage.buffer.evictions"], ops),
            "storage.pager.reads_per_op":
                ratio(d["storage.pager.reads"], ops),
        }

    def _replay_passes(self, replay: Callable[[_Op, Callable], Any],
                       install: Callable[[Tracer], None], count: int,
                       ) -> tuple[list[float], list[float], Tracer]:
        """One untraced and one traced single-threaded pass over the
        first *count* ops (cycling a shorter list), through *replay*:
        the server's steps, in the server's order, without the socket.
        An unmeasured pass comes first, because the served system has
        seen every text before.  The traced pass compares full sorted
        results with the oracle."""
        ops = [self.ops[i % len(self.ops)] for i in range(count)]
        for op in ops:
            replay(op, _no_span)
        clock = time.perf_counter
        plain: list[float] = []
        for op in ops:
            t0 = clock()
            replay(op, _no_span)
            plain.append(clock() - t0)
        tracer = Tracer()
        install(tracer)
        traced: list[float] = []
        try:
            for i, op in enumerate(ops):
                tracer.op = i
                t0 = clock()
                with tracer.span(ROOT):
                    response = replay(op, tracer.span)
                traced.append(clock() - t0)
                self._check(response.status == "ok"
                            and sorted(response.rows) == op.rows)
        finally:
            tracer.unwrap_all()
        return plain, traced, tracer


_NO_SPAN = contextlib.nullcontext()


def _no_span(_name: str) -> contextlib.nullcontext:
    """Stands in for ``Tracer.span`` in the untraced passes."""
    return _NO_SPAN


def _stop(proc: subprocess.Popen) -> None:
    """Terminate a server subprocess and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _client_loop(call: Callable[[Any], Any], ops: list[tuple[Any, int]],
                 i: int, seconds: float, barrier: threading.Barrier,
                 ) -> tuple[list[float], list[float], int, float]:
    """One connection's closed loop; the timed window compares only the
    row count (the traced pass compares full results)."""
    n = len(ops)
    latencies: list[float] = []
    ends: list[float] = []
    failed = 0
    clock = time.perf_counter
    barrier.wait()
    start = clock()
    deadline = start + seconds
    while True:
        request, rows = ops[i]
        t0 = clock()
        try:
            response = call(request)
        except (OSError, ProtocolError):
            # A dead connection fails this op and ends the loop; the run
            # is reported as failed either way.
            t1 = clock()
            latencies.append(t1 - t0)
            ends.append(t1)
            failed += 1
            break
        t1 = clock()
        latencies.append(t1 - t0)
        ends.append(t1)
        if response.status != "ok" or response.nrows != rows:
            failed += 1
        i += 1
        if i == n:
            i = 0
        if t1 >= deadline:
            break
    return latencies, ends, failed, start


# -- serve_uncached ----------------------------------------------------------


class ServeUncached(_Serving):
    """Text ``QUERY`` with the result cache off: every layer works."""

    name = "serve_uncached"
    binary = False
    cache_entries = 0
    idle_stats = ("server.cache.hits",)

    def _generate_ops(self, rng: random.Random) -> list[_Op]:
        states = [(row["state"], mbr_of_value(row["loc"]))
                  for _rid, row in self.db.relation("states").rows()]
        lakes = [(row["lake"], mbr_of_value(row["loc"]))
                 for _rid, row in self.db.relation("lakes").rows()]
        zones = [(row["zone"], mbr_of_value(row["loc"]))
                 for _rid, row in self.db.relation("time-zones").rows()]
        join_rows = sorted((lake, zone) for lake, lake_mbr in lakes
                           for zone, zone_mbr in zones
                           if lake_mbr.intersects(zone_mbr))
        # The mix is a property of the workload, so it is exact and only
        # the order is drawn from the seed.
        classes = [cls for cls, share in UNCACHED_MIX
                   for _ in range(round(share * UNCACHED_OPS))]
        rng.shuffle(classes)
        ops = []
        for cls in classes:
            params, window = self._window_params(rng)
            if cls == "window":
                ops.append(_Op(cls, _fill(WINDOW_TEMPLATE, params),
                               self._cities_within(window), window))
            elif cls == "window_where":
                ops.append(_Op(cls, _fill(WHERE_TEMPLATE, params),
                               self._cities_within(window, POPULATION_FLOOR),
                               window))
            elif cls == "point":
                x, y = (p.split("+-")[0] for p in params)
                spot = Rect(float(x), float(y), float(x), float(y))
                ops.append(_Op(cls,
                               _fill(POINT_TEMPLATE, (x + "+-0", y + "+-0")),
                               sorted((name,) for name, mbr in states
                                      if mbr.contains(spot)), spot))
            else:
                ops.append(_Op(cls, JOIN_TEXT, join_rows))
        return ops

    def _call_for(self, client: Client) -> Callable[[Any], Any]:
        return client.query

    def layers(self, server: _Server, window: Window):
        count = trace_prefix(self.divisor)
        prefix = self.ops[:count]
        out = self._server_metrics(server, window)
        db = self.db
        session = Session(db)

        # Each layer's public entry point, timed alone on the same ops.
        texts = [(op.request,) for op in prefix]
        statements = [parse_statement(op.request) for op in prefix]
        out["psql.parse_us"] = layers.per_call_us(parse_statement, texts)
        out["psql.normalize_us"] = layers.per_call_us(normalize_query, texts)
        out["psql.plan_us"] = layers.per_call_us(
            session.plan, [(s,) for s in statements])
        results = []
        out["psql.run_us"] = layers.per_call_us(
            lambda s: results.append(session.run(s)),
            [(s,) for s in statements])
        payloads = [protocol.encode_result(r) for r in results]
        out["server.protocol.encode_result_us"] = layers.per_call_us(
            protocol.encode_result, [(r,) for r in results])
        out["server.protocol.parse_response_us"] = layers.per_call_us(
            protocol.parse_response,
            [([f"OK fresh 0 {len(r.rows)}", *p],)
             for r, p in zip(results, payloads)])

        windows = [op.window for op in prefix if op.cls == "window"]
        rids = [db.spatial_search("us-map", "cities", w, within=True)
                for w in windows]
        out["relational.spatial_search_us"] = layers.per_call_us(
            lambda w: db.spatial_search("us-map", "cities", w, within=True),
            [(w,) for w in windows])
        out["relational.rows_for_us"] = layers.per_call_us(
            db.rows_for, [("cities", r) for r in rids])

        cities_index = db.picture("us-map").index("cities")
        stats = SearchStats()
        t0 = time.perf_counter()
        for w in windows:
            cities_index.search_within(w)
        elapsed = time.perf_counter() - t0
        for w in windows:
            cities_index.search_within(w, stats=stats)
        out["storage.disk_rtree.us_per_node"] = \
            elapsed / stats.nodes_visited * 1e6

        states_tree = db.picture("us-map").index("states")
        points = [Point(op.window.x1, op.window.y1)
                  for op in prefix if op.cls == "point"]
        stats = SearchStats()
        t0 = time.perf_counter()
        for p in points:
            point_search(states_tree, p, stats)
        elapsed = time.perf_counter() - t0
        out["rtree.search.nodes_per_query"] = \
            stats.nodes_visited / len(points)
        out["rtree.search.us_per_node"] = elapsed / stats.nodes_visited * 1e6

        out.update(self._join_metrics(session))
        items = list(index_items(db.relation("cities"), "loc"))
        t0 = time.perf_counter()
        pack(items, max_entries=16, method="nn")
        out["rtree.packing.nn.items_per_s"] = \
            len(items) / (time.perf_counter() - t0)

        # The server's own steps in the server's order, minus the socket.
        service = QueryService(db=db, workers=1)   # turns obs on, as served
        try:
            served = service.make_session()
            cache = QueryCache(self.cache_entries)
            generation = db.generation

            def replay(op: _Op, span: Callable) -> Any:
                text = op.request
                with span("psql.normalize"):
                    key = normalize_query(text)
                with span("server.cache"):
                    cache.get(key, generation)
                with obs.scope(forward=False):
                    with span("psql.execute"):
                        result = served.execute(text)
                    with span("server.protocol.encode_result"):
                        payload = protocol.encode_result(result)
                    with span("server.binproto.encode_result"):
                        body = binproto.encode_result_body(result)
                with span("server.cache"):
                    cache.put(key, generation, tuple(payload),
                              len(result.rows), body)
                with span("server.protocol.parse_response"):
                    return protocol.parse_response(
                        [f"OK fresh {generation} {len(result.rows)}",
                         *payload])

            def install(tracer: Tracer) -> None:
                tracer.wrap(psql_executor, "parse_statement", "psql.parse")
                tracer.wrap(psql_executor, "spatial_join", "rtree.join")
                tracer.wrap(psql_executor, "nested_window_join",
                            "rtree.join")
                tracer.wrap(served, "plan", "psql.plan")
                for method in ("search", "search_within"):
                    tracer.wrap(cities_index, method,
                                "storage.disk_rtree.search")
                    tracer.wrap(states_tree, method, "rtree.search")

            plain, traced, tracer = self._replay_passes(replay, install,
                                                        count)
            obs.disable()
            try:
                t0 = time.perf_counter()
                for op in prefix:
                    replay(op, _no_span)
                disabled = time.perf_counter() - t0
            finally:
                obs.enable()
        finally:
            service.close(wait=False)
        out["obs.enabled_overhead_frac"] = sum(plain) / disabled - 1.0
        out["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        return out, tracer, mean(plain)

    def _join_metrics(self, session: Session) -> dict[str, float]:
        """The juxtaposition's tree join alone, by the plan's strategy."""
        db = self.db
        props = session.plan(parse_statement(JOIN_TEXT)).access.props
        lakes = db.picture("lake-map").index("lakes")
        zones = db.picture("time-zone-map").index("time-zones")
        stats = JoinStats()
        if props["strategy"] == "nested":
            outer, inner = ((lakes, zones) if props["outer"] == "left"
                            else (zones, lakes))
            join = functools.partial(nested_window_join, outer, inner,
                                     Rect.intersects, stats=stats)
        else:
            join = functools.partial(spatial_join, lakes, zones,
                                     Rect.intersects, stats=stats)
        rounds = 10
        return {
            "rtree.join.us": layers.per_call_us(join, [()] * rounds),
            "rtree.join.node_pairs_per_query":
                stats.nodes_accessed / rounds,
        }


# -- serve_cached ------------------------------------------------------------


class ServeCached(_Serving):
    """Binary ``EXECUTE`` of a prepared window template over 128 cached
    parameter tuples: planner and trees are bypassed."""

    name = "serve_cached"
    binary = True
    cache_entries = DEFAULT_CACHE_ENTRIES
    idle_stats = ("server.cache.misses", "psql.plan.built")

    def _generate_ops(self, rng: random.Random) -> list[_Op]:
        seen: dict[tuple[str, str], Rect] = {}
        while len(seen) < CACHED_TUPLES:
            params, window = self._window_params(rng)
            seen[params] = window
        return [_Op("execute", params, self._cities_within(window), window)
                for params, window in seen.items()]

    def _call_for(self, client: Client) -> Callable[[Any], Any]:
        return functools.partial(client.execute,
                                 client.prepare(WINDOW_TEMPLATE))

    def first_op(self, server: _Server) -> None:
        super().first_op(server)
        # Fill the result cache before any clock runs: one pass over all
        # 128 tuples, so the timed window sees hits only.
        for op in self.ops:
            response = server.calls[0](op.request)
            self._check(response.status == "ok"
                        and sorted(response.rows) == op.rows)

    def layers(self, server: _Server, window: Window):
        count = trace_prefix(self.divisor)
        out = self._server_metrics(server, window)
        db = self.db
        generation = db.generation
        session = Session(db)
        statement = session.prepare(WINDOW_TEMPLATE)
        sid = statement.statement_id
        tuples = [op.request for op in self.ops]

        results = [session.execute_prepared(sid, p) for p in tuples]
        frames = [binproto.encode_execute(sid, p) for p in tuples]
        bodies = [binproto.encode_result_body(r) for r in results]
        replies = [binproto.ok_header("cached", generation, len(r.rows)) + b
                   for r, b in zip(results, bodies)]

        def decode(frame: bytes):
            _opcode, payload = binproto.decode_request(frame[4:])
            return binproto.decode_execute(payload)

        out["server.binproto.encode_request_us"] = layers.per_call_us(
            binproto.encode_execute, [(sid, p) for p in tuples])
        out["server.binproto.decode_request_us"] = layers.per_call_us(
            decode, [(f,) for f in frames])
        out["server.binproto.encode_result_us"] = layers.per_call_us(
            binproto.encode_result_body, [(r,) for r in results])
        out["server.binproto.parse_response_us"] = layers.per_call_us(
            binproto.parse_response_body, [(r,) for r in replies])
        bound = PreparedStatement(WINDOW_TEMPLATE)
        for p in tuples:                # as served: parsed once, then memo
            bound.bind(p)
        out["psql.prepare.bind_us"] = layers.per_call_us(
            bound.bind, [(p,) for p in tuples])

        cache = QueryCache(self.cache_entries)
        keys = [(WINDOW_TEMPLATE, p) for p in tuples]
        out["server.cache.put_us"] = layers.per_call_us(
            cache.put, [(k, generation, (), len(r.rows), b)
                        for k, r, b in zip(keys, results, bodies)])
        out["server.cache.get_us"] = layers.per_call_us(
            cache.get, [(k, generation) for k in keys])

        def replay(op: _Op, span: Callable) -> Any:
            with span("server.binproto.encode_request"):
                frame = binproto.encode_execute(sid, op.request)
            with span("server.binproto.decode_request"):
                _sid, params = decode(frame)
            with span("server.cache"):
                cached = cache.get((WINDOW_TEMPLATE, params), generation)
            with span("server.binproto.encode_result"):
                header = binproto.ok_header("cached", generation,
                                            cached.nrows)
                binproto.frame_prefix(len(header) + len(cached.bbody))
            with span("server.binproto.parse_response"):
                return binproto.parse_response_body(header + cached.bbody)

        plain, traced, tracer = self._replay_passes(
            replay, lambda tracer: None, count)
        out["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        return out, tracer, mean(plain)
