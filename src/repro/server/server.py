"""The asyncio PSQL query server.

One event loop owns all connection framing, the admission gate, the
result cache and the metrics registry; CPU work happens on the
:class:`~repro.server.service.QueryService` pool.  The control flow for
one ``QUERY`` line:

1. normalise the text (a lexer error becomes an ``ERR`` frame, nothing
   is submitted);
2. consult the LRU cache under ``(normalized, generation)`` — a hit is
   streamed back without touching the pool;
3. admission gate: if ``max_inflight`` queries already occupy the pool,
   answer ``BUSY`` *now* instead of queueing unboundedly (shed load at
   the edge; the client can back off and retry);
4. submit, await with the per-query timeout; a timeout answers
   ``TIMEOUT`` and abandons the task (cancelled outright if it has not
   started; a running worker finishes and its slot frees then — the
   gate tracks *actual* occupancy, so backpressure stays truthful);
5. stream the framed result, cache it, and fold the worker's isolated
   observability snapshot into the server-wide registry.

Every response is ``END``-terminated, so one bad query never
desynchronises or kills a connection.  Shutdown is graceful: the
listener closes first, in-flight queries drain (bounded by
``drain_timeout``), then connections are torn down.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.psql.errors import PsqlError
from repro.psql.executor import Session
from repro.psql.normalize import normalize_query
from repro.psql.prepare import PreparedStatement
from repro.psql.result import QueryResult
from repro.relational.catalog import Database
from repro.server import binproto, protocol
from repro.server.cache import QueryCache
from repro.server.service import STORAGE_ERRORS, QueryService
from repro import obs

__all__ = ["PsqlServer", "ServerConfig"]


@dataclass
class ServerConfig:
    """Everything a :class:`PsqlServer` needs to run."""

    host: str = "127.0.0.1"
    port: int = protocol.DEFAULT_PORT    #: 0 picks an ephemeral port
    workers: int = 4
    executor: str = "thread"             #: "thread" or "process"
    max_inflight: int = 0                #: 0 = 2 * workers
    query_timeout: float = 30.0          #: seconds; <= 0 disables
    cache_size: int = 256                #: 0 disables the result cache
    drain_timeout: float = 10.0          #: graceful-shutdown bound
    factory_spec: str = "repro.server.demo:demo_database"
    capture: bool = True                 #: workload capture for ADVISE
    maintenance: bool = False            #: start the repack daemon enabled
    maintenance_interval: float = 30.0   #: seconds between daemon cycles

    def effective_max_inflight(self) -> int:
        return self.max_inflight if self.max_inflight > 0 \
            else 2 * self.workers


@dataclass
class _Connection:
    """Per-connection state the session manager tracks."""

    session_id: int
    peer: str
    session: Session
    writer: asyncio.StreamWriter
    queries: int = 0
    errors: int = 0
    opened_at: float = field(default_factory=time.monotonic)
    #: negotiated the binary protocol via ``HELLO bin``
    binary: bool = False
    #: prepared statements by id (shared objects with the session)
    prepared: dict[int, PreparedStatement] = field(default_factory=dict)


class PsqlServer:
    """A concurrent PSQL query server over one pictorial database.

    Args:
        config: server parameters.
        db: the database to serve; omit to build one from
            ``config.factory_spec`` (required anyway for process mode).
        session_factory: per-connection session builder (thread mode),
            e.g. to pre-register application pictorial functions.

    Use :meth:`serve_forever` from ``asyncio.run`` (the CLI does), or
    :meth:`start_background` to run the whole loop on a daemon thread —
    which is how the tests and the throughput benchmark embed it.
    """

    def __init__(self, config: Optional[ServerConfig] = None,
                 db: Optional[Database] = None,
                 session_factory=None):
        self.config = config or ServerConfig()
        self.service = QueryService(
            db=db, workers=self.config.workers,
            executor=self.config.executor,
            factory_spec=self.config.factory_spec,
            session_factory=session_factory,
            capture=self.config.capture)
        self.cache = QueryCache(capacity=self.config.cache_size)
        self.registry = obs.Registry()
        self.port: Optional[int] = None
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._connections: dict[int, _Connection] = {}
        self._next_session_id = 1
        self._inflight = 0
        self._active_responses = 0
        self._draining = False
        # Background repack daemon (thread-executor servers only; the
        # process pool's workers hold their own catalog copies).
        self.scheduler = None
        if self.config.executor == "thread":
            from repro.server.scheduler import MaintenanceScheduler
            self.scheduler = MaintenanceScheduler(
                self.service.db,
                interval=self.config.maintenance_interval,
                enabled=self.config.maintenance,
                on_cycle=self._after_maintenance_cycle)
        self._started_at = time.monotonic()
        # Background-thread plumbing (start_background/stop_background).
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._thread_ready = threading.Event()
        self._thread_error: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and warm the worker pool."""
        self.service.start()
        if self.scheduler is not None:
            self.scheduler.start()
        self._started_at = time.monotonic()
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port)
        self.port = self._asyncio_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Start and serve until cancelled (then drain gracefully)."""
        await self.start()
        assert self._asyncio_server is not None
        try:
            await self._asyncio_server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, tear down."""
        self._draining = True
        if self.scheduler is not None:
            await asyncio.to_thread(self.scheduler.stop)
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        # Drain: in-flight queries (and the responses being written for
        # them) get up to drain_timeout to finish.
        deadline = time.monotonic() + self.config.drain_timeout
        while ((self._inflight or self._active_responses)
               and time.monotonic() < deadline):
            await asyncio.sleep(0.01)
        for conn in list(self._connections.values()):
            conn.writer.close()
        self._connections.clear()
        self.service.close(wait=False)

    # -- background-thread embedding ---------------------------------------

    def start_background(self, timeout: float = 30.0,
                         ) -> tuple[str, int]:
        """Run the server's event loop on a daemon thread.

        Returns ``(host, port)`` once the listener is bound — with
        ``config.port = 0`` this is how callers learn the ephemeral
        port.  Pair with :meth:`stop_background`.
        """
        if self._thread is not None:
            raise RuntimeError("server already running in background")
        self._thread = threading.Thread(target=self._thread_main,
                                        name="psql-server", daemon=True)
        self._thread.start()
        if not self._thread_ready.wait(timeout):
            raise RuntimeError("server failed to start within timeout")
        if self._thread_error is not None:
            raise RuntimeError("server failed to start") \
                from self._thread_error
        assert self.port is not None
        return self.config.host, self.port

    def stop_background(self, timeout: float = 30.0) -> None:
        """Signal the background loop to drain and stop; join the thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_requested is not None:
            loop, stop = self._loop, self._stop_requested
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)
        self._thread = None

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve_until_stopped())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._thread_error = exc
            self._thread_ready.set()

    async def _serve_until_stopped(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        try:
            await self.start()
        except BaseException as exc:  # noqa: BLE001
            self._thread_error = exc
            self._thread_ready.set()
            return
        self._thread_ready.set()
        await self._stop_requested.wait()
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        sid = self._next_session_id
        self._next_session_id += 1
        peername = writer.get_extra_info("peername")
        conn = _Connection(
            session_id=sid,
            peer=str(peername) if peername else "?",
            session=self.service.make_session(),
            writer=writer)
        self._connections[sid] = conn
        self.registry.bump("server.sessions.opened")
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                verb, _, rest = text.partition(" ")
                verb = verb.upper()
                if verb == "QUIT":
                    await self._write_lines(
                        conn, [protocol.BYE, protocol.END])
                    break
                if not await self._dispatch(conn, verb, rest):
                    await self._write_error(
                        conn, "ProtocolError",
                        f"unknown command {verb!r} "
                        f"(try {'/'.join(self.verbs())})")
                if conn.binary:
                    # HELLO bin was acknowledged in text; every byte
                    # from here on is length-prefixed binary framing.
                    await self._binary_loop(conn, reader)
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.pop(sid, None)
            self.registry.bump("server.sessions.closed")
            writer.close()

    # -- verb dispatch -------------------------------------------------------

    def verbs(self) -> tuple[str, ...]:
        """The command verbs this server answers (for error messages)."""
        return ("QUERY", "EXPLAIN", "PREPARE", "EXECUTE", "REPACK",
                "MAINTAIN", "ADVISE", "HEALTH", "STATS", "PING", "HELLO",
                "QUIT")

    async def _dispatch(self, conn: _Connection, verb: str,
                        rest: str) -> bool:
        """Handle one framed command; False means the verb is unknown.

        The extension point for role-specific servers: the cluster's
        shard and replica servers override this to add verbs (INSERT,
        DELETE, KNN, REPLAY) and to gate mutations by role, falling
        back here for the base protocol.
        """
        if verb == "QUERY":
            await self._handle_query(conn, rest)
        elif verb == "EXPLAIN":
            # EXPLAIN [ANALYZE] <query> — same pipeline as QUERY
            # (normalisation, cache, admission, framing); the
            # session turns the plan into a one-column result.
            await self._handle_query(conn, "explain " + rest)
        elif verb == "PREPARE":
            await self._handle_prepare(conn, rest)
        elif verb == "EXECUTE":
            await self._handle_execute_line(conn, rest)
        elif verb == "REPACK":
            await self._handle_repack(conn, rest)
        elif verb == "MAINTAIN":
            await self._handle_maintain(conn, rest)
        elif verb == "ADVISE":
            await self._handle_advise(conn, rest)
        elif verb == "HEALTH":
            await self._handle_health(conn)
        elif verb in ("STATS", "METRICS"):
            await self._reply_stats(conn)
        elif verb == "PING":
            await self._reply_pong(conn)
        elif verb == "HELLO":
            await self._handle_hello(conn, rest)
        else:
            return False
        return True

    # -- protocol negotiation -------------------------------------------------

    async def _handle_hello(self, conn: _Connection, rest: str) -> None:
        """``HELLO [bin|text]`` — per-connection protocol negotiation.

        The acknowledgement always travels in the *current* framing;
        with ``bin`` the connection switches to length-prefixed binary
        frames immediately after it.  Old servers answer ``ERR`` here,
        which a client treats as "stay on text".
        """
        if conn.binary:
            await self._write_error(conn, "ProtocolError",
                                    "protocol already negotiated")
            return
        mode = rest.strip().lower() or "text"
        if mode not in ("bin", "binary", "text"):
            await self._write_error(conn, "ProtocolError",
                                    "usage: HELLO [bin|text]")
            return
        await self._write_lines(
            conn,
            [f"{protocol.OK} hello {self.generation} 0", protocol.END])
        conn.binary = mode != "text"
        if conn.binary:
            self.registry.bump("server.sessions.binary")

    async def _binary_loop(self, conn: _Connection,
                           reader: asyncio.StreamReader) -> None:
        """Serve length-prefixed binary frames until EOF or QUIT.

        A malformed frame *body* (unknown opcode, truncated struct, bad
        UTF-8) is answered with an ``ERR`` frame and the loop continues:
        the length prefix was consumed exactly, so framing stays in
        sync.  Only an implausible length prefix tears the connection
        down — at that point the stream position cannot be trusted.
        """
        while True:
            try:
                prefix = await reader.readexactly(4)
            except asyncio.IncompleteReadError:
                return
            length = int.from_bytes(prefix, "little")
            if length == 0 or length > binproto.MAX_FRAME:
                await self._write_error(
                    conn, "ProtocolError",
                    f"implausible frame length {length}; closing")
                return
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return
            try:
                opcode, payload = binproto.decode_request(body)
                if opcode == binproto.OP_QUERY:
                    await self._handle_query(conn,
                                             payload.decode("utf-8"))
                elif opcode == binproto.OP_PREPARE:
                    await self._handle_prepare(conn,
                                               payload.decode("utf-8"))
                elif opcode == binproto.OP_EXECUTE:
                    statement_id, params = binproto.decode_execute(payload)
                    await self._handle_execute(conn, statement_id, params)
                elif opcode == binproto.OP_STATS:
                    await self._reply_stats(conn)
                elif opcode == binproto.OP_PING:
                    await self._reply_pong(conn)
                elif opcode == binproto.OP_QUIT:
                    await self._reply_bye(conn)
                    return
                elif opcode == binproto.OP_COMMAND:
                    text = payload.decode("utf-8").strip()
                    if not text:
                        continue
                    verb, _, rest = text.partition(" ")
                    verb = verb.upper()
                    if verb == "QUIT":
                        await self._reply_bye(conn)
                        return
                    if not await self._dispatch(conn, verb, rest):
                        await self._write_error(
                            conn, "ProtocolError",
                            f"unknown command {verb!r} "
                            f"(try {'/'.join(self.verbs())})")
                else:
                    await self._write_error(conn, "ProtocolError",
                                            f"unknown opcode {opcode}")
            except (protocol.ProtocolError, UnicodeDecodeError) as exc:
                conn.errors += 1
                self.registry.bump("server.errors")
                await self._write_error(conn, "ProtocolError", str(exc))

    # -- the QUERY path ------------------------------------------------------

    async def _handle_query(self, conn: _Connection, text: str) -> None:
        conn.queries += 1
        self.registry.bump("server.queries")
        try:
            normalized = normalize_query(text)
        except PsqlError as exc:
            await self._write_error(conn, type(exc).__name__, str(exc))
            return
        log_text = (None if normalized.startswith("explain ")
                    else normalized)
        await self._run_query_job(
            conn, normalized,
            lambda: self.service.submit(conn.session, text, conn.binary),
            log_text=log_text)

    async def _run_query_job(self, conn: _Connection, cache_key,
                             submit, log_text: Optional[str] = None,
                             ) -> None:
        """The shared cache/admission/submit/reply tail of a query.

        *cache_key* is any hashable — normalized text for QUERY, a
        ``(template, params)`` tuple for EXECUTE.  *submit* is a
        zero-argument callable returning the service future; it is only
        invoked on a cache miss that passes the admission gate.
        *log_text* (when given) records cache hits in the workload log —
        executed calls are recorded by the session itself.
        """
        generation = self.generation
        cached = self.cache.get(cache_key, generation)
        if cached is not None:
            self.registry.bump("server.queries.cached")
            self.registry.bump("server.rows_returned", cached.nrows)
            log = self.service.query_log
            if log_text is not None and log is not None and log.enabled:
                # Executed calls are recorded by the session; cache hits
                # never reach a session, so the workload log hears about
                # them here (call count only — nothing executed).
                log.record_cached(log_text, cached.nrows)
            await self._reply_result(
                conn, "cached", generation, cached.nrows,
                cached.binary() if conn.binary else cached.text())
            return

        if self._draining:
            await self._write_error(conn, "ServerError",
                                    "server is shutting down")
            return
        if self._inflight >= self.config.effective_max_inflight():
            self.registry.bump("server.busy_rejections")
            await self._reply_busy(
                conn,
                f"{self._inflight} queries in flight "
                f"(limit {self.config.effective_max_inflight()}); "
                f"retry later")
            return

        loop = asyncio.get_running_loop()
        self._inflight += 1
        future = submit()
        future.add_done_callback(
            lambda _f: loop.call_soon_threadsafe(self._release_slot))
        timeout = self.config.query_timeout
        try:
            outcome = await asyncio.wait_for(
                asyncio.wrap_future(future),
                timeout if timeout > 0 else None)
        except asyncio.TimeoutError:
            # Abandon: a not-yet-started task is cancelled outright (the
            # done callback releases the slot); a running one keeps its
            # slot until it actually finishes — that is the truthful
            # admission-control signal.
            cancel_event = getattr(future, "cancel_event", None)
            if cancel_event is not None:
                cancel_event.set()
            future.cancel()
            self.registry.bump("server.timeouts")
            await self._reply_timeout(conn, f"query exceeded {timeout:g}s")
            return
        except asyncio.CancelledError:
            future.cancel()
            raise

        if outcome.cancelled:
            # Raced a shutdown/cancel before starting; treat as shed load.
            self.registry.bump("server.busy_rejections")
            await self._reply_busy(conn, "cancelled before execution")
            return
        if not outcome.ok:
            conn.errors += 1
            self.registry.bump("server.errors")
            if outcome.io_fault:
                self.registry.bump("server.io_errors")
            await self._write_error(conn, outcome.error_kind,
                                    outcome.error_message)
            return

        self.registry.counters.merge(outcome.counters)
        self.registry.bump("server.queries.executed")
        self.registry.bump("server.rows_returned", outcome.nrows)
        self.cache.put(cache_key, generation, outcome.payload,
                       outcome.nrows, outcome.bbody)
        await self._reply_result(
            conn, "fresh", generation, outcome.nrows,
            outcome.bbody if conn.binary else outcome.payload)

    def _release_slot(self) -> None:
        self._inflight -= 1

    # -- the PREPARE / EXECUTE path -------------------------------------------

    async def _handle_prepare(self, conn: _Connection,
                              template: str) -> None:
        """``PREPARE <template>`` — register a ``?``-placeholder query.

        Nothing is parsed yet (a bare ``?`` is not valid PSQL); the
        response carries the statement id in the header's count field:
        ``OK prepare <generation> <statement-id>``.
        """
        template = template.strip()
        if not template:
            await self._write_error(conn, "ProtocolError",
                                    "usage: PREPARE <query template>")
            return
        stmt = conn.session.prepare(template)
        conn.prepared[stmt.statement_id] = stmt
        self.registry.bump("server.prepares")
        await self._reply_prepared(conn, stmt)

    async def _handle_execute_line(self, conn: _Connection,
                                   rest: str) -> None:
        """``EXECUTE <id> <tab-separated escaped params>`` (text form).

        Parameters are tab-separated and escaped exactly like row
        fields.  (The line framing strips trailing whitespace, so a
        *trailing* empty parameter needs the binary protocol, which
        length-prefixes every parameter.)
        """
        head, _, params_text = rest.partition(" ")
        try:
            statement_id = int(head)
        except ValueError:
            await self._write_error(
                conn, "ProtocolError",
                "usage: EXECUTE <statement-id> [params]")
            return
        try:
            params = (tuple(protocol.unescape(p)
                            for p in params_text.split("\t"))
                      if params_text else ())
        except protocol.ProtocolError as exc:
            await self._write_error(conn, "ProtocolError", str(exc))
            return
        await self._handle_execute(conn, statement_id, params)

    async def _handle_execute(self, conn: _Connection, statement_id: int,
                              params: tuple[str, ...]) -> None:
        """Bind + run one prepared execution through the QUERY pipeline.

        The result cache is keyed on ``(template, params)`` directly —
        no :func:`normalize_query` lexer pass — which is what makes a
        cached prepared read the cheapest request the server answers.
        Cache hits are not recorded in the workload log for the same
        reason (fingerprinting would re-tokenise the text).
        """
        conn.queries += 1
        self.registry.bump("server.queries")
        self.registry.bump("server.executes")
        stmt = conn.prepared.get(statement_id)
        if stmt is None:
            await self._write_error(
                conn, "PsqlError",
                f"unknown prepared statement {statement_id}")
            return
        if len(params) != stmt.nparams:
            await self._write_error(
                conn, "PsqlError",
                f"prepared statement {statement_id} takes "
                f"{stmt.nparams} parameter(s), got {len(params)}")
            return
        # A tuple key: no string building per request, and structurally
        # distinct from every normalize_query() text key.
        cache_key = (stmt.text, params)
        await self._run_query_job(
            conn, cache_key,
            lambda: self.service.submit_prepared(
                conn.session, statement_id, params,
                stmt.substitute(params), conn.binary))

    # -- the REPACK path -----------------------------------------------------

    async def _handle_repack(self, conn: _Connection, rest: str) -> None:
        """``REPACK <picture> <relation> [column]`` — offline rebuild.

        The rebuild runs on a plain thread (it is long, I/O-heavy and
        must not occupy a query-pool slot or the event loop); queries
        keep flowing meanwhile and only block briefly at the atomic
        swap.  On success the response is ``OK repack <generation>
        <entries>``, where *generation* is the post-bump value every
        later cache entry will be keyed on.
        """
        parts = rest.split()
        if len(parts) not in (2, 3):
            await self._write_error(
                conn, "ProtocolError",
                "usage: REPACK <picture> <relation> [column]")
            return
        picture, relation = parts[0], parts[1]
        column = parts[2] if len(parts) == 3 else "loc"
        if self._draining:
            await self._write_error(conn, "ServerError",
                                    "server is shutting down")
            return
        self.registry.bump("server.repacks")
        try:
            entries = await asyncio.to_thread(
                self.service.rebuild_index, picture, relation, column)
        except (KeyError, ValueError) as exc:
            self.registry.bump("server.errors")
            await self._write_error(conn, type(exc).__name__,
                                    str(exc).strip("'\""))
            return
        except STORAGE_ERRORS as exc:
            conn.errors += 1
            self.registry.bump("server.errors")
            self.registry.bump("server.io_errors")
            await self._write_error(conn, type(exc).__name__, str(exc))
            return
        generation = self.generation
        dropped = self.cache.drop_stale(generation)
        self.registry.bump("server.repacks.completed")
        self.registry.bump("server.cache.repack_dropped", dropped)
        await self._reply_ack(conn, "repack", generation, entries)

    async def _handle_maintain(self, conn: _Connection, rest: str) -> None:
        """``MAINTAIN [on|off|status|run]`` — the background repack daemon.

        ``on``/``off`` toggle the scheduler and answer ``OK maintain
        <generation> <enabled>``; ``status`` (the default) and ``run``
        (one synchronous cycle, useful in tests and benchmarks) answer a
        one-column report, so the cluster router can merge per-shard
        sections the way it does for ADVISE/HEALTH.
        """
        action = rest.strip().lower() or "status"
        if action not in ("on", "off", "status", "run"):
            await self._write_error(conn, "ProtocolError",
                                    "usage: MAINTAIN [on|off|status|run]")
            return
        if self.scheduler is None:
            await self._write_error(
                conn, "ValueError",
                "maintenance requires the thread executor (process "
                "workers hold their own catalog copies)")
            return
        self.registry.bump("server.maintains")
        if action == "on":
            self.scheduler.enable()
            await self._reply_ack(conn, "maintain", self.generation, 1)
        elif action == "off":
            self.scheduler.disable()
            await self._reply_ack(conn, "maintain", self.generation, 0)
        elif action == "run":
            if self._draining:
                await self._write_error(conn, "ServerError",
                                        "server is shutting down")
                return
            try:
                actions = await asyncio.to_thread(self.scheduler.run_now)
            except Exception as exc:  # noqa: BLE001 - framed, never fatal
                self.registry.bump("server.errors")
                await self._write_error(conn, type(exc).__name__, str(exc))
                return
            lines = [a.describe() for a in actions] or ["no indexes"]
            await self._write_report(conn, "maintain", lines)
        else:
            await self._write_report(conn, "maintain",
                                     self.scheduler.status_lines())

    def _after_maintenance_cycle(self, actions) -> None:
        """Post-cycle hook (scheduler thread): invalidate stale results.

        A repack bumped the catalog generation, so everything the result
        cache holds for older generations is structure-stale; both the
        cache and registry are lock-protected, making this safe off the
        event loop.
        """
        repacked = sum(1 for a in actions if a.kind != "none")
        if not repacked:
            return
        dropped = self.cache.drop_stale(self.generation)
        self.registry.bump("server.maintenance.repacks", repacked)
        self.registry.bump("server.cache.repack_dropped", dropped)

    # -- the ADVISE / HEALTH paths -------------------------------------------

    async def _handle_advise(self, conn: _Connection, rest: str) -> None:
        """``ADVISE [top]`` — workload analysis + ranked recommendations.

        Replanning the captured workload against hypothetical catalogs
        is CPU work, so it runs on a plain thread like REPACK; the
        report travels as a one-column result so every client and the
        cluster router handle it like any other rows.
        """
        rest = rest.strip()
        top = 20
        if rest:
            try:
                top = int(rest)
            except ValueError:
                top = -1
            if top < 1:
                await self._write_error(conn, "ProtocolError",
                                        "usage: ADVISE [top-n]")
                return
        self.registry.bump("server.advises")
        try:
            lines = await asyncio.to_thread(self._advise_lines, top)
        except Exception as exc:  # noqa: BLE001 - framed, never fatal
            self.registry.bump("server.errors")
            await self._write_error(conn, type(exc).__name__, str(exc))
            return
        await self._write_report(conn, "advise", lines)

    def _advise_lines(self, top: int) -> list[str]:
        from repro.advisor import advise, format_advise
        log = self.service.query_log
        if log is None:
            return ["workload capture is disabled on this server "
                    "(process executor or capture=False); "
                    "nothing to advise on"]
        return format_advise(advise(self.service.db, log, top=top))

    async def _handle_health(self, conn: _Connection) -> None:
        """``HEALTH`` — graded checks over live stats and the catalog."""
        self.registry.bump("server.healths")
        stats = self.stats()
        try:
            lines = await asyncio.to_thread(self._health_lines, stats)
        except Exception as exc:  # noqa: BLE001 - framed, never fatal
            self.registry.bump("server.errors")
            await self._write_error(conn, type(exc).__name__, str(exc))
            return
        await self._write_report(conn, "health", lines)

    def _health_lines(self, stats: dict[str, float]) -> list[str]:
        from repro.advisor import format_health, run_health_checks
        return format_health(run_health_checks(self.service.db,
                                               stats=stats))

    async def _write_report(self, conn: _Connection, column: str,
                            lines: list[str]) -> None:
        """Frame report *lines* as a fresh one-column result."""
        await self._reply_fresh(
            conn, QueryResult(columns=(column,),
                              rows=[(line,) for line in lines]))

    # -- frame writing (mode-aware) ------------------------------------------

    async def _write_lines(self, conn: _Connection,
                           lines: list[str] | tuple[str, ...]) -> None:
        self._active_responses += 1
        try:
            conn.writer.write(("\n".join(lines) + "\n").encode("utf-8"))
            await conn.writer.drain()
        finally:
            self._active_responses -= 1

    async def _write_bytes(self, conn: _Connection, data: bytes) -> None:
        self._active_responses += 1
        try:
            conn.writer.write(data)
            await conn.writer.drain()
        finally:
            self._active_responses -= 1

    async def _reply_fresh(self, conn: _Connection,
                           result: QueryResult) -> None:
        """Answer with a result built on the event loop (a report, a
        cluster verb), rendered in *conn*'s encoding only."""
        await self._reply_result(
            conn, "fresh", self.generation, len(result.rows),
            binproto.encode_result_body(result) if conn.binary
            else protocol.encode_result(result))

    async def _reply_result(self, conn: _Connection, disposition: str,
                            generation: int, nrows: int,
                            rendered: Union[bytes, Sequence[str]],
                            ) -> None:
        """One OK-with-result response in the framing *conn* uses;
        *rendered* is the result body in that framing (binary body
        bytes, or text payload lines).

        The binary path writes prefix, header and body as three buffer
        appends — the body bytes are never copied or re-encoded.
        """
        if conn.binary:
            header = binproto.ok_header(disposition, generation, nrows)
            self._active_responses += 1
            try:
                writer = conn.writer
                writer.write(binproto.frame_prefix(len(header)
                                                   + len(rendered)))
                writer.write(header)
                writer.write(rendered)
                await writer.drain()
            finally:
                self._active_responses -= 1
            return
        header = f"{protocol.OK} {disposition} {generation} {nrows}"
        await self._write_lines(conn, [header, *rendered])

    async def _reply_ack(self, conn: _Connection, disposition: str,
                         generation: int, count: int) -> None:
        if conn.binary:
            await self._write_bytes(
                conn, binproto.response_ack(disposition, generation, count))
            return
        await self._write_lines(
            conn,
            [f"{protocol.OK} {disposition} {generation} {count}",
             protocol.END])

    async def _reply_prepared(self, conn: _Connection,
                              stmt: PreparedStatement) -> None:
        if conn.binary:
            await self._write_bytes(
                conn, binproto.response_prepared(
                    self.generation, stmt.statement_id, stmt.nparams))
            return
        await self._reply_ack(conn, "prepare", self.generation,
                              stmt.statement_id)

    async def _reply_busy(self, conn: _Connection, message: str) -> None:
        if conn.binary:
            await self._write_bytes(conn, binproto.response_busy(message))
            return
        await self._write_lines(
            conn,
            [f"{protocol.BUSY} " + protocol.escape(message),
             protocol.END])

    async def _reply_timeout(self, conn: _Connection,
                             message: str) -> None:
        if conn.binary:
            await self._write_bytes(conn,
                                    binproto.response_timeout(message))
            return
        await self._write_lines(
            conn,
            [f"{protocol.TIMEOUT} " + protocol.escape(message),
             protocol.END])

    async def _reply_pong(self, conn: _Connection) -> None:
        if conn.binary:
            await self._write_bytes(conn, binproto.response_pong())
            return
        await self._write_lines(conn, [protocol.PONG, protocol.END])

    async def _reply_bye(self, conn: _Connection) -> None:
        if conn.binary:
            await self._write_bytes(conn, binproto.response_bye())
            return
        await self._write_lines(conn, [protocol.BYE, protocol.END])

    async def _reply_stats(self, conn: _Connection) -> None:
        if conn.binary:
            stats = dict(self.stats())
            stats["server.generation"] = int(self.generation)
            await self._write_bytes(conn, binproto.response_stats(stats))
            return
        await self._write_lines(
            conn, protocol.encode_stats(self.stats(),
                                        generation=self.generation))

    async def _write_error(self, conn: _Connection, kind: str,
                           message: str) -> None:
        if conn.binary:
            await self._write_bytes(conn,
                                    binproto.response_error(kind, message))
            return
        await self._write_lines(
            conn,
            [f"{protocol.ERR} {kind} {protocol.escape(message)}",
             protocol.END])

    # -- metrics -------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self.service.generation

    def stats(self) -> dict[str, float]:
        """The ``STATS`` payload: server counters + derived + obs totals.

        Server-wide figures (queries, QPS, cache hit rate, sessions,
        backpressure events) live under ``server.*``; the merged
        per-query observability snapshots surface the engine-level
        totals — ``rtree.search.nodes_visited``, ``storage.buffer.*``
        page I/O and friends — plus ``avg.*`` per-executed-query rates
        for the paper's favourite metric, nodes visited per query.
        """
        uptime = max(time.monotonic() - self._started_at, 1e-9)
        out: dict[str, float] = {}
        # Integer counters stay ints: the text protocol renders them
        # without a fractional part and the binary protocol tags them,
        # so integer-valued counters survive a round trip as integers.
        for name, value in self.registry.counters.as_dict().items():
            out[name] = value if isinstance(value, int) else float(value)
        # Durability counters accumulate in the process-global registry
        # (recovery happens at open time, commits on the mutation path —
        # neither runs under a per-query scope), so surface them here.
        for name, value in obs.snapshot(prefix="storage.wal").items():
            out.setdefault(name,
                           value if isinstance(value, int)
                           else float(value))
        out.update(self.cache.stats())
        queries = out.get("server.queries", 0.0)
        executed = out.get("server.queries.executed", 0.0)
        out["server.uptime_seconds"] = uptime
        out["server.qps"] = queries / uptime
        out["server.inflight"] = float(self._inflight)
        out["server.max_inflight"] = float(
            self.config.effective_max_inflight())
        out["server.sessions.active"] = float(len(self._connections))
        out["server.workers"] = float(self.config.workers)
        if executed:
            for engine_counter, avg_name in (
                    ("rtree.search.nodes_visited",
                     "avg.nodes_visited_per_query"),
                    ("storage.disk_rtree.nodes_read",
                     "avg.disk_nodes_read_per_query"),
                    ("storage.buffer.misses",
                     "avg.page_faults_per_query")):
                if engine_counter in out:
                    out[avg_name] = out[engine_counter] / executed
        return out
