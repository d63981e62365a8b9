"""The asyncio PSQL query server, and the protocol core it shares.

Every endpoint — this server, the cluster's shard servers and its
router — runs one request path, :class:`ProtocolServer`:

1. **Edge decode.**  A text line (:func:`protocol.parse_request`) or,
   after ``HELLO bin``, a binary frame
   (:func:`binproto.parse_request_body`) becomes one request
   ``(verb, args)``.  ``EXECUTE`` args are ``(statement_id, params)``
   whichever codec carried them.
2. **Verb table.**  :attr:`ProtocolServer.VERBS` maps each verb to its
   handler and a *mutating* flag.  A read-only node answers mutating
   verbs ``ERR ReadOnly``; an unknown verb's ``ERR`` lists the table.
3. **Typed reply.**  A handler returns one :class:`protocol.Response`:
   result, ack, prepared, error, busy, timeout, pong, bye or stats.
4. **Edge encode.**  :meth:`ProtocolServer.send` renders it in the
   connection's codec (:func:`protocol.encode_reply` /
   :func:`binproto.encode_reply`).

Framing errors are handled once, at the edges.  A malformed request
*body* (bad ``EXECUTE`` parameters, an unknown opcode, a truncated
struct, bad UTF-8) is answered ``ERR ProtocolError`` and the connection
carries on: the request's extent was known, so the stream stays in
sync.  A request whose extent is lost — a binary length prefix of zero
or beyond ``binproto.MAX_FRAME``, or a text line longer than the
reader's 64 KiB limit — is answered the same way and the connection
closes, because the stream position can no longer be trusted.

One event loop owns all connection framing, the admission gate, the
result cache and the metrics registry; CPU work happens on the
:class:`~repro.server.service.QueryService` pool.  The control flow for
one ``QUERY``:

1. normalise the text (a lexer error becomes an ``ERR`` reply, nothing
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

Every response is ``END``-terminated (text) or length-prefixed
(binary), so one bad query never desynchronises or kills a connection.
Shutdown is graceful: the listener closes first, in-flight queries
drain (bounded by ``drain_timeout``), then connections are torn down.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Optional

from repro import obs
from repro.psql.errors import PsqlError
from repro.psql.executor import Session
from repro.psql.normalize import normalize_query
from repro.psql.result import QueryResult
from repro.relational.catalog import Database
from repro.server import binproto, protocol
from repro.server.cache import CachedResult, QueryCache
from repro.server.protocol import (Response, ack_reply, error_reply,
                                   protocol_error, result_reply)
from repro.server.service import STORAGE_ERRORS, QueryService

__all__ = ["ProtocolServer", "PsqlServer", "Refusal", "ServerConfig",
           "Verb", "read_frame"]

#: The longest request line the text edge frames (asyncio's
#: ``StreamReader`` limit); longer ones are a framing error.
LINE_LIMIT = 64 * 1024

_SHUTTING_DOWN = error_reply("ServerError", "server is shutting down")


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


@dataclass(frozen=True)
class Verb:
    """One verb-table entry."""

    #: ``async handler(endpoint, conn, args) -> Response``
    handler: Callable[..., Awaitable[Response]]
    #: the verb writes data, so a read-only node refuses it
    mutating: bool = False


class Refusal(Exception):
    """Raised inside a handler to answer with its one argument, a
    :class:`~repro.server.protocol.Response`, instead."""


@dataclass(eq=False)
class _Connection:
    """Per-connection state."""

    writer: asyncio.StreamWriter
    session: Optional[Session] = None
    #: the codec requests and replies use now
    binary: bool = False
    #: ``HELLO bin`` was accepted: binary from the byte after its ack
    hello_bin: bool = False


async def read_frame(reader: asyncio.StreamReader) -> bytes:
    """The body of the next length-prefixed binary frame.

    Raises:
        asyncio.IncompleteReadError: at end of stream.
        protocol.FramingError: on an implausible length prefix.
    """
    length = int.from_bytes(await reader.readexactly(4), "little")
    if length == 0 or length > binproto.MAX_FRAME:
        raise protocol.FramingError(
            f"implausible frame length {length}; closing")
    return await reader.readexactly(length)


async def _next_request(reader: asyncio.StreamReader, binary: bool,
                        ) -> Optional[tuple[str, Any]]:
    """Edge decode: the next request, a line or (*binary*) a frame, as
    ``(verb, args)``; blank requests are skipped.  None at EOF.

    Raises:
        protocol.ProtocolError, UnicodeDecodeError: on a malformed
            request; a :class:`~repro.server.protocol.FramingError` when
            its extent is lost too.
    """
    while True:
        if binary:
            try:
                body = await read_frame(reader)
            except asyncio.IncompleteReadError:
                return None
            request = binproto.parse_request_body(body)
        else:
            try:
                line = await reader.readline()
            except ValueError:      # no newline within the reader's limit
                raise protocol.FramingError(
                    f"request line longer than {LINE_LIMIT} bytes; "
                    f"closing") from None
            if not line:
                return None
            text = line.decode("utf-8", errors="replace").strip()
            request = protocol.parse_request(text) if text else None
        if request is not None:
            return request


class ProtocolServer:
    """One listening endpoint: the connection loop, the codec edges,
    the verb table and the lifecycle.

    Subclasses set ``self.config`` (``host``, ``port``,
    ``drain_timeout``) before calling ``__init__`` and extend
    :attr:`VERBS`.  Run one with :meth:`start` and then
    :meth:`serve_forever` inside ``asyncio.run`` (the CLIs do), or
    :meth:`start_background` to run the whole loop on a daemon thread —
    which is how the tests and benchmarks embed it.
    """

    #: prefix of the session and framing-error counters
    metric_prefix = "server"
    #: answer mutating verbs with ``ERR ReadOnly``
    read_only = False

    def __init__(self) -> None:
        self.registry = obs.Registry()
        self.port: Optional[int] = None
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._connections: set[_Connection] = set()
        self._inflight = 0
        self._active_responses = 0
        self._draining = False
        self._started_at = time.monotonic()
        # Background-thread plumbing (start_background/stop_background).
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._thread_ready = threading.Event()
        self._thread_error: Optional[BaseException] = None

    #: the data generation reply headers carry
    generation = 0

    def _make_session(self) -> Optional[Session]:
        """The per-connection PSQL session (none by default)."""
        return None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener."""
        self._started_at = time.monotonic()
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port, limit=LINE_LIMIT)
        self.port = self._asyncio_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve a started endpoint until cancelled, then drain
        gracefully."""
        try:
            await self._asyncio_server.serve_forever()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, tear down."""
        self._draining = True
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
        for conn in list(self._connections):
            conn.writer.close()
        self._connections.clear()
        # Let the connection handlers observe EOF and exit before the
        # loop tears down (avoids cancel noise from blocked reads).
        await asyncio.sleep(0)

    def start_background(self, timeout: float = 30.0,
                         ) -> tuple[str, int]:
        """Run the event loop on a daemon thread.

        Returns ``(host, port)`` once the listener is bound — with
        ``config.port = 0`` this is how callers learn the ephemeral
        port.  Pair with :meth:`stop_background`.
        """
        if self._thread is not None:
            raise RuntimeError("already running in background")
        self._thread = threading.Thread(target=self._thread_main,
                                        name=type(self).__name__,
                                        daemon=True)
        self._thread.start()
        if not self._thread_ready.wait(timeout):
            raise RuntimeError("failed to start within timeout")
        if self._thread_error is not None:
            raise RuntimeError("failed to start") from self._thread_error
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
        await self.start()      # a failure surfaces through _thread_main
        self._thread_ready.set()
        await self._stop_requested.wait()
        await self.stop()

    # -- the request path ----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer, self._make_session())
        self._connections.add(conn)
        prefix = self.metric_prefix
        self.registry.bump(f"{prefix}.sessions.opened")
        try:
            while True:
                try:
                    request = await _next_request(reader, conn.binary)
                except protocol.FramingError as exc:
                    await self.send(conn, protocol_error(str(exc)))
                    break
                except (protocol.ProtocolError, UnicodeDecodeError) as exc:
                    self.registry.bump(f"{prefix}.errors")
                    await self.send(conn, protocol_error(str(exc)))
                    continue
                if request is None:
                    break
                reply = await self._dispatch(conn, *request)
                await self.send(conn, reply)
                if reply.status == "bye":
                    break
                conn.binary = conn.hello_bin
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(conn)
            self.registry.bump(f"{prefix}.sessions.closed")
            writer.close()

    async def _dispatch(self, conn: _Connection, verb: str,
                        args: Any) -> Response:
        entry = self.VERBS.get(verb)
        if entry is None:
            return protocol_error(f"unknown command {verb!r} "
                                  f"(try {'/'.join(self.VERBS)})")
        if entry.mutating and self.read_only:
            return error_reply(
                "ReadOnly", f"{verb} rejected: this node is a read "
                            f"replica; send writes to the primary")
        try:
            return await entry.handler(self, conn, args)
        except Refusal as refusal:
            return refusal.args[0]

    async def send(self, conn: _Connection, reply: Response) -> None:
        """Edge encode: write *reply* in *conn*'s codec."""
        data = (binproto.encode_reply(reply) if conn.binary
                else protocol.encode_reply(reply))
        self._active_responses += 1
        try:
            conn.writer.write(data)
            await conn.writer.drain()
        finally:
            self._active_responses -= 1

    def _fresh(self, conn: _Connection, result: QueryResult) -> Response:
        """A result built on the loop (a report, a merge), rendered in
        *conn*'s codec only."""
        return result_reply("fresh", self.generation,
                            CachedResult.render(result, conn.binary))

    def _report(self, conn: _Connection, column: str,
                lines: list[str]) -> Response:
        """Report *lines* as a fresh one-column result."""
        return self._fresh(conn, QueryResult(
            columns=(column,), rows=[(line,) for line in lines]))

    # -- protocol verbs -------------------------------------------------------

    async def _handle_hello(self, conn: _Connection, rest: str) -> Response:
        """``HELLO [bin|text]`` — per-connection protocol negotiation.

        The acknowledgement travels in the *current* framing; with
        ``bin`` the connection switches to length-prefixed binary frames
        immediately after it.  Old servers answer ``ERR`` here, which a
        client treats as "stay on text".
        """
        if conn.binary:
            return protocol_error("protocol already negotiated")
        mode = rest.strip().lower() or "text"
        if mode not in ("bin", "binary", "text"):
            return protocol_error("usage: HELLO [bin|text]")
        conn.hello_bin = mode != "text"
        if conn.hello_bin:
            self.registry.bump(f"{self.metric_prefix}.sessions.binary")
        return ack_reply("hello", self.generation, 0)

    async def _handle_ping(self, conn: _Connection, rest: str) -> Response:
        return Response("pong")

    async def _handle_quit(self, conn: _Connection, rest: str) -> Response:
        return Response("bye")

    #: verb -> :class:`Verb`; subclasses extend it.  Handlers are looked
    #: up here, not by method name, so a subclass that overrides one
    #: lists it again.
    VERBS: dict[str, Verb] = {
        "PING": Verb(_handle_ping),
        "HELLO": Verb(_handle_hello),
        "QUIT": Verb(_handle_quit),
    }


class PsqlServer(ProtocolServer):
    """A concurrent PSQL query server over one pictorial database.

    Args:
        config: server parameters.
        db: the database to serve; omit to build one from
            ``config.factory_spec`` (required anyway for process mode).
        session_factory: per-connection session builder (thread mode),
            e.g. to pre-register application pictorial functions.
    """

    def __init__(self, config: Optional[ServerConfig] = None,
                 db: Optional[Database] = None,
                 session_factory=None):
        self.config = config or ServerConfig()
        super().__init__()
        self.service = QueryService(
            db=db, workers=self.config.workers,
            executor=self.config.executor,
            factory_spec=self.config.factory_spec,
            session_factory=session_factory,
            capture=self.config.capture)
        self.cache = QueryCache(capacity=self.config.cache_size)
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

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Warm the worker pool, then bind the listener."""
        self.service.start()
        if self.scheduler is not None:
            self.scheduler.start()
        await super().start()

    async def stop(self) -> None:
        self._draining = True
        if self.scheduler is not None:
            await asyncio.to_thread(self.scheduler.stop)
        await super().stop()
        self.service.close(wait=False)

    def _make_session(self) -> Session:
        return self.service.make_session()

    async def _offload(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on a plain thread, off the event loop.

        A failure is framed, never fatal: it raises :class:`Refusal`
        with an ``ERR`` naming the exception, and a storage-stack
        failure also counts as ``server.io_errors``.  A draining server
        starts no new work.
        """
        if self._draining:
            raise Refusal(_SHUTTING_DOWN)
        try:
            return await asyncio.to_thread(fn, *args)
        except Exception as exc:  # noqa: BLE001 - framed, never fatal
            self.registry.bump("server.errors")
            if isinstance(exc, STORAGE_ERRORS):
                self.registry.bump("server.io_errors")
            message = str(exc)
            if isinstance(exc, (KeyError, ValueError)):
                message = message.strip("'\"")
            raise Refusal(error_reply(type(exc).__name__, message)) \
                from exc

    # -- the QUERY path ------------------------------------------------------

    async def _handle_query(self, conn: _Connection, text: str) -> Response:
        self.registry.bump("server.queries")
        try:
            normalized = normalize_query(text)
        except PsqlError as exc:
            return error_reply(type(exc).__name__, str(exc))
        log_text = (None if normalized.startswith("explain ")
                    else normalized)
        return await self._run_query_job(
            conn, normalized,
            lambda: self.service.submit(
                text, conn.binary, lambda: conn.session.execute(text)),
            log_text=log_text)

    async def _run_query_job(self, conn: _Connection, cache_key,
                             submit, log_text: Optional[str] = None,
                             ) -> Response:
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
            return result_reply("cached", generation, cached)

        if self._draining:
            return _SHUTTING_DOWN
        if self._inflight >= self.config.effective_max_inflight():
            self.registry.bump("server.busy_rejections")
            return Response("busy", error_message=(
                f"{self._inflight} queries in flight "
                f"(limit {self.config.effective_max_inflight()}); "
                f"retry later"))

        loop = asyncio.get_running_loop()
        self._inflight += 1
        future = submit()
        timeout = self.config.query_timeout
        try:
            outcome = await asyncio.wait_for(
                asyncio.wrap_future(future),
                timeout if timeout > 0 else None)
        except asyncio.TimeoutError:
            # Abandon: a not-yet-started task is cancelled outright; a
            # running one keeps its slot until it actually finishes —
            # that is the truthful admission-control signal.
            cancel_event = getattr(future, "cancel_event", None)
            if cancel_event is not None:
                cancel_event.set()
            future.cancel()
            self.registry.bump("server.timeouts")
            return Response("timeout",
                            error_message=f"query exceeded {timeout:g}s")
        except asyncio.CancelledError:
            future.cancel()
            raise
        finally:
            # A finished query's slot is freed a loop step after this one,
            # in which send() raises _active_responses: no drain between.
            future.add_done_callback(
                lambda _f: loop.call_soon_threadsafe(self._release_slot))

        if outcome.cancelled:
            # Raced a shutdown/cancel before starting; treat as shed load.
            self.registry.bump("server.busy_rejections")
            return Response("busy",
                            error_message="cancelled before execution")
        if not outcome.ok:
            self.registry.bump("server.errors")
            if outcome.io_fault:
                self.registry.bump("server.io_errors")
            return error_reply(outcome.error_kind, outcome.error_message)

        self.registry.counters.merge(outcome.counters)
        self.registry.bump("server.queries.executed")
        self.registry.bump("server.rows_returned", outcome.result.nrows)
        self.cache.store(cache_key, generation, outcome.result)
        return result_reply("fresh", generation, outcome.result)

    def _release_slot(self) -> None:
        self._inflight -= 1

    # -- the PREPARE / EXECUTE path -------------------------------------------

    async def _handle_prepare(self, conn: _Connection,
                              template: str) -> Response:
        """``PREPARE <template>`` — register a ``?``-placeholder query.

        Nothing is parsed yet (a bare ``?`` is not valid PSQL); the
        reply carries the statement id in the header's count field
        (text: ``OK prepare <generation> <statement-id>``).
        """
        template = template.strip()
        if not template:
            return protocol_error("usage: PREPARE <query template>")
        stmt = conn.session.prepare(template)
        self.registry.bump("server.prepares")
        return Response("ok", generation=self.generation,
                        nrows=stmt.statement_id, disposition="prepare",
                        stats={"statement.nparams": stmt.nparams})

    async def _handle_execute(self, conn: _Connection,
                              args: tuple[int, tuple[str, ...]],
                              ) -> Response:
        """Bind + run one prepared execution through the QUERY pipeline.

        The result cache is keyed on ``(template, params)`` directly —
        no :func:`normalize_query` lexer pass — which is what makes a
        cached prepared read the cheapest request the server answers.
        Cache hits are not recorded in the workload log for the same
        reason (fingerprinting would re-tokenise the text).
        """
        statement_id, params = args
        self.registry.bump("server.queries")
        self.registry.bump("server.executes")
        try:
            stmt = conn.session.prepared(statement_id)
        except PsqlError as exc:
            return error_reply("PsqlError", str(exc))
        if len(params) != stmt.nparams:
            return error_reply(
                "PsqlError",
                f"prepared statement {statement_id} takes "
                f"{stmt.nparams} parameter(s), got {len(params)}")
        # A tuple key: no string building per request, and structurally
        # distinct from every normalize_query() text key.
        cache_key = (stmt.text, params)
        return await self._run_query_job(
            conn, cache_key,
            lambda: self.service.submit(
                stmt.substitute(params), conn.binary,
                lambda: conn.session.execute_prepared(statement_id, params)))

    # -- the REPACK path -----------------------------------------------------

    async def _handle_repack(self, conn: _Connection, rest: str) -> Response:
        """``REPACK <picture> <relation> [column]`` — offline rebuild.

        The rebuild runs on a plain thread (it is long, I/O-heavy and
        must not occupy a query-pool slot or the event loop); queries
        keep flowing meanwhile and only block briefly at the atomic
        swap.  On success the reply is ``OK repack <generation>
        <entries>``, where *generation* is the post-bump value every
        later cache entry will be keyed on.
        """
        parts = rest.split()
        if len(parts) not in (2, 3):
            return protocol_error(
                "usage: REPACK <picture> <relation> [column]")
        picture, relation = parts[0], parts[1]
        column = parts[2] if len(parts) == 3 else "loc"
        self.registry.bump("server.repacks")
        entries = await self._offload(self.service.rebuild_index, picture,
                                      relation, column)
        generation = self.generation
        dropped = self.cache.drop_stale(generation)
        self.registry.bump("server.repacks.completed")
        self.registry.bump("server.cache.repack_dropped", dropped)
        return ack_reply("repack", generation, entries)

    async def _handle_maintain(self, conn: _Connection,
                               rest: str) -> Response:
        """``MAINTAIN [on|off|status|run]`` — the background repack daemon.

        ``on``/``off`` toggle the scheduler and answer ``OK maintain
        <generation> <enabled>``; ``status`` (the default) and ``run``
        (one synchronous cycle, useful in tests and benchmarks) answer a
        one-column report, so the cluster router can merge per-shard
        sections the way it does for ADVISE/HEALTH.
        """
        action = rest.strip().lower() or "status"
        if action not in ("on", "off", "status", "run"):
            return protocol_error("usage: MAINTAIN [on|off|status|run]")
        if self.scheduler is None:
            return error_reply(
                "ValueError",
                "maintenance requires the thread executor (process "
                "workers hold their own catalog copies)")
        self.registry.bump("server.maintains")
        if action == "on":
            self.scheduler.enable()
            return ack_reply("maintain", self.generation, 1)
        if action == "off":
            self.scheduler.disable()
            return ack_reply("maintain", self.generation, 0)
        if action == "run":
            actions = await self._offload(self.scheduler.run_now)
            lines = [a.describe() for a in actions] or ["no indexes"]
            return self._report(conn, "maintain", lines)
        return self._report(conn, "maintain", self.scheduler.status_lines())

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

    # -- the ADVISE / HEALTH / STATS paths ------------------------------------

    async def _handle_advise(self, conn: _Connection, rest: str) -> Response:
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
                return protocol_error("usage: ADVISE [top-n]")
        self.registry.bump("server.advises")
        lines = await self._offload(self._advise_lines, top)
        return self._report(conn, "advise", lines)

    def _advise_lines(self, top: int) -> list[str]:
        from repro.advisor import advise, format_advise
        log = self.service.query_log
        if log is None:
            return ["workload capture is disabled on this server "
                    "(process executor or capture=False); "
                    "nothing to advise on"]
        return format_advise(advise(self.service.db, log, top=top))

    async def _handle_health(self, conn: _Connection, rest: str) -> Response:
        """``HEALTH`` — graded checks over live stats and the catalog."""
        self.registry.bump("server.healths")
        lines = await self._offload(self._health_lines, self.stats())
        return self._report(conn, "health", lines)

    def _health_lines(self, stats: dict[str, float]) -> list[str]:
        from repro.advisor import format_health, run_health_checks
        return format_health(run_health_checks(self.service.db,
                                               stats=stats))

    async def _handle_stats(self, conn: _Connection, rest: str) -> Response:
        return Response("ok", generation=self.generation,
                        disposition="stats", stats=self.stats())

    VERBS: dict[str, Verb] = {
        "QUERY": Verb(_handle_query),
        # EXPLAIN [ANALYZE] <query> — same pipeline as QUERY
        # (normalisation, cache, admission, framing); the session turns
        # the plan into a one-column result.
        "EXPLAIN": Verb(lambda self, conn, rest:
                        self._handle_query(conn, "explain " + rest)),
        "PREPARE": Verb(_handle_prepare),
        "EXECUTE": Verb(_handle_execute),
        "REPACK": Verb(_handle_repack, mutating=True),
        "MAINTAIN": Verb(_handle_maintain),
        "ADVISE": Verb(_handle_advise),
        "HEALTH": Verb(_handle_health),
        "STATS": Verb(_handle_stats),
        **ProtocolServer.VERBS,
    }

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
