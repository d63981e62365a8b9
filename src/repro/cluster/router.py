"""The scatter-gather router: one endpoint over a sharded cluster.

The router speaks the same line protocol as a single
:class:`~repro.server.server.PsqlServer`, so every existing client
works unchanged — point it at the router and ``QUERY``/``EXPLAIN``/
``REPACK``/``ADVISE``/``HEALTH``/``STATS``/``PING`` behave as before,
plus the cluster verbs ``INSERT``/``DELETE``/``KNN``.  Per command:

- ``QUERY``: :func:`~repro.cluster.routing.plan_route` classifies the
  text; window queries go only to shards the window overlaps, the rest
  broadcast.  Each target shard runs the gid-rewritten text; answers are
  unioned, deduplicated on gid and sorted
  (:func:`~repro.cluster.routing.merge_rows`).
- ``EXPLAIN``: scattered like the query it wraps; per-shard plans come
  back stitched by :func:`~repro.psql.planner.merge_shard_plans`.
- ``INSERT``: the router assigns the next gid, then stores the row on
  *every* primary whose key range its geometry overlaps (the
  duplicated-storage invariant queries rely on).  ``DELETE`` broadcasts.
- ``KNN``: every shard answers its local k best; the router keeps the
  global k smallest ``(distance, gid)``.
- ``ADVISE``/``HEALTH``: broadcast to every primary; each shard's
  advisor report comes back stitched under per-shard headers (the same
  shape as routed ``EXPLAIN``), so degradation on *one* shard stays
  attributable.  Never cached — reports reflect live counters.

**Read routing.**  Each shard may have log-shipped replicas.  Reads
rotate over the primary and every replica whose reported lag is within
``replica_lag_threshold`` commits (default 0: only fully caught-up
replicas serve reads); replica health is refreshed from its ``STATS``
when older than ``health_interval`` seconds (0 = before every read,
which is what the deterministic tests use).

**Result cache.**  Merged results are cached under
``(normalized text, generation token)`` where the token is the sorted
tuple of every target backend's last-known data generation.  Any
acknowledged mutation or ``REPACK`` on any target shard changes that
backend's generation and thus the token — a repack on one shard can
never serve a stale merged result (the generations are learned from
every response header, including repack and mutation acks).

**Degradation.**  A dead backend answers the affected command with
``BUSY`` (clients already treat that as retry-after-backoff); inserts
are idempotent by gid, so a retried partially-applied insert converges.
One-shard failures never take down queries whose windows miss it.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro import obs
from repro.psql.errors import PsqlError
from repro.psql.planner import merge_shard_plans
from repro.psql.result import QueryResult
from repro.relational.rowcodec import decode_row, encode_row
from repro.server import binproto, protocol
from repro.server.cache import QueryCache
from repro.server.protocol import Response
from repro.cluster.dataset import GID_COLUMN, ClusterDataset
from repro.cluster.partition import ShardMap
from repro.cluster.routing import (ClusterRoutingError, merge_knn,
                                   merge_rows, plan_route, shard_targets)

__all__ = ["BackendDownError", "BackendSpec", "Router", "RouterConfig"]


def _encode_rows(columns: Sequence[str],
                 rows: Sequence[tuple[str, ...]]) -> list[str]:
    """Payload lines for merged rows.

    Backend rows arrive as already-formatted strings, which
    :func:`~repro.server.protocol.encode_result` passes through
    unchanged: router output stays byte-compatible with a single
    server's rendering of the same rows.
    """
    return protocol.encode_result(QueryResult(tuple(columns), rows))


class BackendDownError(Exception):
    """A backend connection failed; the command was not completed."""


@dataclass(frozen=True)
class BackendSpec:
    """Address and role of one cluster node the router talks to."""

    name: str          #: e.g. "shard0", "shard1-replica0"
    host: str
    port: int
    shard_id: int
    role: str          #: "primary" or "replica"


@dataclass
class RouterConfig:
    """Router parameters (mirrors :class:`~repro.server.server.ServerConfig`
    where the concepts overlap)."""

    host: str = "127.0.0.1"
    port: int = 0                      #: 0 picks an ephemeral port
    cache_size: int = 256              #: 0 disables the merged-result cache
    query_timeout: float = 30.0        #: per-backend roundtrip bound
    #: replicas may serve reads while at most this many commits behind
    replica_lag_threshold: float = 0.0
    #: seconds between replica STATS health refreshes (0 = every read)
    health_interval: float = 0.0
    drain_timeout: float = 5.0
    #: negotiate the binary protocol (``HELLO bin``) on upstream shard
    #: connections; shards that predate it answer ERR and the backend
    #: silently stays on the text protocol.  The router's *client-facing*
    #: side is text-only either way.
    binary_upstream: bool = True


class _Backend:
    """One router-side connection to a shard or replica server.

    The router keeps a single multiplexed connection per backend; a
    per-backend asyncio lock serialises roundtrips on it.  Connection
    failures drop the socket and surface as :class:`BackendDownError`;
    the next command lazily reconnects, so a restarted shard heals
    without router intervention.
    """

    def __init__(self, spec: BackendSpec, binary: bool = True):
        self.spec = spec
        self.lock = asyncio.Lock()
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        #: negotiate the binary protocol when (re)connecting
        self.binary_wanted = binary
        #: True once ``HELLO bin`` was acked on the live connection
        self.binary = False
        #: last data generation seen in any response header from this
        #: backend (-1 until the first response) — the cache-token input.
        self.generation = -1
        #: replicas: commits behind the primary at last health refresh
        self.lag_commits: Optional[float] = None
        self.health_at = float("-inf")
        self.queries = 0
        self.failures = 0

    async def roundtrip(self, command: str, timeout: float) -> Response:
        async with self.lock:
            try:
                if self.writer is None:
                    self.reader, self.writer = await asyncio.wait_for(
                        asyncio.open_connection(self.spec.host,
                                                self.spec.port),
                        timeout)
                    self.binary = False
                    if self.binary_wanted:
                        await self._negotiate_binary(timeout)
                if self.binary:
                    response = await self._binary_roundtrip(command, timeout)
                else:
                    await self._send_line(command, timeout)
                    response = await self._read_text_response(timeout)
            except (OSError, EOFError, asyncio.TimeoutError,
                    protocol.ProtocolError) as exc:
                self.failures += 1
                await self._drop()
                raise BackendDownError(
                    f"backend {self.spec.name}: {exc}") from exc
            self.queries += 1
            if response.generation >= 0:
                self.generation = response.generation
            return response

    async def _negotiate_binary(self, timeout: float) -> None:
        """Offer ``HELLO bin``; an ERR (pre-HELLO shard) keeps text."""
        await self._send_line("HELLO bin", timeout)
        response = await self._read_text_response(timeout)
        if response.ok:
            self.binary = True

    async def _send_line(self, command: str, timeout: float) -> None:
        self.writer.write(command.encode("utf-8") + b"\n")
        await asyncio.wait_for(self.writer.drain(), timeout)

    async def _read_text_response(self, timeout: float) -> Response:
        lines: list[str] = []
        while True:
            raw = await asyncio.wait_for(self.reader.readline(), timeout)
            if not raw:
                raise ConnectionResetError("backend closed")
            line = raw.decode("utf-8").rstrip("\n")
            lines.append(line)
            if line == protocol.END:
                break
        return protocol.parse_response(lines)

    async def _binary_roundtrip(self, command: str,
                                timeout: float) -> Response:
        # OP_COMMAND carries the full text verb line, so every router
        # upstream verb (QUERY/KNN/INSERT/...) works without per-verb
        # binary encodings.
        self.writer.write(binproto.encode_command(command))
        await asyncio.wait_for(self.writer.drain(), timeout)
        prefix = await asyncio.wait_for(self.reader.readexactly(4), timeout)
        length = int.from_bytes(prefix, "little")
        if length == 0 or length > binproto.MAX_FRAME:
            raise protocol.ProtocolError(
                f"implausible frame length {length} from backend")
        body = await asyncio.wait_for(self.reader.readexactly(length),
                                      timeout)
        return binproto.parse_response_body(body)

    async def _drop(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = None
        self.writer = None
        self.binary = False


class Router:
    """The scatter-gather tier: one protocol endpoint, many shards.

    Args:
        config: router parameters.
        dataset: the cluster dataset (for schemas, pictorial columns and
            the gid counter — the router never touches row storage).
        shardmap: the key-range partitioning all nodes agree on.
        backends: every cluster node, primaries and replicas.
    """

    def __init__(self, config: RouterConfig, dataset: ClusterDataset,
                 shardmap: ShardMap, backends: Sequence[BackendSpec]):
        self.config = config
        self.dataset = dataset
        self.shardmap = shardmap
        self.cache = QueryCache(capacity=config.cache_size)
        self.registry = obs.Registry()
        self.next_gid = dataset.next_gid
        self._primaries: dict[int, _Backend] = {}
        self._replicas: dict[int, list[_Backend]] = {}
        self._backends: list[_Backend] = []
        for spec in backends:
            backend = _Backend(spec, binary=config.binary_upstream)
            self._backends.append(backend)
            if spec.role == "primary":
                if spec.shard_id in self._primaries:
                    raise ValueError(
                        f"two primaries for shard {spec.shard_id}")
                self._primaries[spec.shard_id] = backend
            elif spec.role == "replica":
                self._replicas.setdefault(spec.shard_id, []).append(backend)
            else:
                raise ValueError(f"unknown backend role {spec.role!r}")
        for sid in range(shardmap.nshards):
            if sid not in self._primaries:
                raise ValueError(f"no primary for shard {sid}")
        self._rr: dict[int, int] = {sid: 0 for sid in self._primaries}
        self._client_writers: set[asyncio.StreamWriter] = set()
        self.port: Optional[int] = None
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._started_at = time.monotonic()
        # Background-thread plumbing, same shape as PsqlServer's.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._thread_ready = threading.Event()
        self._thread_error: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._started_at = time.monotonic()
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port)
        self.port = self._asyncio_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        await self.start()
        assert self._asyncio_server is not None
        try:
            await self._asyncio_server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    async def stop(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        for writer in list(self._client_writers):
            writer.close()
        # Let the connection handlers observe EOF and exit before the
        # loop tears down (avoids cancel noise from blocked readlines).
        await asyncio.sleep(0)
        for backend in self._backends:
            await backend._drop()

    def start_background(self, timeout: float = 30.0) -> tuple[str, int]:
        """Run the router's event loop on a daemon thread; returns
        ``(host, port)`` once bound (see
        :meth:`repro.server.server.PsqlServer.start_background`)."""
        if self._thread is not None:
            raise RuntimeError("router already running in background")
        self._thread = threading.Thread(target=self._thread_main,
                                        name="cluster-router", daemon=True)
        self._thread.start()
        if not self._thread_ready.wait(timeout):
            raise RuntimeError("router failed to start within timeout")
        if self._thread_error is not None:
            raise RuntimeError("router failed to start") \
                from self._thread_error
        assert self.port is not None
        return self.config.host, self.port

    def stop_background(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_requested is not None:
            loop, stop = self._loop, self._stop_requested
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass
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
        self.registry.bump("router.sessions.opened")
        self._client_writers.add(writer)
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
                    await self._write(writer, [protocol.BYE, protocol.END])
                    break
                await self._dispatch(writer, verb, rest)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._client_writers.discard(writer)
            self.registry.bump("router.sessions.closed")
            writer.close()

    async def _dispatch(self, writer: asyncio.StreamWriter, verb: str,
                        rest: str) -> None:
        if verb == "QUERY":
            await self._handle_query(writer, rest)
        elif verb == "EXPLAIN":
            await self._handle_query(writer, "explain " + rest)
        elif verb == "KNN":
            await self._handle_knn(writer, rest)
        elif verb == "INSERT":
            await self._handle_insert(writer, rest)
        elif verb == "DELETE":
            await self._handle_delete(writer, rest)
        elif verb == "REPACK":
            await self._handle_repack(writer, rest)
        elif verb == "MAINTAIN":
            await self._handle_maintain(writer, rest)
        elif verb == "ADVISE":
            await self._handle_advise(writer, rest)
        elif verb == "HEALTH":
            await self._handle_health(writer)
        elif verb in ("STATS", "METRICS"):
            await self._handle_stats(writer)
        elif verb == "PING":
            await self._write(writer, [protocol.PONG, protocol.END])
        else:
            await self._error(
                writer, "ProtocolError",
                f"unknown command {verb!r} (try QUERY/EXPLAIN/KNN/INSERT/"
                f"DELETE/REPACK/MAINTAIN/ADVISE/HEALTH/STATS/PING/QUIT)")

    # -- read routing --------------------------------------------------------

    async def _read_backend(self, shard_id: int) -> _Backend:
        """The backend that should serve the next read for *shard_id*.

        Rotates over the primary and every replica within the lag
        threshold, so cached reads spread across the replica set while
        stale replicas silently drop out of rotation.
        """
        primary = self._primaries[shard_id]
        pool = [primary]
        for replica in self._replicas.get(shard_id, ()):
            await self._refresh_health(replica)
            if (replica.lag_commits is not None
                    and replica.lag_commits
                    <= self.config.replica_lag_threshold):
                pool.append(replica)
        choice = pool[self._rr[shard_id] % len(pool)]
        self._rr[shard_id] += 1
        if choice.spec.role == "replica":
            self.registry.bump("router.reads.replica")
        else:
            self.registry.bump("router.reads.primary")
        return choice

    async def _refresh_health(self, replica: _Backend) -> None:
        now = time.monotonic()
        if now - replica.health_at < self.config.health_interval:
            return
        try:
            response = await replica.roundtrip(
                "STATS", self.config.query_timeout)
        except BackendDownError:
            replica.lag_commits = None      # down = never eligible
            replica.health_at = now
            return
        replica.lag_commits = response.stats.get(
            "cluster.replica.commits_behind")
        generation = response.stats.get("server.generation")
        if generation is not None:
            replica.generation = int(generation)
        replica.health_at = now

    def _gen_token(self, targets: Sequence[int]) -> tuple:
        """The cache-key token: every target backend's last generation.

        Includes primaries *and* replicas of every target shard, so a
        cached merged result stops being addressable as soon as any
        node that could have contributed to — or could now serve — the
        query has changed data (or been repacked).
        """
        parts = []
        for sid in sorted(targets):
            parts.append((self._primaries[sid].spec.name,
                          self._primaries[sid].generation))
            for replica in self._replicas.get(sid, ()):
                parts.append((replica.spec.name, replica.generation))
        return tuple(parts)

    # -- QUERY / EXPLAIN -----------------------------------------------------

    async def _handle_query(self, writer: asyncio.StreamWriter,
                            text: str) -> None:
        self.registry.bump("router.queries")
        try:
            plan = plan_route(text)
        except ClusterRoutingError as exc:
            self.registry.bump("router.rejected")
            await self._error(writer, "ClusterRoutingError", str(exc))
            return
        except PsqlError as exc:
            await self._error(writer, type(exc).__name__, str(exc))
            return
        targets = shard_targets(plan, self.shardmap)
        token = self._gen_token(targets)
        cached = self.cache.get(plan.normalized, token)
        if cached is not None:
            self.registry.bump("router.queries.cached")
            await self._write(
                writer,
                [f"{protocol.OK} cached 0 {cached.nrows}", *cached.payload])
            return
        backends = [await self._read_backend(sid) for sid in targets]
        responses = await asyncio.gather(
            *(b.roundtrip(f"QUERY {plan.rewritten}",
                          self.config.query_timeout) for b in backends),
            return_exceptions=True)
        if not await self._scatter_ok(writer, backends, responses):
            return
        if plan.explain:
            labels = [f"shard {b.spec.shard_id} ({b.spec.name})"
                      for b in backends]
            lines = merge_shard_plans(
                labels, [[row[0] for row in r.rows] for r in responses])
            columns: tuple[str, ...] = ("plan",)
            rows: list[tuple] = [(line,) for line in lines]
        else:
            columns, rows = merge_rows([r.columns for r in responses],
                                       [r.rows for r in responses],
                                       plan.ngid)
        payload = _encode_rows(columns, rows)
        self.cache.put(plan.normalized, token, payload, len(rows))
        self.registry.bump("router.queries.executed")
        self.registry.bump("router.rows_returned", len(rows))
        await self._write(
            writer, [f"{protocol.OK} fresh 0 {len(rows)}", *payload])

    async def _scatter_ok(self, writer: asyncio.StreamWriter,
                          backends: Sequence[_Backend],
                          responses: Sequence) -> bool:
        """Shared failure handling for scattered commands.

        Returns True when every backend answered OK; otherwise writes
        the degraded response (BUSY for dead/overloaded backends,
        TIMEOUT/ERR propagated from the first failing shard) and
        returns False.
        """
        for backend, response in zip(backends, responses):
            if isinstance(response, BackendDownError):
                self.registry.bump("router.backend_down")
                await self._write(
                    writer,
                    [f"{protocol.BUSY} " + protocol.escape(
                        f"{backend.spec.name} unavailable ({response}); "
                        f"retry later"),
                     protocol.END])
                return False
            if isinstance(response, BaseException):
                raise response
        for response in responses:
            if response.status == "busy":
                self.registry.bump("router.backend_busy")
                await self._write(
                    writer,
                    [f"{protocol.BUSY} " + protocol.escape(
                        response.error_message or "shard busy"),
                     protocol.END])
                return False
            if response.status == "timeout":
                await self._write(
                    writer,
                    [f"{protocol.TIMEOUT} " + protocol.escape(
                        response.error_message or "shard timeout"),
                     protocol.END])
                return False
            if response.status == "error":
                await self._error(writer, response.error_kind or "Error",
                                  response.error_message)
                return False
        return True

    # -- KNN -----------------------------------------------------------------

    async def _handle_knn(self, writer: asyncio.StreamWriter,
                          rest: str) -> None:
        self.registry.bump("router.knn")
        normalized = "knn " + " ".join(rest.split())
        targets = self.shardmap.all_shards()
        token = self._gen_token(targets)
        cached = self.cache.get(normalized, token)
        if cached is not None:
            self.registry.bump("router.queries.cached")
            await self._write(
                writer,
                [f"{protocol.OK} cached 0 {cached.nrows}", *cached.payload])
            return
        parts = rest.split()
        if len(parts) not in (5, 6):
            await self._error(
                writer, "ProtocolError",
                "usage: KNN <picture> <relation> <x> <y> <k> [column]")
            return
        try:
            k = int(parts[4])
        except ValueError:
            await self._error(writer, "ProtocolError",
                              f"bad k {parts[4]!r}")
            return
        backends = [await self._read_backend(sid) for sid in targets]
        responses = await asyncio.gather(
            *(b.roundtrip(f"KNN {' '.join(parts)}",
                          self.config.query_timeout) for b in backends),
            return_exceptions=True)
        if not await self._scatter_ok(writer, backends, responses):
            return
        per_shard = [[(float(d), int(g)) for d, g in r.rows]
                     for r in responses]
        merged = merge_knn(per_shard, k)
        rows = [(protocol.format_value(float(d)), str(g))
                for d, g in merged]
        payload = _encode_rows(("distance", "gid"), rows)
        self.cache.put(normalized, token, payload, len(rows))
        self.registry.bump("router.rows_returned", len(rows))
        await self._write(
            writer, [f"{protocol.OK} fresh 0 {len(rows)}", *payload])

    # -- mutations -----------------------------------------------------------

    async def _handle_insert(self, writer: asyncio.StreamWriter,
                             rest: str) -> None:
        parts = rest.split()
        if len(parts) != 2:
            await self._error(writer, "ProtocolError",
                              "usage: INSERT <relation> <hexrow>")
            return
        relation_name, hexrow = parts
        try:
            relation = self.dataset.relation(relation_name)
        except KeyError as exc:
            await self._error(writer, "KeyError", str(exc).strip("'\""))
            return
        try:
            row = decode_row(bytes.fromhex(hexrow))
        except ValueError as exc:
            await self._error(writer, "ProtocolError",
                              f"bad row payload: {exc}")
            return
        if GID_COLUMN in row:
            gid = int(row[GID_COLUMN])     # client retry with a known gid
            self.next_gid = max(self.next_gid, gid + 1)
        else:
            gid = self.next_gid
            self.next_gid += 1
            row = {GID_COLUMN: gid, **row}
        targets = self._placement(relation, row)
        self.registry.bump("router.inserts")
        backends = [self._primaries[sid] for sid in targets]
        command = f"INSERT {relation_name} {encode_row(row).hex()}"
        responses = await asyncio.gather(
            *(b.roundtrip(command, self.config.query_timeout)
              for b in backends),
            return_exceptions=True)
        for backend, response in zip(backends, responses):
            if isinstance(response, BackendDownError):
                self.registry.bump("router.backend_down")
                await self._write(
                    writer,
                    [f"{protocol.BUSY} " + protocol.escape(
                        f"{backend.spec.name} unavailable; insert may be "
                        f"partial — retry with gid {gid} (idempotent)"),
                     protocol.END])
                return
            if isinstance(response, BaseException):
                raise response
        for response in responses:
            if not response.ok:
                await self._error(writer, response.error_kind or "Error",
                                  response.error_message)
                return
        await self._write(
            writer, [f"{protocol.OK} insert 0 {gid}", protocol.END])

    def _placement(self, relation, row: dict) -> list[int]:
        """The primary shards that must store *row* (duplicated storage:
        every shard any pictorial value's MBR overlaps)."""
        from repro.relational.catalog import mbr_of_value

        pictorial = [c for c in relation.columns if c.is_pictorial]
        if not pictorial:
            return self.shardmap.all_shards()
        targets: set[int] = set()
        for col in pictorial:
            targets.update(
                self.shardmap.shards_for_rect(mbr_of_value(row[col.name])))
        return sorted(targets)

    async def _handle_delete(self, writer: asyncio.StreamWriter,
                             rest: str) -> None:
        parts = rest.split()
        if len(parts) != 2:
            await self._error(writer, "ProtocolError",
                              "usage: DELETE <relation> <gid>")
            return
        relation_name, gid_text = parts
        try:
            gid = int(gid_text)
        except ValueError:
            await self._error(writer, "ProtocolError",
                              f"bad gid {gid_text!r}")
            return
        self.registry.bump("router.deletes")
        backends = [self._primaries[sid]
                    for sid in self.shardmap.all_shards()]
        responses = await asyncio.gather(
            *(b.roundtrip(f"DELETE {relation_name} {gid}",
                          self.config.query_timeout) for b in backends),
            return_exceptions=True)
        if not await self._scatter_ok(writer, backends, responses):
            return
        deleted = int(any(r.nrows for r in responses))
        await self._write(
            writer, [f"{protocol.OK} delete 0 {deleted}", protocol.END])

    async def _handle_repack(self, writer: asyncio.StreamWriter,
                             rest: str) -> None:
        self.registry.bump("router.repacks")
        backends = [self._primaries[sid]
                    for sid in self.shardmap.all_shards()]
        responses = await asyncio.gather(
            *(b.roundtrip(f"REPACK {rest}", self.config.query_timeout)
              for b in backends),
            return_exceptions=True)
        if not await self._scatter_ok(writer, backends, responses):
            return
        entries = sum(r.nrows for r in responses)
        await self._write(
            writer, [f"{protocol.OK} repack 0 {entries}", protocol.END])

    async def _handle_maintain(self, writer: asyncio.StreamWriter,
                               rest: str) -> None:
        """``MAINTAIN ...`` fan-out over every primary.

        ``on``/``off`` scatter the toggle and ack with the count of
        shards now enabled; ``status`` and ``run`` broadcast like the
        advisor verbs, stitching per-shard report sections.
        """
        self.registry.bump("router.maintains")
        action = rest.strip().lower() or "status"
        if action not in ("on", "off", "status", "run"):
            await self._error(writer, "ProtocolError",
                              "usage: MAINTAIN [on|off|status|run]")
            return
        if action in ("status", "run"):
            await self._broadcast_report(writer, f"MAINTAIN {action}",
                                         "maintain")
            return
        backends = [self._primaries[sid]
                    for sid in self.shardmap.all_shards()]
        responses = await asyncio.gather(
            *(b.roundtrip(f"MAINTAIN {action}", self.config.query_timeout)
              for b in backends),
            return_exceptions=True)
        if not await self._scatter_ok(writer, backends, responses):
            return
        enabled = sum(r.nrows for r in responses)
        await self._write(
            writer, [f"{protocol.OK} maintain 0 {enabled}", protocol.END])

    # -- ADVISE / HEALTH -----------------------------------------------------

    async def _handle_advise(self, writer: asyncio.StreamWriter,
                             rest: str) -> None:
        self.registry.bump("router.advises")
        rest = rest.strip()
        command = f"ADVISE {rest}" if rest else "ADVISE"
        await self._broadcast_report(writer, command, "advise")

    async def _handle_health(self, writer: asyncio.StreamWriter) -> None:
        self.registry.bump("router.healths")
        await self._broadcast_report(writer, "HEALTH", "health")

    async def _broadcast_report(self, writer: asyncio.StreamWriter,
                                command: str, column: str) -> None:
        """Scatter an advisor verb to every primary and stitch the
        per-shard report lines under shard headers.

        Reports are never cached: they summarise live counters and the
        shard's current workload log, so a cached copy would go stale
        without any generation bump to invalidate it.
        """
        backends = [self._primaries[sid]
                    for sid in self.shardmap.all_shards()]
        responses = await asyncio.gather(
            *(b.roundtrip(command, self.config.query_timeout)
              for b in backends),
            return_exceptions=True)
        if not await self._scatter_ok(writer, backends, responses):
            return
        labels = [f"shard {b.spec.shard_id} ({b.spec.name})"
                  for b in backends]
        lines = merge_shard_plans(
            labels, [[row[0] for row in r.rows] for r in responses])
        payload = _encode_rows((column,), [(line,) for line in lines])
        await self._write(
            writer, [f"{protocol.OK} fresh 0 {len(lines)}", *payload])

    # -- STATS ---------------------------------------------------------------

    async def _handle_stats(self, writer: asyncio.StreamWriter) -> None:
        out: dict[str, float] = {}
        for name, value in self.registry.counters.as_dict().items():
            out[name] = float(value)
        out.update({k.replace("server.cache.", "router.cache."): v
                    for k, v in self.cache.stats().items()})
        uptime = max(time.monotonic() - self._started_at, 1e-9)
        out["router.uptime_seconds"] = uptime
        out["router.qps"] = out.get("router.queries", 0.0) / uptime
        out["router.shards"] = float(self.shardmap.nshards)
        out["router.backends"] = float(len(self._backends))
        out["router.next_gid"] = float(self.next_gid)
        for backend in self._backends:
            prefix = f"backend.{backend.spec.name}."
            out[prefix + "up"] = 0.0
            try:
                response = await backend.roundtrip(
                    "STATS", self.config.query_timeout)
            except BackendDownError:
                continue
            out[prefix + "up"] = 1.0
            for key in ("server.generation", "server.queries",
                        "server.qps", "server.cache.hit_rate",
                        "cluster.shard_id", "cluster.is_primary",
                        "cluster.replica.applied_commits",
                        "cluster.replica.primary_commits",
                        "cluster.replica.commits_behind",
                        "cluster.replica.lag_seconds"):
                if key in response.stats:
                    out[prefix + key] = response.stats[key]
        await self._write(writer, protocol.encode_stats(out))

    # -- frame writing -------------------------------------------------------

    async def _write(self, writer: asyncio.StreamWriter,
                     lines: Sequence[str]) -> None:
        writer.write(("\n".join(lines) + "\n").encode("utf-8"))
        await writer.drain()

    async def _error(self, writer: asyncio.StreamWriter, kind: str,
                     message: str) -> None:
        await self._write(
            writer,
            [f"{protocol.ERR} {kind} {protocol.escape(message)}",
             protocol.END])
