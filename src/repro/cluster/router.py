"""The scatter-gather router: one endpoint over a sharded cluster.

The router runs the same protocol core as a single
:class:`~repro.server.server.PsqlServer` — one connection loop, both
codecs (``HELLO bin`` included), one verb table — so every existing
client works unchanged: point it at the router and ``QUERY``/
``EXPLAIN``/``REPACK``/``ADVISE``/``HEALTH``/``STATS``/``PING`` behave
as before, plus the cluster verbs ``INSERT``/``DELETE``/``KNN``.  Per
command:

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

Upstream, the router keeps one binary connection per shard or replica
and carries every verb as an ``OP_COMMAND`` frame.

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
every response header, including repack and mutation acks).  Entries
hold the rendering of the connection that produced them, like the
server's, and derive the other codec's on demand.

**Degradation.**  A dead backend answers the affected command with
``BUSY`` (clients already treat that as retry-after-backoff); inserts
are idempotent by gid, so a retried partially-applied insert converges.
One-shard failures never take down queries whose windows miss it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.psql.errors import PsqlError
from repro.psql.planner import merge_shard_plans
from repro.psql.result import QueryResult
from repro.relational.rowcodec import encode_row
from repro.server import binproto, protocol
from repro.server.cache import CachedResult, QueryCache
from repro.server.client import TEXT_END
from repro.server.protocol import (Response, ack_reply, error_reply,
                                   result_reply)
from repro.server.server import (ProtocolServer, Refusal, Verb,
                                 _Connection, read_frame)
from repro.cluster.dataset import GID_COLUMN, ClusterDataset
from repro.cluster.partition import ShardMap
from repro.cluster.routing import (ClusterRoutingError, merge_knn,
                                   merge_rows, plan_route, shard_targets)
from repro.cluster.shardserver import parse_delete, parse_insert, parse_knn

__all__ = ["BackendDownError", "BackendSpec", "Router", "RouterConfig"]


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


class _Backend:
    """One router-side binary connection to a shard or replica server.

    The router keeps a single multiplexed connection per backend; a
    per-backend asyncio lock serialises roundtrips on it.  Connection
    failures drop the socket and surface as :class:`BackendDownError`;
    the next command lazily reconnects (negotiating ``HELLO bin``
    again), so a restarted shard heals without router intervention.
    """

    def __init__(self, spec: BackendSpec):
        self.spec = spec
        self.lock = asyncio.Lock()
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        #: last data generation seen in any response header from this
        #: backend (-1 until the first response) — the cache-token input.
        self.generation = -1
        #: replicas: commits behind the primary at last health refresh
        self.lag_commits: Optional[float] = None
        self.health_at = float("-inf")

    async def roundtrip(self, command: str, timeout: float) -> Response:
        """Send one command line (as an ``OP_COMMAND`` frame) and read
        the reply."""
        async with self.lock:
            try:
                if self.writer is None:
                    await self._connect(timeout)
                self.writer.write(binproto.encode_command(command))
                await asyncio.wait_for(self.writer.drain(), timeout)
                response = binproto.parse_response_body(
                    await asyncio.wait_for(read_frame(self.reader),
                                           timeout))
            except (OSError, EOFError, asyncio.TimeoutError,
                    protocol.ProtocolError) as exc:
                await self._drop()
                raise BackendDownError(
                    f"backend {self.spec.name}: {exc}") from exc
            if response.generation >= 0:
                self.generation = response.generation
            return response

    async def _connect(self, timeout: float) -> None:
        """Open the connection and switch it to binary framing."""
        self.reader, self.writer = await asyncio.wait_for(
            asyncio.open_connection(self.spec.host, self.spec.port),
            timeout)
        self.writer.write(b"HELLO bin\n")
        raw = await asyncio.wait_for(self.reader.readuntil(TEXT_END),
                                     timeout)
        ack = protocol.parse_response(raw.decode("utf-8").split("\n")[:-1])
        if not ack.ok:
            raise protocol.ProtocolError(
                f"HELLO bin refused: {ack.error_message}")

    async def _drop(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = None
        self.writer = None


class Router(ProtocolServer):
    """The scatter-gather tier: one protocol endpoint, many shards.

    Args:
        config: router parameters.
        dataset: the cluster dataset (for schemas, pictorial columns and
            the gid counter — the router never touches row storage).
        shardmap: the key-range partitioning all nodes agree on.
        backends: every cluster node, primaries and replicas.
    """

    metric_prefix = "router"

    def __init__(self, config: RouterConfig, dataset: ClusterDataset,
                 shardmap: ShardMap, backends: Sequence[BackendSpec]):
        self.config = config
        super().__init__()
        self.dataset = dataset
        self.shardmap = shardmap
        self.cache = QueryCache(capacity=config.cache_size)
        self.next_gid = dataset.next_gid
        self._primaries: dict[int, _Backend] = {}
        self._replicas: dict[int, list[_Backend]] = {}
        self._backends: list[_Backend] = []
        for spec in backends:
            backend = _Backend(spec)
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
        #: every primary, in shard order: the broadcast target
        self._all_primaries = [self._primaries[sid]
                               for sid in shardmap.all_shards()]
        self._rr: dict[int, int] = {sid: 0 for sid in self._primaries}

    async def stop(self) -> None:
        await super().stop()
        for backend in self._backends:
            await backend._drop()

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

    async def _scatter(self, backends: Sequence[_Backend], command: str,
                       retry: str = "retry later") -> list[Response]:
        """Send *command* to every backend at once; every reply, when
        all of them are OK.

        Otherwise raises :class:`Refusal` with the degraded answer:
        ``BUSY`` for a dead backend (*retry* tells the client how to
        recover), else the first failing shard's ``BUSY``, ``TIMEOUT``
        or ``ERR`` as it came.
        """
        responses = await asyncio.gather(
            *(b.roundtrip(command, self.config.query_timeout)
              for b in backends),
            return_exceptions=True)
        for backend, response in zip(backends, responses):
            if isinstance(response, BackendDownError):
                self.registry.bump("router.backend_down")
                raise Refusal(Response("busy", error_message=(
                    f"{backend.spec.name} unavailable ({response}); "
                    f"{retry}")))
            if isinstance(response, BaseException):
                raise response
        for response in responses:
            if not response.ok:
                if response.status == "busy":
                    self.registry.bump("router.backend_busy")
                raise Refusal(response)
        return responses

    @staticmethod
    def _stitch(backends: Sequence[_Backend],
                responses: Sequence[Response]) -> list[str]:
        """Per-shard one-column reports merged under shard headers."""
        labels = [f"shard {b.spec.shard_id} ({b.spec.name})"
                  for b in backends]
        return merge_shard_plans(
            labels, [[row[0] for row in r.rows] for r in responses])

    # -- QUERY / EXPLAIN / KNN ------------------------------------------------

    async def _read(self, conn: _Connection, key: str,
                    targets: Sequence[int], command: str,
                    merge: Callable[[list[_Backend], list[Response]],
                                    QueryResult]) -> Response:
        """One scattered read: the merged result cached under *key* and
        the targets' generation token, else *merge* of every target's
        reply to *command*, cached in *conn*'s codec."""
        token = self._gen_token(targets)
        cached = self.cache.get(key, token)
        if cached is not None:
            self.registry.bump("router.queries.cached")
            return result_reply("cached", 0, cached)
        backends = [await self._read_backend(sid) for sid in targets]
        result = merge(backends, await self._scatter(backends, command))
        self.registry.bump("router.rows_returned", len(result.rows))
        entry = self.cache.store(key, token,
                                 CachedResult.render(result, conn.binary))
        return result_reply("fresh", 0, entry)

    async def _handle_query(self, conn: _Connection, text: str) -> Response:
        self.registry.bump("router.queries")
        try:
            plan = plan_route(text)
        except ClusterRoutingError as exc:
            self.registry.bump("router.rejected")
            return error_reply("ClusterRoutingError", str(exc))
        except PsqlError as exc:
            return error_reply(type(exc).__name__, str(exc))

        def merge(backends, responses) -> QueryResult:
            self.registry.bump("router.queries.executed")
            if plan.explain:
                return QueryResult(("plan",), [
                    (line,) for line in self._stitch(backends, responses)])
            return QueryResult(*merge_rows([r.columns for r in responses],
                                           [r.rows for r in responses],
                                           plan.ngid))

        return await self._read(conn, plan.normalized,
                                shard_targets(plan, self.shardmap),
                                f"QUERY {plan.rewritten}", merge)

    async def _handle_knn(self, conn: _Connection, rest: str) -> Response:
        self.registry.bump("router.knn")
        k = parse_knn(rest)[4]

        def merge(_backends, responses) -> QueryResult:
            per_shard = [[(float(d), int(g)) for d, g in r.rows]
                         for r in responses]
            return QueryResult(("distance", "gid"), [
                (protocol.format_value(float(d)), str(g))
                for d, g in merge_knn(per_shard, k)])

        args = " ".join(rest.split())
        return await self._read(conn, f"knn {args}",
                                self.shardmap.all_shards(), f"KNN {args}",
                                merge)

    # -- mutations -----------------------------------------------------------

    async def _handle_insert(self, conn: _Connection, rest: str) -> Response:
        relation_name, row = parse_insert(rest)
        try:
            relation = self.dataset.relation(relation_name)
        except KeyError as exc:
            return error_reply("KeyError", str(exc).strip("'\""))
        if GID_COLUMN in row:
            gid = int(row[GID_COLUMN])     # client retry with a known gid
            self.next_gid = max(self.next_gid, gid + 1)
        else:
            gid = self.next_gid
            self.next_gid += 1
            row = {GID_COLUMN: gid, **row}
        self.registry.bump("router.inserts")
        await self._scatter(
            [self._primaries[sid] for sid in self._placement(relation, row)],
            f"INSERT {relation_name} {encode_row(row).hex()}",
            retry=f"insert may be partial — retry with gid {gid} "
                  f"(idempotent)")
        return ack_reply("insert", 0, gid)

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

    async def _handle_delete(self, conn: _Connection, rest: str) -> Response:
        relation_name, gid = parse_delete(rest)
        self.registry.bump("router.deletes")
        responses = await self._scatter(self._all_primaries,
                                        f"DELETE {relation_name} {gid}")
        return ack_reply("delete", 0, int(any(r.nrows for r in responses)))

    async def _handle_repack(self, conn: _Connection, rest: str) -> Response:
        self.registry.bump("router.repacks")
        responses = await self._scatter(self._all_primaries,
                                        f"REPACK {rest}")
        return ack_reply("repack", 0, sum(r.nrows for r in responses))

    async def _handle_maintain(self, conn: _Connection,
                               rest: str) -> Response:
        """``MAINTAIN ...`` fan-out over every primary.

        ``on``/``off`` scatter the toggle and ack with the count of
        shards now enabled; ``status`` and ``run`` broadcast like the
        advisor verbs, stitching per-shard report sections.  Anything
        else is scattered too, for the shards to refuse.
        """
        self.registry.bump("router.maintains")
        action = rest.strip().lower() or "status"
        if action in ("status", "run"):
            return await self._broadcast_report(conn, f"MAINTAIN {action}",
                                                "maintain")
        responses = await self._scatter(self._all_primaries,
                                        f"MAINTAIN {action}")
        return ack_reply("maintain", 0, sum(r.nrows for r in responses))

    # -- ADVISE / HEALTH -----------------------------------------------------

    async def _handle_advise(self, conn: _Connection, rest: str) -> Response:
        self.registry.bump("router.advises")
        return await self._broadcast_report(conn, f"ADVISE {rest.strip()}",
                                            "advise")

    async def _handle_health(self, conn: _Connection, rest: str) -> Response:
        self.registry.bump("router.healths")
        return await self._broadcast_report(conn, "HEALTH", "health")

    async def _broadcast_report(self, conn: _Connection, command: str,
                                column: str) -> Response:
        """Scatter an advisor verb to every primary and stitch the
        per-shard report lines under shard headers.

        Reports are never cached: they summarise live counters and the
        shard's current workload log, so a cached copy would go stale
        without any generation bump to invalidate it.
        """
        responses = await self._scatter(self._all_primaries, command)
        return self._report(conn, column,
                            self._stitch(self._all_primaries, responses))

    # -- STATS ---------------------------------------------------------------

    async def _handle_stats(self, conn: _Connection, rest: str) -> Response:
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
        return Response("ok", disposition="stats", stats=out)

    VERBS = {
        "QUERY": Verb(_handle_query),
        "EXPLAIN": Verb(lambda self, conn, rest:
                        self._handle_query(conn, "explain " + rest)),
        "KNN": Verb(_handle_knn),
        "INSERT": Verb(_handle_insert, mutating=True),
        "DELETE": Verb(_handle_delete, mutating=True),
        "REPACK": Verb(_handle_repack, mutating=True),
        "MAINTAIN": Verb(_handle_maintain),
        "ADVISE": Verb(_handle_advise),
        "HEALTH": Verb(_handle_health),
        "STATS": Verb(_handle_stats),
        **ProtocolServer.VERBS,
    }
