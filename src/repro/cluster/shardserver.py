"""Role-aware cluster node servers: primary shards and read replicas.

A :class:`ShardServer` is a :class:`~repro.server.server.PsqlServer`
over one shard's slice of a :class:`~repro.cluster.dataset.ClusterDataset`,
extended through the ``_dispatch`` seam with the verbs the router tier
speaks:

``INSERT <relation> <hex(rowbytes)>``
    Primary only.  The row (gid included) travels as hex-encoded
    :func:`~repro.relational.rowcodec.encode_row` bytes, so geometry
    survives the line protocol untouched.  Inserts are **idempotent by
    gid** — a router retrying after a lost ack cannot double-store a
    row — and answer ``OK insert <generation> <n>`` where *n* is 1 for
    a new row, 0 for an already-present gid.  The
    ``cluster.shard.commit`` failpoint sits after the durable insert
    and before the ack: a hard crash there is exactly the "committed
    but unacknowledged" window the crash matrix probes.

``DELETE <relation> <gid>``
    Primary only; answers ``OK delete <generation> <n>``.

``KNN <picture> <relation> <x> <y> <k> [column]``
    Both roles.  Answers the shard-local k nearest as a
    ``(distance, gid)`` result sorted by that pair — the total order the
    router's merge (and the equivalence tests) rely on under ties.

``REPLAY``
    Replica only: run one log-shipping resync immediately (tests drive
    replication deterministically with this instead of timers) and
    answer ``OK replay <generation> <applied_commits>``.

A replica answers reads exactly like a primary but rejects ``INSERT``,
``DELETE`` and ``REPACK`` with ``ERR ReadOnly``; with ``poll_interval``
> 0 it also resyncs on a timer.  After each resync the fresh database is
swapped under the query service *and* under every live connection's
session, and its generation is set to the applied commit count — a
monotone stamp, so result/plan caches keyed on generation can never
serve a pre-resync answer for a post-resync database.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import Optional

from repro.geometry.point import Point
from repro.psql.result import QueryResult
from repro.relational.catalog import Database
from repro.relational.rowcodec import decode_row
from repro.rtree.search import knn_search
from repro.server.server import PsqlServer, ServerConfig, _Connection
from repro.server.service import STORAGE_ERRORS
from repro.storage import failpoints
from repro.cluster.dataset import GID_COLUMN
from repro.cluster.replica import LogShipper

__all__ = ["FP_SHARD_COMMIT", "ShardServer"]

FP_SHARD_COMMIT = failpoints.declare(
    "cluster.shard.commit",
    "shard INSERT: after the durable commit, before the ack is written")

_MUTATING_VERBS = ("INSERT", "DELETE", "REPACK")


class ShardServer(PsqlServer):
    """One cluster node: a primary shard or a read replica.

    Args:
        config: base server parameters (thread executor assumed — the
            cluster tier swaps databases at runtime, which process pools
            cannot see).
        db: the node's database; replicas may omit it when a *shipper*
            is given (the constructor bootstraps with one resync).
        role: ``"primary"`` or ``"replica"``.
        shard_id: this node's shard id (surfaces in ``STATS``).
        shipper: the replica's log-shipping feed; required for replicas.
        poll_interval: replica resync period in seconds; 0 disables the
            timer (tests then drive replication with ``REPLAY``).
    """

    def __init__(self, config: Optional[ServerConfig] = None,
                 db: Optional[Database] = None, *,
                 role: str = "primary", shard_id: int = 0,
                 shipper: Optional[LogShipper] = None,
                 poll_interval: float = 0.0,
                 session_factory=None):
        if role not in ("primary", "replica"):
            raise ValueError(f"unknown shard role {role!r}")
        if role == "replica" and shipper is None:
            raise ValueError("a replica needs a log shipper")
        if db is None and shipper is not None:
            db, _commits = shipper.apply_once()
            db._generation = shipper.applied_commits
        super().__init__(config=config, db=db,
                         session_factory=session_factory)
        self.role = role
        self.shard_id = shard_id
        self.shipper = shipper
        self.poll_interval = poll_interval
        self._mutate_lock = threading.Lock()
        # relation -> {gid -> rid}, built lazily on first mutation so
        # idempotence checks and DELETE targeting stay O(1) per op.
        self._gid_maps: dict[str, dict[int, object]] = {}
        self._replay_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        if self.role == "replica" and self.poll_interval > 0:
            self._replay_task = asyncio.get_running_loop().create_task(
                self._replay_loop())

    async def stop(self) -> None:
        if self._replay_task is not None:
            self._replay_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._replay_task
            self._replay_task = None
        await super().stop()

    async def _replay_loop(self) -> None:
        while True:
            try:
                await self._apply_replay()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - keep replicating
                self.registry.bump("cluster.replica.apply_errors")
            await asyncio.sleep(self.poll_interval)

    # -- verb dispatch -------------------------------------------------------

    def verbs(self) -> tuple[str, ...]:
        extra = (("KNN", "REPLAY") if self.role == "replica"
                 else ("INSERT", "DELETE", "KNN"))
        return super().verbs() + extra

    async def _dispatch(self, conn: _Connection, verb: str,
                        rest: str) -> bool:
        if self.role == "replica" and verb in _MUTATING_VERBS:
            await self._write_error(
                conn, "ReadOnly",
                f"{verb} rejected: this node is a read replica; "
                f"send writes to the primary")
            return True
        if verb == "INSERT":
            await self._handle_insert(conn, rest)
        elif verb == "DELETE":
            await self._handle_delete(conn, rest)
        elif verb == "KNN":
            await self._handle_knn(conn, rest)
        elif verb == "REPLAY":
            await self._handle_replay(conn)
        else:
            return await super()._dispatch(conn, verb, rest)
        return True

    # -- mutations (primary) -------------------------------------------------

    async def _handle_insert(self, conn: _Connection, rest: str) -> None:
        parts = rest.split()
        if len(parts) != 2:
            await self._write_error(conn, "ProtocolError",
                                    "usage: INSERT <relation> <hexrow>")
            return
        relation_name, hexrow = parts
        try:
            row = decode_row(bytes.fromhex(hexrow))
        except (ValueError, KeyError) as exc:
            await self._write_error(conn, "ProtocolError",
                                    f"bad row payload: {exc}")
            return
        if GID_COLUMN not in row:
            await self._write_error(conn, "ProtocolError",
                                    f"row has no {GID_COLUMN!r} column")
            return
        self.registry.bump("cluster.shard.inserts")
        try:
            inserted = await asyncio.to_thread(
                self._do_insert, relation_name, row)
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
        await self._reply_ack(conn, "insert", self.generation,
                              int(inserted))

    def _do_insert(self, relation_name: str, row: dict) -> bool:
        with self._mutate_lock:
            gid_map = self._gid_map(relation_name)
            gid = row[GID_COLUMN]
            if gid in gid_map:
                return False
            rid = self.service.db.insert(relation_name, row)
            gid_map[gid] = rid
            if failpoints.ACTIVE:
                failpoints.hit(FP_SHARD_COMMIT)
            return True

    async def _handle_delete(self, conn: _Connection, rest: str) -> None:
        parts = rest.split()
        if len(parts) != 2:
            await self._write_error(conn, "ProtocolError",
                                    "usage: DELETE <relation> <gid>")
            return
        relation_name, gid_text = parts
        try:
            gid = int(gid_text)
        except ValueError:
            await self._write_error(conn, "ProtocolError",
                                    f"bad gid {gid_text!r}")
            return
        self.registry.bump("cluster.shard.deletes")
        try:
            deleted = await asyncio.to_thread(
                self._do_delete, relation_name, gid)
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
        await self._reply_ack(conn, "delete", self.generation,
                              int(deleted))

    def _do_delete(self, relation_name: str, gid: int) -> bool:
        with self._mutate_lock:
            gid_map = self._gid_map(relation_name)
            rid = gid_map.pop(gid, None)
            if rid is None:
                return False
            self.service.db.delete(relation_name, rid)
            return True

    def _gid_map(self, relation_name: str) -> dict[int, object]:
        gid_map = self._gid_maps.get(relation_name)
        if gid_map is None:
            relation = self.service.db.relation(relation_name)
            gid_map = {row[GID_COLUMN]: rid
                       for rid, row in relation.rows()}
            self._gid_maps[relation_name] = gid_map
        return gid_map

    # -- KNN (both roles) ----------------------------------------------------

    async def _handle_knn(self, conn: _Connection, rest: str) -> None:
        parts = rest.split()
        if len(parts) not in (5, 6):
            await self._write_error(
                conn, "ProtocolError",
                "usage: KNN <picture> <relation> <x> <y> <k> [column]")
            return
        picture, relation_name = parts[0], parts[1]
        column = parts[5] if len(parts) == 6 else "loc"
        try:
            x, y, k = float(parts[2]), float(parts[3]), int(parts[4])
        except ValueError:
            await self._write_error(conn, "ProtocolError",
                                    "KNN x/y must be numbers, k an int")
            return
        if k < 0:
            await self._write_error(conn, "ProtocolError",
                                    "KNN k must be >= 0")
            return
        self.registry.bump("cluster.shard.knn")
        try:
            rows = await asyncio.to_thread(
                self._do_knn, picture, relation_name, x, y, k, column)
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
        await self._reply_fresh(
            conn, QueryResult(columns=("distance", "gid"), rows=rows))

    def _do_knn(self, picture: str, relation_name: str, x: float,
                y: float, k: int, column: str) -> list[tuple[float, int]]:
        db = self.service.db
        tree = db.picture(picture).index(relation_name, column)
        relation = db.relation(relation_name)
        hits = knn_search(tree, Point(x, y), k)
        rows = [(float(dist), int(relation.get(rid)[GID_COLUMN]))
                for dist, rid in hits]
        rows.sort()
        return rows

    # -- replication (replica) ----------------------------------------------

    async def _handle_replay(self, conn: _Connection) -> None:
        if self.role != "replica":
            await self._write_error(
                conn, "ProtocolError",
                "REPLAY is only valid on a read replica")
            return
        try:
            commits = await self._apply_replay()
        except STORAGE_ERRORS as exc:
            conn.errors += 1
            self.registry.bump("server.errors")
            self.registry.bump("server.io_errors")
            await self._write_error(conn, type(exc).__name__, str(exc))
            return
        await self._reply_ack(conn, "replay", self.generation, commits)

    async def _apply_replay(self) -> int:
        assert self.shipper is not None
        db, commits = await asyncio.to_thread(self.shipper.apply_once)
        # Stamp the fresh database with the commit count it reflects:
        # monotone across resyncs, so generation-keyed result and plan
        # caches can never alias a pre-resync answer onto it.
        db._generation = commits
        self.service.db = db
        for live in self._connections.values():
            live.session.db = db
            live.session._plans.clear()
        self._gid_maps.clear()
        self.registry.bump("cluster.replica.replays")
        return commits

    # -- metrics -------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        out = super().stats()
        out["cluster.shard_id"] = float(self.shard_id)
        out["cluster.is_primary"] = float(self.role == "primary")
        if self.shipper is not None:
            lag = self.shipper.lag()
            out["cluster.replica.applies"] = float(self.shipper.applies)
            out["cluster.replica.applied_commits"] = float(
                lag.applied_commits)
            out["cluster.replica.primary_commits"] = float(
                lag.primary_commits)
            out["cluster.replica.commits_behind"] = float(
                lag.commits_behind)
            out["cluster.replica.lag_seconds"] = lag.seconds_behind
        return out
