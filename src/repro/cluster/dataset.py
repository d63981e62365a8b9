"""Cluster datasets: one deterministic description, many databases.

Every node of a cluster — each primary shard, each read replica, the
single-server oracle the tests compare against — must be able to build
its slice of the data independently and *identically*.  A
:class:`ClusterDataset` is that description: relations (with every row
tagged by a hidden ``gid`` column), picture registrations and named
locations, all plain data.

The ``gid`` column is the cluster's global row identity.  Objects whose
MBR spans a shard boundary are stored on **every** shard they overlap
(see :mod:`repro.cluster.partition` for why that makes scatter-gather
exact), so the same logical row can come back from several shards; the
router deduplicates merged results by ``gid``, which is why the column
must exist on every sharded relation.  It is ordinary data otherwise —
the oracle database carries it too, so routed and direct results stay
comparable column for column.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.geometry.rect import Rect
from repro.relational.catalog import Database, mbr_of_value
from repro.relational.relation import Column, SchemaError
from repro.cluster.partition import ShardMap

__all__ = ["GID_COLUMN", "ClusterDataset", "ClusterRelation",
           "build_database", "dataset_from_database",
           "materialize_database"]

#: The hidden global-row-identity column every sharded relation carries.
GID_COLUMN = "gid"


@dataclass
class ClusterRelation:
    """Schema plus seed rows of one relation, gid column included."""

    name: str
    columns: tuple[Column, ...]          #: includes the gid column
    rows: list[dict[str, Any]] = field(default_factory=list)

    def pictorial_columns(self) -> list[Column]:
        return [c for c in self.columns if c.is_pictorial]


@dataclass
class ClusterDataset:
    """Everything needed to build any node's database of a cluster."""

    universe: Rect
    relations: list[ClusterRelation] = field(default_factory=list)
    #: picture name -> [(relation name, pictorial column), ...]
    pictures: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    locations: dict[str, Rect] = field(default_factory=dict)
    next_gid: int = 0

    def relation(self, name: str) -> ClusterRelation:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise KeyError(f"dataset has no relation {name!r}")


def dataset_from_database(db: Database,
                          universe: Optional[Rect] = None) -> ClusterDataset:
    """Snapshot a live :class:`Database` into a shardable dataset.

    Rows are copied and tagged with fresh ``gid`` values in heap order
    (deterministic for deterministically built databases, e.g. the demo
    factory).  Pictures keep their registrations; the universe defaults
    to the first picture's.

    Raises:
        SchemaError: when a relation already has a ``gid`` column (the
            name is reserved for the cluster's row identity).
    """
    pictures = {pic.name: sorted(pic.associations())
                for pic in db.pictures()}
    if universe is None:
        for pic in db.pictures():
            universe = pic.universe
            break
    if universe is None:
        raise ValueError("dataset needs a universe: the database has no "
                         "pictures and none was given")
    ds = ClusterDataset(universe=universe,
                        pictures=pictures,
                        locations=dict(getattr(db, "_locations", {})))
    gid = 0
    for relation in db.relations():
        if relation.has_column(GID_COLUMN):
            raise SchemaError(
                f"relation {relation.name!r} already has a {GID_COLUMN!r} "
                f"column; that name is reserved for cluster row identity")
        columns = (Column(GID_COLUMN, "int"),) + tuple(relation.columns)
        rows = []
        for _rid, row in relation.rows():
            rows.append({GID_COLUMN: gid, **row})
            gid += 1
        ds.relations.append(ClusterRelation(relation.name, columns, rows))
    ds.next_gid = gid
    return ds


def _row_mbrs(rel: ClusterRelation, row: dict[str, Any]) -> list[Rect]:
    return [mbr_of_value(row[c.name]) for c in rel.pictorial_columns()]


def _keep_row(rel: ClusterRelation, row: dict[str, Any],
              shardmap: Optional[ShardMap], shard_id: Optional[int]) -> bool:
    """Placement rule: a shard keeps every row whose geometry overlaps it.

    A relation without pictorial columns is replicated onto every shard
    (it cannot be spatially partitioned, and broadcast scans still
    dedup by gid).  A row with several pictorial columns is kept if
    *any* of them overlaps the shard — a superset of what correctness
    needs (each queried column must find its rows locally), at the cost
    of a little extra duplication.
    """
    if shardmap is None or shard_id is None:
        return True
    mbrs = _row_mbrs(rel, row)
    if not mbrs:
        return True
    return any(shard_id in shardmap.shards_storing(m) for m in mbrs)


def build_database(dataset: ClusterDataset,
                   shardmap: Optional[ShardMap] = None,
                   shard_id: Optional[int] = None,
                   data_dir: Optional[str] = None,
                   durable: bool = True,
                   wal_sync: str = "none") -> Database:
    """Build one node's database from the dataset.

    Args:
        dataset: the cluster dataset.
        shardmap, shard_id: when given, keep only this shard's slice of
            every relation (omit both for the full single-server
            oracle).
        data_dir: when given, relations are durable
            :class:`~repro.relational.persistent.PersistentRelation`
            heap files under this directory — the WAL each one writes is
            the log-shipping feed for read replicas.  **Reopen
            semantics:** if a relation's heap file already exists the
            seed rows are NOT re-inserted; whatever the file (plus its
            WAL replay) holds is the state — which is exactly what a
            crashed shard needs to come back with.
        durable / wal_sync: persistence knobs (data_dir mode only);
            ``wal_sync="none"`` keeps atomicity against process death
            without paying an fsync per mutation.
    """
    db = Database()
    for rel in dataset.relations:
        if data_dir is not None:
            path = os.path.join(data_dir, f"{rel.name}.heap")
            existed = os.path.exists(path)
            stored = db.create_persistent_relation(
                rel.name, list(rel.columns), path, durable=durable,
                wal_sync=wal_sync,
                # The WAL is a replica feed: checkpoint truncation would
                # pull the log out from under a tailing replica, so it
                # is pushed out beyond any test/bench workload size.
                checkpoint_bytes=1 << 40)
            if not existed:
                for row in rel.rows:
                    if _keep_row(rel, row, shardmap, shard_id):
                        stored.insert(row)
        else:
            stored = db.create_relation(rel.name, list(rel.columns))
            for row in rel.rows:
                if _keep_row(rel, row, shardmap, shard_id):
                    stored.insert(row)
    _register_pictures(db, dataset)
    for name, area in dataset.locations.items():
        db.define_location(name, area)
    return db


def materialize_database(dataset: ClusterDataset,
                         rows_by_relation: dict[str, Iterable[dict]],
                         ) -> Database:
    """Build an in-memory database from externally supplied rows.

    The replica replay path uses this: rows come from decoding the
    primary's shipped heap pages, not from the dataset's seed rows — the
    dataset contributes only schema, pictures and locations.
    """
    db = Database()
    for rel in dataset.relations:
        stored = db.create_relation(rel.name, list(rel.columns))
        for row in rows_by_relation.get(rel.name, ()):
            stored.insert(row)
    _register_pictures(db, dataset)
    for name, area in dataset.locations.items():
        db.define_location(name, area)
    return db


def _register_pictures(db: Database, dataset: ClusterDataset) -> None:
    for pic_name, assocs in dataset.pictures.items():
        picture = db.create_picture(pic_name, dataset.universe)
        for rel_name, column in assocs:
            picture.register(db.relation(rel_name), column)
