"""Disk-backed relations: heap-file rows plus rebuilt indexes.

:class:`PersistentRelation` stores its tuples in a slotted-page
:class:`~repro.storage.heapfile.HeapFile` and keeps the same schema and
API surface as the in-memory :class:`~repro.relational.relation.Relation`
where it matters (insert/get/delete/rows/scan).  Secondary B-tree indexes
and the R-tree over a pictorial column are rebuilt on open — the paper's
databases are "not update intensive but rather static", so rebuilding
*indexes* at startup stays cheap and simple.

Row data itself no longer relies on that bargain: by default every
mutation is committed through a page-level write-ahead log
(:mod:`repro.storage.wal`), so once :meth:`PersistentRelation.insert` or
:meth:`~PersistentRelation.delete` returns, the change survives
``kill -9``.  Opening a relation whose previous owner crashed replays the
committed tail automatically; :attr:`PersistentRelation.recovered`
reports when that happened so catalogs can invalidate anything keyed on
the data generation.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.geometry.rect import Rect
from repro.relational.btree import BTree
from repro.relational.catalog import mbr_of_value
from repro.relational.relation import Column, SchemaError, _TYPE_MAP
from repro.relational.rowcodec import decode_row, encode_row
from repro.rtree.packing import pack
from repro.rtree.tree import RTree
from repro.storage.heapfile import HeapFile, RowAddress


class PersistentRelation:
    """A relation whose rows live on disk.

    Row identifiers are :class:`RowAddress` values (page, slot) — stable
    for the row's lifetime, exactly like the in-memory relation's heap
    positions.

    Args:
        name: relation name.
        columns: the schema.
        path: heap-file path (created when absent; reopened otherwise —
            existing rows must match the schema).
        page_size / buffer_capacity: storage knobs.
        durable: when True (default) a write-ahead log at ``path + ".wal"``
            makes every insert/delete crash-safe before it returns; set
            False for scratch relations that prefer raw speed.
        wal_sync: ``"fsync"`` (default) or ``"none"`` — the latter keeps
            atomicity against process death but not power loss.
    """

    def __init__(self, name: str, columns: list[Column], path: str,
                 page_size: int = 4096, buffer_capacity: int = 64,
                 durable: bool = True, wal_sync: str = "fsync",
                 checkpoint_bytes: int = 4 * 1024 * 1024):
        self.name = name
        self.columns = tuple(columns)
        if not self.columns:
            raise SchemaError(f"relation {name!r} needs at least one column")
        self._by_name = {c.name: c for c in self.columns}
        if len(self._by_name) != len(self.columns):
            raise SchemaError(f"duplicate column names in {name!r}")
        self.durable = durable
        self._heap = HeapFile(path, page_size=page_size,
                              buffer_capacity=buffer_capacity,
                              wal_path=path + ".wal" if durable else None,
                              wal_sync=wal_sync,
                              checkpoint_bytes=checkpoint_bytes)
        self._indexes: dict[str, BTree] = {}

    @property
    def recovered(self) -> bool:
        """True when opening replayed committed WAL work after a crash."""
        return self._heap.recovered

    # -- schema ---------------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def pictorial_columns(self) -> list[Column]:
        """Columns holding spatial objects (point/segment/region)."""
        return [c for c in self.columns if c.is_pictorial]

    # -- rows -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._heap)

    def insert(self, row: dict[str, Any]) -> RowAddress:
        """Schema-check, encode and store a row.

        In durable mode the heap pages are WAL-committed before this
        returns: the row's acknowledgement *is* its durability.
        """
        self._check_row(row)
        addr = self._heap.insert(encode_row(row))
        if self.durable:
            self._heap.commit()
        for col, index in self._indexes.items():
            index.insert(row[col], addr)
        return addr

    def get(self, addr: RowAddress) -> dict[str, Any]:
        """Fetch and decode one row.

        Raises:
            KeyError: for deleted or invalid addresses.
        """
        from repro.storage.heapfile import HeapFileError
        try:
            return decode_row(self._heap.get(addr))
        except HeapFileError as exc:
            raise KeyError(str(exc)) from exc

    def get_many(self, addrs: Iterable[RowAddress]) -> list[dict[str, Any]]:
        """:meth:`get` for each of *addrs*, in order."""
        return [self.get(addr) for addr in addrs]

    def delete(self, addr: RowAddress) -> None:
        """Remove one row and its index entries (durable on return)."""
        row = self.get(addr)
        for col, index in self._indexes.items():
            index.delete(row[col], addr)
        self._heap.delete(addr)
        if self.durable:
            self._heap.commit()

    def commit(self) -> None:
        """Explicitly commit staged heap pages (for non-durable batches)."""
        self._heap.commit()

    def rows(self) -> Iterator[tuple[RowAddress, dict[str, Any]]]:
        """All live rows, heap order."""
        for addr, data in self._heap.scan():
            yield addr, decode_row(data)

    def scan(self, predicate: Callable[[dict[str, Any]], bool],
             ) -> Iterator[tuple[RowAddress, dict[str, Any]]]:
        return ((addr, row) for addr, row in self.rows() if predicate(row))

    # -- indexes ---------------------------------------------------------------

    def create_index(self, column: str, order: int = 32) -> BTree:
        """Build a B-tree over an alphanumeric column (in memory)."""
        col = self.column(column)
        if col.is_pictorial:
            raise SchemaError(
                f"column {column!r} is pictorial; build a spatial index "
                f"with build_spatial_index() instead")
        index = BTree(order=order)
        for addr, row in self.rows():
            index.insert(row[column], addr)
        self._indexes[column] = index
        return index

    def lookup(self, column: str, value: Any,
               ) -> list[tuple[RowAddress, dict[str, Any]]]:
        index = self._indexes.get(column)
        if index is not None:
            return [(addr, self.get(addr)) for addr in index.search(value)]
        self.column(column)
        return [(addr, row) for addr, row in self.rows()
                if row[column] == value]

    def build_spatial_index(self, column: str = "loc",
                            max_entries: int = 16,
                            method: str = "nn") -> RTree:
        """PACK an in-memory R-tree over a pictorial column.

        Leaf oids are :class:`RowAddress` values, mirroring how the
        catalog's picture indexes reference in-memory rows.
        """
        col = self.column(column)
        if not col.is_pictorial:
            raise SchemaError(f"column {column!r} is not pictorial")
        items: list[tuple[Rect, Any]] = [
            (mbr_of_value(row[column]), addr) for addr, row in self.rows()]
        return pack(items, max_entries=max_entries, method=method)

    # -- internals ----------------------------------------------------------------

    def _check_row(self, row: dict[str, Any]) -> None:
        extra = set(row) - set(self._by_name)
        if extra:
            raise SchemaError(
                f"row has columns {sorted(extra)} not in {self.name!r}")
        for col in self.columns:
            if col.name not in row:
                raise SchemaError(
                    f"row is missing column {col.name!r} of {self.name!r}")
            if not isinstance(row[col.name], _TYPE_MAP[col.type]):
                raise SchemaError(
                    f"column {col.name!r} expects {col.type}, got "
                    f"{type(row[col.name]).__name__}")

    # -- lifecycle -------------------------------------------------------------------

    def flush(self) -> None:
        self._heap.flush()

    def close(self) -> None:
        self._heap.close()

    def __enter__(self) -> "PersistentRelation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
