"""Disk-backed relations: the relation over heap-file row storage.

:class:`PersistentRelation` is a :class:`~repro.relational.relation.Relation`
whose row-storage primitives keep encoded tuples in a slotted-page
:class:`~repro.storage.heapfile.HeapFile`; schema checks, B-tree indexes,
``lookup`` and ``scan`` are inherited.  The B-tree indexes live in
memory and are rebuilt after an open — the paper's databases are "not
update intensive but rather static".  Rows do not rely on that bargain:
by default every insert and delete commits through a page-level
write-ahead log (:mod:`repro.storage.wal`) before it returns, and an
open replays a crashed owner's committed tail, reported by
:attr:`PersistentRelation.recovered`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.relational.relation import Column, Relation, SchemaError
from repro.relational.rowcodec import decode_row, encode_row
from repro.storage.heapfile import HeapFile, HeapFileError, RowAddress


class PersistentRelation(Relation):
    """A relation whose rows live on disk.

    Row identifiers are :class:`RowAddress` values (page, slot), stable
    for the row's lifetime; a later insert may reuse a deleted slot.

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

    Raises:
        SchemaError: when a reopened file's first live row does not
            match the schema (every stored row passed the insert check).
    """

    def __init__(self, name: str, columns: list[Column], path: str,
                 page_size: int = 4096, buffer_capacity: int = 64,
                 durable: bool = True, wal_sync: str = "fsync",
                 checkpoint_bytes: int = 4 * 1024 * 1024):
        super().__init__(name, columns)
        self.durable = durable
        self._heap = HeapFile(path, page_size=page_size,
                              buffer_capacity=buffer_capacity,
                              wal_path=path + ".wal" if durable else None,
                              wal_sync=wal_sync,
                              checkpoint_bytes=checkpoint_bytes)
        first = next(self.rows(), None)
        if first is not None:
            try:
                self._check_row(first[1])
            except SchemaError as exc:
                self._heap.close()
                raise SchemaError(
                    f"{path} holds rows of another schema: {exc}") from exc

    @property
    def recovered(self) -> bool:
        """True when opening replayed committed WAL work after a crash."""
        return self._heap.recovered

    # -- row storage ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._heap)

    def _append(self, row: dict[str, Any]) -> RowAddress:
        """Encode and store a row, WAL-committed in durable mode: the
        row's acknowledgement *is* its durability."""
        addr = self._heap.insert(encode_row(row))
        if self.durable:
            self._heap.commit()
        return addr

    def _remove(self, addr: RowAddress) -> None:
        """Remove one row (durable on return)."""
        self._heap.delete(addr)
        if self.durable:
            self._heap.commit()

    def get(self, addr: RowAddress) -> dict[str, Any]:
        """Fetch and decode one row.

        Raises:
            KeyError: for deleted or invalid addresses.
        """
        try:
            return decode_row(self._heap.get(addr))
        except HeapFileError as exc:
            raise KeyError(str(exc)) from exc

    def get_many(self, addrs: Iterable[RowAddress]) -> list[dict[str, Any]]:
        """:meth:`get` for each of *addrs*, in order."""
        return [self.get(addr) for addr in addrs]

    def rows(self) -> Iterator[tuple[RowAddress, dict[str, Any]]]:
        """All live rows, heap order."""
        for addr, data in self._heap.scan():
            yield addr, decode_row(data)

    # -- lifecycle -------------------------------------------------------------

    def commit(self) -> None:
        """Explicitly commit staged heap pages (for non-durable batches)."""
        self._heap.commit()

    def flush(self) -> None:
        self._heap.flush()

    def close(self) -> None:
        self._heap.close()

    def __enter__(self) -> "PersistentRelation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
