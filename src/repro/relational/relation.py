"""Relations: schema-checked heap storage with secondary indexes.

A relation in PSQL's data model mixes alphanumeric columns (indexed "the
usual way" with B-trees) and pictorial columns of type point / segment /
region, whose values are indexed externally by R-trees through the
``loc`` pointer machinery (see :mod:`repro.relational.catalog`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.geometry.point import Point
from repro.geometry.region import Region
from repro.geometry.segment import Segment
from repro.relational.btree import BTree

#: Row identifier: position in the heap.  Stable for the row's lifetime —
#: these are the "backward (unique) identifiers" PSQL stores in R-tree
#: leaves to get from picture space back to tuples.
RowId = int

#: column type name -> accepted Python classes
_TYPE_MAP: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "point": (Point,),
    "segment": (Segment,),
    "region": (Region,),
}

#: Pictorial column types (indexed by R-trees, not B-trees).
PICTORIAL_TYPES = frozenset({"point", "segment", "region"})


class SchemaError(Exception):
    """A row or operation disagrees with the relation's schema."""


@dataclass(frozen=True)
class Column:
    """One column of a relation schema."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in _TYPE_MAP:
            raise SchemaError(
                f"unknown column type {self.type!r}; "
                f"choose from {sorted(_TYPE_MAP)}")

    @property
    def is_pictorial(self) -> bool:
        return self.type in PICTORIAL_TYPES


class Relation:
    """A named relation with heap rows and optional B-tree indexes.

    Rows are dictionaries keyed by column name.  Deleted rows leave
    tombstones so row ids stay stable (important because R-tree leaves
    reference rows by id).

    Example::

        cities = Relation("cities", [
            Column("city", "str"), Column("state", "str"),
            Column("population", "int"), Column("loc", "point"),
        ])
        rid = cities.insert({"city": "Springfield", "state": "Avalon",
                             "population": 450_000, "loc": Point(1, 2)})
    """

    def __init__(self, name: str, columns: Iterable[Column]):
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        if not self.columns:
            raise SchemaError(f"relation {name!r} needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {name!r}")
        self._by_name = {c.name: c for c in self.columns}
        self._rows: list[Optional[dict[str, Any]]] = []
        self._indexes: dict[str, BTree] = {}
        self._live = 0

    # -- schema -------------------------------------------------------------

    def column(self, name: str) -> Column:
        """The column named *name*.

        Raises:
            SchemaError: when the relation has no such column.
        """
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

    # -- rows ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def insert(self, row: dict[str, Any]) -> RowId:
        """Append a schema-checked row; returns its stable row id."""
        self._check_row(row)
        rid = len(self._rows)
        stored = dict(row)
        self._rows.append(stored)
        self._live += 1
        for col, index in self._indexes.items():
            index.insert(stored[col], rid)
        return rid

    def get(self, rid: RowId) -> dict[str, Any]:
        """The row stored under *rid*.

        Raises:
            KeyError: for out-of-range or deleted row ids.
        """
        row = self._rows[rid] if 0 <= rid < len(self._rows) else None
        if row is None:
            raise KeyError(f"row {rid} does not exist in {self.name!r}")
        return row

    def get_many(self, rids: Iterable[RowId]) -> list[dict[str, Any]]:
        """The rows stored under *rids*, in order: :meth:`get` for a
        whole id list in one pass.

        Raises:
            KeyError: for an out-of-range or deleted row id.
        """
        rids = list(rids)
        try:
            rows = list(map(self._rows.__getitem__, rids))
        except IndexError:
            rows = [None]
        if None in rows or (rids and min(rids) < 0):
            for rid in rids:
                self.get(rid)  # raises for the first missing row
        return rows

    def delete(self, rid: RowId) -> None:
        """Tombstone the row, removing it from all indexes.

        Raises:
            KeyError: when the row does not exist.
        """
        row = self.get(rid)
        for col, index in self._indexes.items():
            index.delete(row[col], rid)
        self._rows[rid] = None
        self._live -= 1

    def update(self, rid: RowId, changes: dict[str, Any]) -> None:
        """Apply *changes* to a row, keeping indexes consistent."""
        row = self.get(rid)
        merged = {**row, **changes}
        self._check_row(merged)
        for col, index in self._indexes.items():
            if col in changes and changes[col] != row[col]:
                index.delete(row[col], rid)
                index.insert(changes[col], rid)
        row.update(changes)

    def rows(self) -> Iterator[tuple[RowId, dict[str, Any]]]:
        """All live rows as (row id, row) pairs, heap order."""
        for rid, row in enumerate(self._rows):
            if row is not None:
                yield rid, row

    def scan(self, predicate: Callable[[dict[str, Any]], bool],
             ) -> Iterator[tuple[RowId, dict[str, Any]]]:
        """Live rows satisfying *predicate*."""
        return ((rid, row) for rid, row in self.rows() if predicate(row))

    # -- indexes ----------------------------------------------------------------

    def create_index(self, column: str, order: int = 32) -> BTree:
        """Build (or rebuild) a B-tree index on an alphanumeric column.

        Raises:
            SchemaError: for pictorial columns — those are R-tree
                territory (Section 2.1 of the paper).
        """
        col = self.column(column)
        if col.is_pictorial:
            raise SchemaError(
                f"column {column!r} is pictorial; index it with an R-tree "
                f"through the catalog, not a B-tree")
        index = BTree(order=order)
        for rid, row in self.rows():
            index.insert(row[column], rid)
        self._indexes[column] = index
        return index

    def index_on(self, column: str) -> Optional[BTree]:
        """The index on *column*, if one exists."""
        return self._indexes.get(column)

    def lookup(self, column: str, value: Any,
               ) -> list[tuple[RowId, dict[str, Any]]]:
        """Equality lookup, via the index when present, else a scan."""
        index = self._indexes.get(column)
        if index is not None:
            return [(rid, self.get(rid)) for rid in index.search(value)]
        self.column(column)  # raise SchemaError for unknown columns
        return [(rid, row) for rid, row in self.rows()
                if row[column] == value]

    # -- internals -----------------------------------------------------------

    def _check_row(self, row: dict[str, Any]) -> None:
        extra = set(row) - set(self._by_name)
        if extra:
            raise SchemaError(
                f"row has columns {sorted(extra)} not in {self.name!r}")
        for col in self.columns:
            if col.name not in row:
                raise SchemaError(
                    f"row is missing column {col.name!r} of {self.name!r}")
            value = row[col.name]
            if not isinstance(value, _TYPE_MAP[col.type]):
                raise SchemaError(
                    f"column {col.name!r} expects {col.type}, got "
                    f"{type(value).__name__}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{c.name}:{c.type}" for c in self.columns)
        return f"Relation({self.name!r}, [{cols}], rows={self._live})"
