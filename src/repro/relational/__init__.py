"""The alphanumeric substrate: B-tree indexes and a relational engine.

The paper integrates pictures with a conventional relational system: "The
relation columns that correspond to alphanumeric domains are indexed the
usual way" (Section 2.1) — i.e. with B-trees [Bayer & McCreight 1972] —
while pictorial columns are indexed with R-trees.  This package supplies
that conventional side:

- :class:`~repro.relational.btree.BTree` — an order-configurable B+-tree
  with duplicate support and range scans.
- :class:`~repro.relational.relation.Relation` — tuples with a schema,
  secondary B-tree indexes and predicate scans, kept in memory.
- :class:`~repro.relational.persistent.PersistentRelation` — the same
  relation over a durable heap file: only its row storage differs.
- :class:`~repro.relational.catalog.Database` — the catalog binding
  relations to pictures and their R-tree spatial indexes (the ``loc``
  machinery of PSQL).
"""

from repro.relational.btree import BTree
from repro.relational.relation import Column, Relation, RowId, SchemaError
from repro.relational.catalog import Database, Picture
from repro.relational.persistent import PersistentRelation
from repro.relational.rowcodec import decode_row, encode_row

__all__ = [
    "BTree",
    "Column",
    "Database",
    "PersistentRelation",
    "Picture",
    "Relation",
    "RowId",
    "SchemaError",
    "decode_row",
    "encode_row",
]
