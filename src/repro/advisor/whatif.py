"""What-if planning: cost plans against indexes that do not exist.

hypopg for packed R-trees.  The planner never touches an index
structure while costing — it reads catalog statistics
(:meth:`Database.index_summary`) and existence tests
(:meth:`Relation.index_on`).  So a *hypothetical* index needs nothing
but other answers to those two calls:

- :class:`WhatIfDatabase` wraps a real catalog and overrides
  ``relation()`` (to graft hypothetical B-trees onto relations) and
  ``index_summary()`` (to substitute another R-tree summary),
  delegating everything else verbatim.
- :func:`hypothetical_packed_summary` answers "what would this tree's
  summary be after ``REPACK``?" by running that rebuild's PACK through
  a summary sink (:func:`repro.rtree.stats.pack_levels`), which writes
  no node; the catalog caches the answer per generation
  (:meth:`~repro.relational.catalog.Database.packed_summary`).

``plan_query(WhatIfDatabase(db, ...), query)`` then prices the
hypothetical world with the production cost model, which is the entire
point: recommendations are judged by the same judge that will later
pick (or refuse to pick) the real index.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from repro.rtree.stats import IndexSummary

__all__ = ["WhatIfDatabase", "hypothetical_packed_summary",
           "packed_degradation"]

#: The reference window of :func:`packed_degradation`, as a fraction of
#: each universe side.
WINDOW_FRAC = 0.1


class _HypoBTree:
    """Stand-in for a B-tree that was never built.

    The planner only asks ``index_on(column) is None``; execution would
    ask more, which is exactly why :class:`WhatIfDatabase` must never be
    handed to an executor.
    """

    __slots__ = ("relation", "column")

    def __init__(self, relation: str, column: str):
        self.relation = relation
        self.column = column

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_HypoBTree({self.relation}.{self.column})"


class _HypoRelation:
    """A relation view with extra (hypothetical) B-tree indexes."""

    def __init__(self, relation: Any, columns: frozenset):
        self._relation = relation
        self._hypo_columns = columns

    def index_on(self, column: str):
        real = self._relation.index_on(column)
        if real is None and column in self._hypo_columns:
            return _HypoBTree(self._relation.name, column)
        return real

    def __len__(self) -> int:
        # ``__getattr__`` does not cover dunders looked up on the type.
        return len(self._relation)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._relation, name)


class WhatIfDatabase:
    """A read-only catalog view with hypothetical indexes grafted on.

    Args:
        db: the real catalog (never mutated).
        btrees: ``(relation, column)`` pairs that should appear indexed.
        summaries: ``(picture, relation, column) -> IndexSummary``
            overrides for R-tree statistics — e.g. the freshly packed
            summary of a degraded tree.

    Only :func:`repro.psql.planner.plan_query` should consume this
    object; it satisfies the planner's read surface by delegation and
    will raise if something tries to execute against a hypothetical
    index.
    """

    def __init__(self, db: Any,
                 btrees: Iterable[tuple[str, str]] = (),
                 summaries: Optional[Mapping[tuple[str, str, str],
                                             IndexSummary]] = None):
        self._db = db
        self._btrees: dict[str, frozenset] = {}
        grouped: dict[str, set] = {}
        for relation, column in btrees:
            grouped.setdefault(relation, set()).add(column)
        for relation, columns in grouped.items():
            self._btrees[relation] = frozenset(columns)
        self._summaries = dict(summaries or {})

    def relation(self, name: str):
        relation = self._db.relation(name)
        columns = self._btrees.get(name)
        if columns:
            return _HypoRelation(relation, columns)
        return relation

    def index_summary(self, picture_name: str, relation_name: str,
                      column: str = "loc"):
        override = self._summaries.get((picture_name, relation_name,
                                        column))
        if override is not None:
            return override
        return self._db.index_summary(picture_name, relation_name, column)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._db, name)


def hypothetical_packed_summary(db: Any, picture_name: str,
                                relation_name: str,
                                column: str = "loc") -> IndexSummary:
    """The :class:`IndexSummary` ``REPACK`` would leave this index with:
    :meth:`Database.packed_summary`, one PACK per index per generation,
    shared by HEALTH, ADVISE and MAINTAIN."""
    return db.packed_summary(picture_name, relation_name, column)


def packed_degradation(db: Any, picture_name: str, relation_name: str,
                       column: str = "loc",
                       ) -> tuple[float, IndexSummary, IndexSummary]:
    """How much worse the live tree is than its freshly packed self.

    Returns ``(ratio, current, packed)`` where *ratio* compares the
    expected node accesses of a reference window query
    (:data:`WINDOW_FRAC` of each universe side) on the current structure
    against the hypothetical packed one.  1.0 means "as good as packed";
    the Section 3.4 update problem drives it upward as inserts
    accumulate.
    """
    current = db.index_summary(picture_name, relation_name, column)
    packed = hypothetical_packed_summary(db, picture_name, relation_name,
                                         column)
    universe = db.picture(picture_name).universe
    if universe.width <= 0.0 or universe.height <= 0.0:
        # Degenerate universe (zero-area or a single point): the
        # reference window has no room to land, so there is no signal.
        # Report the no-data floor instead of dividing by zero below.
        return 1.0, current, packed
    w = universe.width * WINDOW_FRAC
    h = universe.height * WINDOW_FRAC
    now = current.expected_window_accesses(w, h)
    best = packed.expected_window_accesses(w, h)
    ratio = now / best if best > 0.0 else 1.0
    return ratio, current, packed
