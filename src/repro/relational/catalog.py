"""The catalog: relations, pictures and their spatial indexes.

The paper's architecture (Figure 1.1) pairs an alphanumeric data
processor with a pictorial processor.  The :class:`Database` catalog is
the seam between them: it owns the relations, the named *pictures*, and
for each (picture, relation, pictorial column) association a packed
R-tree whose leaf entries carry row ids — the paper's backward
identifiers from picture space into tuples (Section 2.1).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import Region
from repro.geometry.segment import Segment
from repro.relational.relation import Column, Relation, RowId, SchemaError
from repro.rtree.packing import REBUILD_METHOD, pack
from repro.rtree.repack import RepackResult, local_repack
from repro.rtree.stats import IndexSummary, pack_levels, summarize
from repro.rtree.tree import RTree, Tree


def index_items(relation: Relation, column: str,
                ) -> Iterator[tuple[Rect, RowId]]:
    """Stream ``(MBR, row id)`` index entries for *relation.column*.

    A generator on purpose: the out-of-core bulk loader consumes it
    lazily, so building a disk index never materialises the entry list.
    """
    for rid, row in relation.rows():
        yield mbr_of_value(row[column]), rid


def mbr_of_value(value: Any) -> Rect:
    """The MBR of a pictorial domain value (point / segment / region).

    Raises:
        TypeError: for values outside the pictorial domains.
    """
    if isinstance(value, Point):
        return Rect.from_point(value)
    if isinstance(value, (Segment, Region)):
        return value.mbr()
    if isinstance(value, Rect):
        return value
    raise TypeError(f"{type(value).__name__} is not a pictorial value")


def _check_pictorial(relation: Relation, column: str) -> None:
    """Raise :class:`SchemaError` unless *relation.column* is pictorial."""
    if not relation.column(column).is_pictorial:
        raise SchemaError(
            f"column {column!r} of {relation.name!r} is not pictorial")


class Picture:
    """A named picture with R-tree indexes over associated relations.

    One picture can index several relations (the paper's juxtaposition
    queries search two indexes over the same geographic area), and one
    relation can be associated with several pictures.
    """

    def __init__(self, name: str, universe: Rect):
        self.name = name
        self.universe = universe
        # (relation name, column name) -> index of (mbr, row id): an
        # in-memory RTree or a DiskRTree.
        self._indexes: dict[tuple[str, str], Tree] = {}

    def register(self, relation: Relation, column: str,
                 max_entries: int = 16, method: str = "nn") -> RTree:
        """Build a packed R-tree over *relation.column* for this picture.

        The initial index is PACKed (Section 3.3); later inserts into the
        relation go through :meth:`index_insert`, exercising the paper's
        Section 3.4 update path.

        Raises:
            SchemaError: when the column is not pictorial.
        """
        _check_pictorial(relation, column)
        tree = pack(index_items(relation, column), max_entries=max_entries,
                    method=method)
        self._indexes[(relation.name, column)] = tree
        return tree

    def register_disk(self, relation: Relation, column: str, path: str,
                      max_entries: Optional[int] = None, **tree_kwargs):
        """Build a disk-backed index over *relation.column* at *path*.

        The out-of-core counterpart of :meth:`register`: entries stream
        through :mod:`repro.rtree.bulkload` in the rebuild order
        (:data:`~repro.rtree.packing.REBUILD_METHOD`) into a
        :class:`~repro.storage.disk_rtree.DiskRTree` (*tree_kwargs*:
        ``page_size``, ``buffer_capacity``, ``wal_path`` and friends),
        so the index can exceed memory and starts as the tree
        ``REPACK`` builds (see :meth:`Database.rebuild_index`).

        Raises:
            SchemaError: when the column is not pictorial, or when the
                row ids are a heap file's ``RowAddress`` (no file is made).
        """
        from repro.relational.persistent import PersistentRelation
        from repro.storage.disk_rtree import DiskRTree

        _check_pictorial(relation, column)
        if isinstance(relation, PersistentRelation):
            raise SchemaError(
                f"relation {relation.name!r} has RowAddress row ids; a "
                f"disk index stores integer row ids")
        index = DiskRTree(path, max_entries=max_entries, **tree_kwargs)
        index.bulk_load_stream(index_items(relation, column))
        self._indexes[(relation.name, column)] = index
        return index

    def index(self, relation_name: str, column: str = "loc") -> Tree:
        """The R-tree for (relation, column).

        Raises:
            KeyError: when the association was never registered.
        """
        try:
            return self._indexes[(relation_name, column)]
        except KeyError:
            raise KeyError(
                f"picture {self.name!r} has no index for "
                f"{relation_name}.{column}") from None

    def has_index(self, relation_name: str, column: str = "loc") -> bool:
        return (relation_name, column) in self._indexes

    def index_insert(self, relation: Relation, column: str,
                     rid: RowId) -> None:
        """Reflect a relation insert into this picture's R-tree."""
        tree = self.index(relation.name, column)
        tree.insert(mbr_of_value(relation.get(rid)[column]), rid)

    def index_delete(self, relation: Relation, column: str, rid: RowId,
                     value: Any) -> bool:
        """Reflect a relation delete; *value* is the old pictorial value."""
        tree = self.index(relation.name, column)
        return tree.delete(mbr_of_value(value), rid)

    def associations(self) -> Iterator[tuple[str, str]]:
        """(relation, column) pairs indexed on this picture."""
        return iter(self._indexes)


class Database:
    """The top-level catalog of relations and pictures.

    Example::

        db = Database()
        cities = db.create_relation("cities", [
            Column("city", "str"), Column("population", "int"),
            Column("loc", "point")])
        ...
        us_map = db.create_picture("us-map", Rect(0, 0, 1000, 1000))
        us_map.register(cities, "loc")
        rids = db.spatial_search("us-map", "cities", window)
    """

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._pictures: dict[str, Picture] = {}
        self._locations: dict[str, Rect] = {}
        self._generation = 0
        # (picture, relation, column) -> (generation, IndexSummary) of
        # the live tree and of its would-be rebuild; entries from an
        # older generation are recomputed on access.
        self._index_summaries: dict[tuple[str, str, str],
                                    tuple[int, Any]] = {}
        self._packed_summaries: dict[tuple[str, str, str],
                                     tuple[int, Any]] = {}

    # -- data generation -------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every mutation of stored data.

        Anything whose validity depends on the database contents (most
        importantly the query server's result cache) keys itself on this
        number: a cached value tagged with an older generation is stale
        by definition.  :meth:`insert`, :meth:`delete` and :meth:`repack`
        bump it automatically; out-of-band mutations (e.g. writing to a
        :class:`Relation` directly) should call :meth:`bump_generation`.
        """
        return self._generation

    def bump_generation(self) -> int:
        """Advance the data generation; returns the new value."""
        self._generation += 1
        return self._generation

    # -- named locations -------------------------------------------------------

    def define_location(self, name: str, area: Rect) -> None:
        """Predefine a named location usable in at-clauses.

        Section 2.2: "The location variable may just be a name of a
        location predefined outside the retrieve mapping."  After
        ``db.define_location("eastern-us", Rect(...))`` a query may say
        ``at loc covered-by eastern-us``.

        Raises:
            ValueError: for invalid rectangles.
        """
        if not area.is_valid():
            raise ValueError(f"invalid location rectangle {area!r}")
        self._locations[name] = area

    def location(self, name: str) -> Rect:
        """A predefined location by name.

        Raises:
            KeyError: when no such location was defined.
        """
        try:
            return self._locations[name]
        except KeyError:
            raise KeyError(f"no location named {name!r}") from None

    def has_location(self, name: str) -> bool:
        return name in self._locations

    # -- relations ------------------------------------------------------------

    def create_relation(self, name: str,
                        columns: Iterable[Column]) -> Relation:
        """Create and register a relation.

        Raises:
            SchemaError: when the name is taken.
        """
        relation = Relation(name, columns)
        self.attach_relation(relation)
        return relation

    def attach_relation(self, relation: Relation) -> None:
        """Register an externally built relation (e.g. a disk-backed
        :class:`~repro.relational.persistent.PersistentRelation`).

        When the relation reports that its storage replayed a write-ahead
        log on open (``relation.recovered``), the data generation is
        bumped: whatever this process — or the query server's result
        cache — believed about the old on-disk state is stale by
        definition after a crash recovery.

        Raises:
            SchemaError: when the name is taken.
        """
        if relation.name in self._relations:
            raise SchemaError(f"relation {relation.name!r} already exists")
        self._relations[relation.name] = relation
        if relation.recovered:
            self._generation += 1

    def create_persistent_relation(self, name: str,
                                   columns: Iterable[Column], path: str,
                                   **storage_kwargs):
        """Create (or reopen) a durable disk-backed relation and attach it.

        Keyword arguments are forwarded to
        :class:`~repro.relational.persistent.PersistentRelation` —
        ``page_size``, ``buffer_capacity``, ``durable``, ``wal_sync``.
        """
        from repro.relational.persistent import PersistentRelation

        relation = PersistentRelation(name, list(columns), path,
                                      **storage_kwargs)
        self.attach_relation(relation)
        return relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"no relation named {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def relations(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    # -- pictures ------------------------------------------------------------

    def create_picture(self, name: str, universe: Rect) -> Picture:
        """Create and register a picture.

        Raises:
            SchemaError: when the name is taken.
        """
        if name in self._pictures:
            raise SchemaError(f"picture {name!r} already exists")
        picture = Picture(name, universe)
        self._pictures[name] = picture
        return picture

    def picture(self, name: str) -> Picture:
        try:
            return self._pictures[name]
        except KeyError:
            raise KeyError(f"no picture named {name!r}") from None

    def has_picture(self, name: str) -> bool:
        return name in self._pictures

    def pictures(self) -> Iterator[Picture]:
        return iter(self._pictures.values())

    # -- integrated operations ---------------------------------------------------

    def insert(self, relation_name: str, row: dict[str, Any]) -> RowId:
        """Insert a row and update every picture index that covers it.

        This is the paper's Section 2.3 update path: "an insertion or
        modification of a tuple should include spatial information for
        updating each of the spatial index[es] associated with the
        updated relation".
        """
        relation = self.relation(relation_name)
        rid = relation.insert(row)
        for picture in self._pictures.values():
            for col in relation.pictorial_columns():
                if picture.has_index(relation_name, col.name):
                    picture.index_insert(relation, col.name, rid)
        self._generation += 1
        return rid

    def delete(self, relation_name: str, rid: RowId) -> None:
        """Delete a row and purge it from every covering picture index."""
        relation = self.relation(relation_name)
        row = relation.get(rid)
        for picture in self._pictures.values():
            for col in relation.pictorial_columns():
                if picture.has_index(relation_name, col.name):
                    picture.index_delete(relation, col.name, rid,
                                         row[col.name])
        relation.delete(rid)
        self._generation += 1

    def repack(self, picture_name: str, relation_name: str,
               column: str = "loc",
               region: Optional[Rect] = None) -> RepackResult:
        """Locally re-PACK one picture index (Section 3.4's update path).

        Rebuilds the smallest subtree of the (picture, relation, column)
        R-tree covering *region* — the whole tree when ``region`` is
        ``None`` — in the rebuild order, and commits it with the tree's
        ``flush()``, both under the tree's lock.  Then it bumps the data
        generation so result caches keyed on it are invalidated (the
        tree's *contents* are unchanged, but its structure, and
        therefore any cached cost/trace-derived artefacts, are not).
        """
        tree = self.picture(picture_name).index(relation_name, column)
        with tree.lock:
            result = local_repack(tree, region=region)
            tree.flush()
        self._generation += 1
        return result

    def rebuild_index(self, picture_name: str, relation_name: str,
                      column: str = "loc") -> int:
        """Offline rebuild of one picture index from its relation.

        This is the ``REPACK`` verb's engine: the tree's own ``rebuild``
        in :data:`~repro.rtree.packing.REBUILD_METHOD`, in place and
        under the tree's lock.  A disk tree streams the relation through
        the out-of-core bulk loader into a fresh file which is
        atomically swapped under the live tree — a crash mid-rebuild
        leaves the old index readable; an in-memory tree is re-PACKed.
        Either way the data generation is bumped so the server's result
        cache drops everything derived from the old structure.

        Returns the number of entries in the rebuilt index.
        """
        index = self.picture(picture_name).index(relation_name, column)
        with index.lock:
            index.rebuild(index_items(self.relation(relation_name), column),
                          REBUILD_METHOD)
            count = len(index)
        self._generation += 1
        return count

    def index_summary(self, picture_name: str, relation_name: str,
                      column: str = "loc") -> IndexSummary:
        """Planner statistics for one picture index, cached per generation.

        Returns an :class:`~repro.rtree.stats.IndexSummary` built from
        the live index.  The summary is recomputed lazily whenever
        the data :attr:`generation` has moved past the cached one, so a
        plan costed from it always reflects the current tree structure.

        Raises:
            KeyError: when picture, relation or association is unknown.
        """
        picture = self.picture(picture_name)
        index = picture.index(relation_name, column)
        return self._cached(
            self._index_summaries, (picture_name, relation_name, column),
            lambda: summarize(index, picture.universe))

    def packed_summary(self, picture_name: str, relation_name: str,
                       column: str = "loc") -> IndexSummary:
        """The :class:`~repro.rtree.stats.IndexSummary` that
        :meth:`rebuild_index` would leave this index with, cached per
        generation like :meth:`index_summary`.

        Runs the rebuild's PACK — the same items in the same order, the
        same fanout, :data:`~repro.rtree.packing.REBUILD_METHOD` and the
        tree's trailing-node fill — through a sink that writes no node,
        so the answer is exactly the tree ``REPACK`` builds.

        Raises:
            KeyError: when picture, relation or association is unknown.
        """
        picture = self.picture(picture_name)
        index = picture.index(relation_name, column)
        relation = self.relation(relation_name)
        return self._cached(
            self._packed_summaries, (picture_name, relation_name, column),
            lambda: IndexSummary.of(
                pack_levels(index_items(relation, column),
                            index.max_entries, REBUILD_METHOD,
                            index.pack_fill),
                picture.universe))

    def _cached(self, cache: dict, key: tuple[str, str, str], compute):
        cached = cache.get(key)
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        value = compute()
        cache[key] = (self._generation, value)
        return value

    def spatial_search(self, picture_name: str, relation_name: str,
                       window: Rect, column: str = "loc",
                       within: bool = False) -> list[RowId]:
        """Direct spatial search: row ids of objects in *window*.

        Args:
            within: when True, only objects entirely inside the window
                (the paper's SEARCH uses WITHIN at the leaves); otherwise
                any intersecting object qualifies.
        """
        tree = self.picture(picture_name).index(relation_name, column)
        if within:
            return tree.search_within(window)
        return tree.search(window)

    def rows_for(self, relation_name: str,
                 rids: Iterable[RowId]) -> list[dict[str, Any]]:
        """Materialise rows from the ids a spatial search returned."""
        return self.relation(relation_name).get_many(rids)
