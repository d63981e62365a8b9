"""A persistent, page-resident R-tree.

Nodes live on pager pages and are faulted in through a
:class:`~repro.storage.buffer.BufferPool`; every query therefore has a
measurable page-I/O cost, which experiment E16 compares between packed
and dynamically grown trees.

Layout: page 1 is the tree's meta page (root page number, object count,
branching factor); every other allocated page holds one serialised node
(:mod:`repro.storage.serial`).  Object identifiers are non-negative
integers, exactly the tuple identifiers PSQL's ``loc`` column stores.
"""

from __future__ import annotations

import heapq
import math
import os
import struct
from typing import Iterable, Iterator, Optional, Sequence

from repro import obs
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.node import Entry
from repro.rtree.packing import (
    _level_sizes,
    _lookup_distance,
    _lookup_method,
    _pack_levels,
)
from repro.rtree.split import QuadraticSplit
from repro.storage.buffer import BufferPool
from repro.storage.pager import PAGE_SIZE, Pager, PagerError
from repro.storage.serial import (
    NodeRecord,
    deserialize_node,
    iter_node_entries,
    max_entries_per_page,
    serialize_node,
)

_META_FMT = "<QQII"  # root_page, size, max_entries, min_entries
_META_SIZE = struct.calcsize(_META_FMT)
_META_PAGE = 1
#: A whole-tree build on a WAL-attached file commits every this many
#: node pages, bounding the pager's staging buffer.
_COMMIT_EVERY = 1024

DiskEntry = tuple[float, float, float, float, int]


class TreeMetaError(PagerError):
    """The on-disk tree meta page is inconsistent with this file.

    Subclasses :class:`~repro.storage.pager.PagerError` so the server's
    storage-fault handling frames it like any other corrupt-file
    condition instead of crashing the worker.
    """


def _entry_rect(e: DiskEntry) -> Rect:
    return Rect(e[0], e[1], e[2], e[3])


def _mbr(entries: Sequence[DiskEntry]) -> tuple[float, float, float, float]:
    """``(x1, y1, x2, y2)`` bounding *entries*, from the raw coordinates."""
    x1s, y1s, x2s, y2s, _ptrs = zip(*entries)
    return min(x1s), min(y1s), max(x2s), max(y2s)


def _checked_oid(rect: Rect, oid) -> int:
    """*oid* as an int, once the item passes every loader's input checks.

    Raises:
        ValueError: for a negative object id or an invalid rectangle
            (inverted or NaN, see :meth:`Rect.is_valid`).
    """
    oid = int(oid)
    if oid < 0:
        raise ValueError("object ids must be non-negative integers")
    if not rect.is_valid():
        raise ValueError(f"invalid rectangle {rect!r}")
    return oid


class _NodeWriter:
    """The page sink of the PACK loop: nodes straight through the pager.

    A whole new tree (:meth:`fresh`) takes consecutive pages from one
    :meth:`Pager.allocate_batch` and lands its root, written last, on the
    tree's current (empty) root page, so no page is left unreachable.  A
    splice (``pages=None``) takes each page from :meth:`Pager.allocate`,
    i.e. from the free list the replaced subtree was just returned to.
    A page's pool frame is dropped before the write, so no stale frame
    can later be flushed over it.

    With a WAL attached, staged pages are committed every *commit_every*
    node writes (0: never, which is what a splice into a live tree
    needs: its commit is the caller's ``flush()``).  The check runs
    before a write, so the root is always committed by that flush,
    together with the meta page that points at it.  :meth:`fresh`
    first writes the pool's dirty frames back, so a commit made part-way
    through a build also holds the old meta page and root: a crash
    before the flush reopens as the tree it was before the load.
    """

    def __init__(self, tree: "DiskRTree",
                 pages: Optional[Iterator[int]] = None,
                 commit_every: int = 0):
        self._tree = tree
        self._pages = pages
        self._commit_every = (commit_every if tree.pager.wal is not None
                              else 0)
        #: The disk trees' trailing-node fill (see ``_emit_level``).
        self.min_fill = min(tree.min_entries, tree.max_entries // 2)
        self.nodes_written = 0

    @classmethod
    def fresh(cls, tree: "DiskRTree", nodes: int,
              commit_every: int = _COMMIT_EVERY) -> "_NodeWriter":
        """A sink for a whole tree of *nodes* nodes, root written last."""
        tree.pool.flush()
        pages = tree.pager.allocate_batch(nodes - 1)
        pages.append(tree.root_page)
        return cls(tree, iter(pages), commit_every)

    def write(self, group: Sequence[DiskEntry], is_leaf: bool) -> DiskEntry:
        """Emit one packed node; returns its ``(MBR, page)`` parent entry."""
        pager = self._tree.pager
        if (self._commit_every and self.nodes_written
                and self.nodes_written % self._commit_every == 0):
            pager.commit()
        page_no = (pager.allocate() if self._pages is None
                   else next(self._pages))
        self._tree.pool.invalidate(page_no)
        pager.write_page(page_no, serialize_node(
            NodeRecord(is_leaf=is_leaf, entries=tuple(group))))
        self.nodes_written += 1
        return _mbr(group) + (page_no,)

    def write_entries(self, group: list[Entry], is_leaf: bool) -> Entry:
        """:meth:`write` for the :class:`Entry` groups of ``_pack_levels``."""
        x1, y1, x2, y2, page_no = self.write(
            [e.rect + (e.oid,) for e in group], is_leaf)
        return Entry(rect=Rect(x1, y1, x2, y2), oid=page_no)


class DiskRTree:
    """Disk-backed R-tree with dynamic INSERT/DELETE and bulk loading.

    Args:
        path: backing file for the pager.
        max_entries: branching factor; defaults to what fits one page.
        page_size: pager page size.
        buffer_capacity: buffer pool frames.
        buffer_policy: page replacement policy ("lru" or "clock").
        wal_path: attach a write-ahead log; node-page writes are then
            staged and committed atomically by :meth:`flush` (which maps
            to ``Pager.sync`` → WAL commit + data apply).
        wal_sync: commit durability, ``"fsync"`` or ``"none"``.

    Use :meth:`bulk_load` for PACK-style construction, or :meth:`insert`
    for Guttman-style growth.  ``pool.stats`` exposes hit/miss counts and
    ``pager.reads`` the physical I/O.
    """

    def __init__(self, path: str, max_entries: Optional[int] = None,
                 page_size: int = PAGE_SIZE, buffer_capacity: int = 64,
                 buffer_policy: str = "lru",
                 wal_path: Optional[str] = None, wal_sync: str = "fsync"):
        self._wal_path = wal_path
        self._wal_sync = wal_sync
        self.pager = Pager(path, page_size=page_size, wal_path=wal_path,
                           wal_sync=wal_sync)
        self.pool = BufferPool(self.pager, capacity=buffer_capacity,
                               policy=buffer_policy)
        payload_capacity = page_size - 8  # pager page prefix
        fit = max_entries_per_page(payload_capacity)
        if max_entries is None:
            max_entries = fit
        if max_entries > fit:
            raise ValueError(
                f"branching factor {max_entries} does not fit a "
                f"{page_size}-byte page (max {fit})")
        if max_entries < 2:
            raise ValueError("branching factor must be at least 2")
        self.max_entries = max_entries
        self.min_entries = max(1, max_entries // 2)
        self._splitter = QuadraticSplit()
        if self.pager.page_count <= _META_PAGE:
            # Fresh file: allocate the meta page and an empty leaf root.
            meta_page = self.pager.allocate()
            assert meta_page == _META_PAGE
            self._root_page = self._write_node(
                self.pager.allocate(), NodeRecord(is_leaf=True, entries=()))
            self._size = 0
            self._write_meta()
        else:
            self._read_meta()

    # -- meta ---------------------------------------------------------------

    def _write_meta(self) -> None:
        payload = struct.pack(_META_FMT, self._root_page, self._size,
                              self.max_entries, self.min_entries)
        self.pool.put(_META_PAGE, payload)

    def _read_meta(self) -> None:
        """Load and *validate* the meta page.

        The stored branching factor was chosen for the page size the
        file was built with; trusting it blindly would let a tree built
        with larger pages serialise nodes that overflow this pager's
        pages on the next ``_write_node``.  Validate everything against
        the current geometry before accepting it.

        Raises:
            TreeMetaError: when the meta page is inconsistent.
        """
        payload = self.pool.get(_META_PAGE)
        if len(payload) < _META_SIZE:
            raise TreeMetaError(
                f"meta page holds {len(payload)} bytes, need {_META_SIZE}")
        root, size, max_e, min_e = struct.unpack_from(_META_FMT, payload)
        fit = max_entries_per_page(self.pager.page_size - 8)
        if not 2 <= max_e <= fit:
            raise TreeMetaError(
                f"stored branching factor {max_e} does not fit a "
                f"{self.pager.page_size}-byte page (valid range 2..{fit}); "
                f"the file was likely built with a different page size")
        if not 1 <= min_e <= max_e:
            raise TreeMetaError(
                f"stored minimum fill {min_e} is inconsistent with "
                f"branching factor {max_e}")
        if not _META_PAGE < root < self.pager.page_count:
            raise TreeMetaError(
                f"stored root page {root} is outside the file "
                f"(pages 2..{self.pager.page_count - 1})")
        self._root_page = root
        self._size = size
        self.max_entries = max_e
        self.min_entries = min_e

    # -- node I/O ---------------------------------------------------------------

    def _read_node(self, page_no: int) -> NodeRecord:
        return deserialize_node(self.pool.get(page_no))

    def _write_node(self, page_no: int, record: NodeRecord) -> int:
        self.pool.put(page_no, serialize_node(record))
        return page_no

    def _walk(self, page_no: int,
              ) -> Iterator[tuple[int, int, bool, list[DiskEntry]]]:
        """Level-order walk of the subtree at *page_no*.

        Yields ``(level, page, is_leaf, entries)`` per node, *page_no*
        itself at level 0.  Every whole-subtree read of the tree runs on
        this one walk.
        """
        frontier = [page_no]
        level = 0
        while frontier:
            below: list[int] = []
            for page in frontier:
                is_leaf, _count, entries = iter_node_entries(
                    self.pool.get(page))
                entries = list(entries)
                yield level, page, is_leaf, entries
                if not is_leaf:
                    below.extend(e[4] for e in entries)
            frontier = below
            level += 1

    # -- properties -----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def root_page(self) -> int:
        return self._root_page

    def depth(self) -> int:
        """Edges from the root down to the leaf level (one path's reads)."""
        depth = 0
        is_leaf, _count, entries = iter_node_entries(
            self.pool.get(self._root_page))
        while not is_leaf:
            is_leaf, _count, entries = iter_node_entries(
                self.pool.get(next(entries)[4]))
            depth += 1
        return depth

    def node_count(self) -> int:
        """Total nodes, root included (walks the whole tree)."""
        return self.subtree_node_count(self._root_page)

    def subtree_node_count(self, page_no: int) -> int:
        """Nodes in the subtree rooted at *page_no* (root included)."""
        return sum(1 for _ in self._walk(page_no))

    def leaf_items(self) -> Iterable[tuple[Rect, int]]:
        """Yield every stored ``(rect, oid)`` pair (leaf-level scan).

        Reads pages through the buffer pool and never mutates the file,
        so it is safe to consume while building a replacement tree
        beside this one (the offline-rebuild path).
        """
        for _level, _page, is_leaf, entries in self._walk(self._root_page):
            if is_leaf:
                for x1, y1, x2, y2, oid in entries:
                    yield Rect(x1, y1, x2, y2), oid

    def entry_rects(self) -> list[tuple[int, bool, Rect]]:
        """``(level, is_leaf_entry, rect)`` for every entry, level order.

        Level 1 is the root's own entries; an internal entry carries the
        level of the child node it bounds.  This feeds the planner's
        :func:`repro.relational.stats.summarize_index` without exposing
        pages or node records.
        """
        return [(level + 1, is_leaf, Rect(x1, y1, x2, y2))
                for level, _page, is_leaf, entries
                in self._walk(self._root_page)
                for x1, y1, x2, y2, _ptr in entries]

    # -- bulk load ---------------------------------------------------------------

    def bulk_load(self, items: Iterable[tuple[Rect, int]],
                  method: str = "nn", distance: str = "center") -> None:
        """PACK the items into a fresh tree, replacing current contents.

        The grouping strategies are shared with the in-memory packer
        (``nn``/``lowx``/``str``/``hilbert``); nodes are written level by
        level onto consecutive pages, so the build performs sequential
        page writes — the construction-cost advantage PACK has in
        practice.  Unlike the in-memory PACK, the trailing node of each
        level is kept at the minimum fill.  Every item is checked before
        any page is written.

        Raises:
            ValueError: when the tree already contains objects (bulk load
                is an initial-construction operation, per Section 3.3),
                or for a negative object id or an invalid rectangle.
        """
        if self._size:
            raise ValueError("bulk_load requires an empty tree")
        group_fn = _lookup_method(method)
        distance_fn = _lookup_distance(distance)
        entries = [Entry(rect=rect, oid=_checked_oid(rect, oid))
                   for rect, oid in items]
        if entries:
            with obs.timer("storage.disk_rtree.bulk_load"):
                writer = _NodeWriter.fresh(self, sum(
                    _level_sizes(len(entries), self.max_entries)))
                root, _height = _pack_levels(
                    entries, self.max_entries, group_fn, distance_fn,
                    writer.write_entries, writer.min_fill)
            assert root.oid == self._root_page, "level sizes drifted"
            self._size = len(entries)
        self._write_meta()

    def bulk_load_stream(self, items: Iterable[tuple[Rect, int]],
                         method: str = "hilbert", run_size: int = 100_000,
                         workers: int = 0,
                         tmp_dir: Optional[str] = None) -> "BulkLoadStats":
        """Out-of-core bulk load: external sort, then streaming pack.

        The disk-friendly counterpart of :meth:`bulk_load` — items are
        spilled to sorted runs, k-way merged, and packed into node
        pages without ever materialising the item set in memory (the
        resident bound is ``run_size`` items).  See
        :func:`repro.rtree.bulkload.bulk_load_stream` for the knobs.

        Raises:
            ValueError: when the tree already contains objects.
        """
        from repro.rtree.bulkload import bulk_load_stream

        return bulk_load_stream(self, items, method=method,
                                run_size=run_size, workers=workers,
                                tmp_dir=tmp_dir)

    # -- search ---------------------------------------------------------------

    @staticmethod
    def _count_query(nodes: int, results: int) -> None:
        reg = obs.active()
        reg.bump("storage.disk_rtree.queries")
        reg.bump("storage.disk_rtree.nodes_read", nodes)
        reg.bump("storage.disk_rtree.results", results)

    def search(self, window: Rect, stats=None) -> list[int]:
        """Object ids whose rectangle intersects *window*.

        Entries are iterated as raw ``(x1, y1, x2, y2, ptr)`` tuples
        straight off the buffered page payload and tested inline — no
        :class:`NodeRecord`, no per-entry :class:`Rect`.  *stats* is any
        object with a ``record_page(is_leaf, nentries)`` method, e.g.
        :class:`~repro.rtree.search.SearchStats`.
        """
        out: list[int] = []
        stack = [self._root_page]
        nodes = 0
        wx1, wy1, wx2, wy2 = window
        pool_get = self.pool.get
        while stack:
            is_leaf, count, entries = iter_node_entries(
                pool_get(stack.pop()))
            nodes += 1
            if stats is not None:
                stats.record_page(is_leaf, count)
            hits = out if is_leaf else stack
            for x1, y1, x2, y2, ptr in entries:
                if x1 <= wx2 and wx1 <= x2 and y1 <= wy2 and wy1 <= y2:
                    hits.append(ptr)
        if obs.ENABLED:
            self._count_query(nodes, len(out))
        return out

    def search_within(self, window: Rect, stats=None) -> list[int]:
        """Object ids whose rectangle lies entirely within *window*.

        The paper's SEARCH semantics (INTERSECTS to descend, WITHIN at
        the leaves), mirroring :meth:`repro.rtree.tree.RTree.search_within`.
        See :meth:`search` for *stats*.
        """
        out: list[int] = []
        stack = [self._root_page]
        nodes = 0
        wx1, wy1, wx2, wy2 = window
        pool_get = self.pool.get
        while stack:
            is_leaf, count, entries = iter_node_entries(
                pool_get(stack.pop()))
            nodes += 1
            if stats is not None:
                stats.record_page(is_leaf, count)
            if is_leaf:
                for x1, y1, x2, y2, ptr in entries:
                    if wx1 <= x1 and x2 <= wx2 and wy1 <= y1 and y2 <= wy2:
                        out.append(ptr)
            else:
                for x1, y1, x2, y2, ptr in entries:
                    if x1 <= wx2 and wx1 <= x2 and y1 <= wy2 and wy1 <= y2:
                        stack.append(ptr)
        if obs.ENABLED:
            self._count_query(nodes, len(out))
        return out

    def point_query(self, point: Point, stats=None) -> list[int]:
        """Object ids whose rectangle contains *point*.

        See :meth:`search` for *stats*.
        """
        out: list[int] = []
        stack = [self._root_page]
        nodes = 0
        px, py = point.x, point.y
        pool_get = self.pool.get
        while stack:
            is_leaf, count, entries = iter_node_entries(
                pool_get(stack.pop()))
            nodes += 1
            if stats is not None:
                stats.record_page(is_leaf, count)
            hits = out if is_leaf else stack
            for x1, y1, x2, y2, ptr in entries:
                if x1 <= px <= x2 and y1 <= py <= y2:
                    hits.append(ptr)
        if obs.ENABLED:
            self._count_query(nodes, len(out))
        return out

    def knn(self, point: Point, k: int = 1,
            stats=None) -> list[tuple[float, int]]:
        """The *k* objects nearest *point*, as ``(distance, oid)`` pairs.

        Best-first MINDIST branch-and-bound over pages (the disk-resident
        version of :func:`repro.rtree.search.knn_search`); only pages
        whose MBR could contain a result are faulted in.  MINDIST is
        computed on the raw entry floats and equals, bit for bit,
        :meth:`~repro.geometry.rect.Rect.min_distance_to` of the
        degenerate query rectangle.

        Raises:
            ValueError: for non-positive *k*.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if self._size == 0:
            return []
        px, py = point.x, point.y
        counter = 0
        # Heap items: (distance, tiebreak, is_object, page_or_oid)
        heap: list[tuple[float, int, bool, int]] = [
            (0.0, counter, False, self._root_page)]
        out: list[tuple[float, int]] = []
        pool_get = self.pool.get
        hypot = math.hypot
        heappush, heappop = heapq.heappush, heapq.heappop
        while heap and len(out) < k:
            dist, _tb, is_object, ref = heappop(heap)
            if is_object:
                out.append((dist, ref))
                continue
            is_leaf, count, entries = iter_node_entries(pool_get(ref))
            if stats is not None:
                stats.record_page(is_leaf, count)
            for x1, y1, x2, y2, ptr in entries:
                counter += 1
                dx = x1 - px
                if dx < px - x2:
                    dx = px - x2
                if dx < 0.0:
                    dx = 0.0
                dy = y1 - py
                if dy < py - y2:
                    dy = py - y2
                if dy < 0.0:
                    dy = 0.0
                heappush(heap, (hypot(dx, dy), counter, is_leaf, ptr))
        return out

    # -- insert -----------------------------------------------------------------

    def insert(self, rect: Rect, oid: int) -> None:
        """Guttman INSERT against the on-page representation."""
        oid = _checked_oid(rect, oid)
        path = self._choose_leaf_path(rect)
        leaf_page = path[-1]
        node = self._read_node(leaf_page)
        entries = list(node.entries)
        entries.append((rect.x1, rect.y1, rect.x2, rect.y2, oid))
        self._store_and_adjust(path, entries, is_leaf=True)
        self._size += 1
        self._write_meta()

    def _choose_leaf_path(self, rect: Rect) -> list[int]:
        """Page numbers from the root to the chosen leaf."""
        path = [self._root_page]
        node = self._read_node(self._root_page)
        while not node.is_leaf:
            best_page = -1
            best_enlargement = float("inf")
            best_area = float("inf")
            for e in node.entries:
                er = _entry_rect(e)
                enlargement = er.enlargement(rect)
                area = er.area()
                if (enlargement < best_enlargement
                        or (enlargement == best_enlargement
                            and area < best_area)):
                    best_page = e[4]
                    best_enlargement = enlargement
                    best_area = area
            path.append(best_page)
            node = self._read_node(best_page)
        return path

    def _store_and_adjust(self, path: list[int], entries: list[DiskEntry],
                          is_leaf: bool) -> None:
        """Write the modified node, splitting and propagating as needed.

        Each node's MBR comes from the entries just written to it; no
        page is read back.
        """
        level = len(path) - 1
        page_no = path[level]

        while True:
            sibling: Optional[DiskEntry] = None  # (mbr, page)
            if len(entries) > self.max_entries:
                entries, g2 = self._split_disk_entries(entries)
                self._write_node(page_no, NodeRecord(
                    is_leaf=is_leaf, entries=tuple(entries)))
                sib_page = self.pager.allocate()
                self._write_node(sib_page, NodeRecord(
                    is_leaf=is_leaf, entries=tuple(g2)))
                sibling = _mbr(g2) + (sib_page,)
            else:
                self._write_node(page_no, NodeRecord(
                    is_leaf=is_leaf, entries=tuple(entries)))

            if level == 0:
                if sibling is not None:
                    self._grow_root(_mbr(entries) + (page_no,), sibling)
                return
            # Update the parent entry for this page, then move up.
            node_entry = _mbr(entries) + (page_no,)
            parent_page = path[level - 1]
            parent_entries = [node_entry if e[4] == page_no else e
                              for e in self._read_node(parent_page).entries]
            if sibling is not None:
                parent_entries.append(sibling)
            level -= 1
            page_no = parent_page
            entries = parent_entries
            is_leaf = False

    def _split_disk_entries(self,
                            entries: list[DiskEntry],
                            ) -> tuple[list[DiskEntry], list[DiskEntry]]:
        wrapped = [Entry(rect=_entry_rect(e), oid=e[4]) for e in entries]
        g1, g2 = self._splitter.split(wrapped, self.min_entries)
        return ([e.rect + (e.oid,) for e in g1],
                [e.rect + (e.oid,) for e in g2])

    def _grow_root(self, old_root: DiskEntry, sibling: DiskEntry) -> None:
        new_root = self.pager.allocate()
        self._write_node(new_root, NodeRecord(is_leaf=False,
                                              entries=(old_root, sibling)))
        self._root_page = new_root

    # -- delete ---------------------------------------------------------------

    def delete(self, rect: Rect, oid: int) -> bool:
        """Delete one record; returns False when it is not present.

        Underfull nodes are dissolved and their remaining objects
        re-inserted (a leaf-level variant of Guttman's CondenseTree —
        orphaned subtrees are flattened to data entries before
        re-insertion, which preserves correctness at some extra I/O).
        """
        found = self._find_leaf_path(self._root_page, rect, oid, [])
        if found is None:
            return False
        path = found
        leaf_page = path[-1]
        node = self._read_node(leaf_page)
        entries = [e for e in node.entries
                   if not (e[4] == oid and _entry_rect(e) == rect)]
        self._size -= 1

        orphans: list[DiskEntry] = []
        if len(entries) < self.min_entries and len(path) > 1:
            orphans.extend(entries)
            self._detach(path)
        else:
            self._store_and_adjust(path, entries, is_leaf=True)
        for x1, y1, x2, y2, orphan_oid in orphans:
            self._size -= 1  # insert() will re-increment
            self.insert(Rect(x1, y1, x2, y2), orphan_oid)
        self._collapse_root()
        self._write_meta()
        return True

    def _find_leaf_path(self, page_no: int, rect: Rect, oid: int,
                        prefix: list[int]) -> Optional[list[int]]:
        node = self._read_node(page_no)
        path = prefix + [page_no]
        if node.is_leaf:
            for e in node.entries:
                if e[4] == oid and _entry_rect(e) == rect:
                    return path
            return None
        for e in node.entries:
            if _entry_rect(e).intersects(rect):
                found = self._find_leaf_path(e[4], rect, oid, path)
                if found is not None:
                    return found
        return None

    def _detach(self, path: list[int]) -> None:
        """Remove the node at path[-1] from its parent, fixing MBRs up."""
        dead_page = path[-1]
        self.pool.invalidate(dead_page)
        self.pager.free(dead_page)
        parent_path = path[:-1]
        parent = self._read_node(parent_path[-1])
        entries = [e for e in parent.entries if e[4] != dead_page]
        if len(entries) < self.min_entries and len(parent_path) > 1:
            # The parent in turn became underfull: flatten its subtrees
            # into data entries and re-insert them.
            data = []
            for e in entries:
                data.extend(self._collect_leaf_entries(e[4])[0])
            self._detach(parent_path)
            for x1, y1, x2, y2, oid in data:
                self._size -= 1
                self.insert(Rect(x1, y1, x2, y2), oid)
        else:
            self._store_and_adjust(parent_path, entries, is_leaf=False)

    def _collect_leaf_entries(self, page_no: int,
                              ) -> tuple[list[DiskEntry], int, int]:
        """Free the subtree at *page_no*.

        Returns ``(leaf entries, nodes freed, height)``, the height in
        edges from *page_no* down to its leaves.
        """
        out: list[DiskEntry] = []
        pages = []
        height = 0
        for level, page, is_leaf, entries in self._walk(page_no):
            pages.append(page)
            if is_leaf:
                out.extend(entries)
                height = level
        for p in pages:
            self.pool.invalidate(p)
            self.pager.free(p)
        return out, len(pages), height

    def _collapse_root(self) -> None:
        node = self._read_node(self._root_page)
        while not node.is_leaf and len(node.entries) == 1:
            old = self._root_page
            self._root_page = node.entries[0][4]
            self.pool.invalidate(old)
            self.pager.free(old)
            node = self._read_node(self._root_page)

    # -- maintenance ------------------------------------------------------------

    def vacuum(self) -> tuple[int, int]:
        """Rewrite the backing file compactly, dropping free pages.

        Deletes leave freed pages in the file; after heavy update bursts
        (Section 3.4's workload) the file can be much larger than the
        live tree.  Vacuuming copies the live nodes into a fresh file
        (siblings land physically adjacent — good for window scans) and
        atomically swaps it in.

        Returns:
            ``(pages_before, pages_after)``.
        """
        self.flush()
        pages_before = self.pager.page_count
        tmp_path = self.pager.path + ".vacuum"
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        fresh = DiskRTree(tmp_path, max_entries=self.max_entries,
                          page_size=self.pager.page_size,
                          buffer_capacity=self.pool.capacity)
        # Recycle the constructor's empty root page as the copied root so
        # repeated vacuums are page-for-page stable.
        recycled_root = fresh._root_page
        fresh._root_page = self._copy_subtree_into(fresh, self._root_page,
                                                   into=recycled_root)
        fresh._size = self._size
        fresh._write_meta()
        fresh.flush()
        pages_after = fresh.pager.page_count
        fresh.pager.close()

        self.pager.close()  # checkpoints + truncates any WAL first
        os.replace(tmp_path, self.pager.path)
        self.pager = Pager(self.pager.path, page_size=self.pager.page_size,
                           wal_path=self._wal_path, wal_sync=self._wal_sync)
        self.pool = BufferPool(self.pager, capacity=self.pool.capacity,
                               policy=self.pool.policy)
        self._read_meta()
        return pages_before, pages_after

    def _copy_subtree_into(self, target: "DiskRTree", page_no: int,
                           into: Optional[int] = None) -> int:
        """Copy the subtree at *page_no* into *target*; return its new root.

        Depth-first: each node's children occupy consecutive pages in the
        new file, ahead of their parent.  *into* reuses an existing page
        of *target* for the subtree root instead of allocating one.
        """
        node = self._read_node(page_no)
        if node.is_leaf:
            dest = target.pager.allocate() if into is None else into
            return target._write_node(dest, node)
        new_entries = []
        for x1, y1, x2, y2, child in node.entries:
            new_child = self._copy_subtree_into(target, child)
            new_entries.append((x1, y1, x2, y2, new_child))
        dest = target.pager.allocate() if into is None else into
        return target._write_node(
            dest, NodeRecord(is_leaf=False, entries=tuple(new_entries)))

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        """Write all dirty pages and the meta page to disk."""
        self._write_meta()
        self.pool.flush()
        self.pager.sync()

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        if self.pager.is_closed:
            return
        self.flush()
        self.pager.close()

    def __enter__(self) -> "DiskRTree":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
