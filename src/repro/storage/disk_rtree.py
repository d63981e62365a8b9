"""A persistent, page-resident R-tree.

The tree of :mod:`repro.rtree.tree` on a page store: a node's ref is a
page number, and nodes are faulted in through a
:class:`~repro.storage.buffer.BufferPool` whose frames keep each page's
decoded entries beside its bytes.  Every query therefore has a
measurable page-I/O cost, which experiment E16 compares between packed
and dynamically grown trees.

Layout: page 1 is the tree's meta page (root page number, object count,
branching factor); every other allocated page holds one serialised node
(:mod:`repro.storage.serial`).  Object identifiers are non-negative
integers, exactly the tuple identifiers PSQL's ``loc`` column stores.
"""

from __future__ import annotations

import functools
import os
import struct
import threading
from typing import Iterable, Iterator, Optional, Sequence

from repro import obs
from repro.geometry.rect import Rect
from repro.rtree.packing import (
    REBUILD_METHOD,
    _level_sizes,
    _lookup_distance,
    _lookup_method,
    _pack_levels,
)
from repro.rtree.tree import Entry, Tree, node_mbr
from repro.storage import failpoints
from repro.storage.buffer import BufferPool
from repro.storage.pager import PAGE_SIZE, Pager, PagerError
from repro.storage.serial import (
    decode_node,
    encode_node,
    max_entries_per_page,
)

_META_FMT = "<QQII"  # root_page, size, max_entries, min_entries
_META_SIZE = struct.calcsize(_META_FMT)
_META_PAGE = 1
#: A whole-tree build on a WAL-attached file commits every this many
#: node pages, bounding the pager's staging buffer.
_COMMIT_EVERY = 1024

FP_SWAP_BEFORE = failpoints.declare(
    "bulkload.swap.before-replace",
    "fresh tree fully built and closed, live file not yet replaced "
    "(a crash must leave the old tree intact)")
FP_SWAP_AFTER = failpoints.declare(
    "bulkload.swap.after-replace",
    "live file already replaced by the fresh tree "
    "(a crash must leave the new tree readable)")


class TreeMetaError(PagerError):
    """The on-disk tree meta page is inconsistent with this file.

    Subclasses :class:`~repro.storage.pager.PagerError` so the server's
    storage-fault handling frames it like any other corrupt-file
    condition instead of crashing the worker.
    """


def _checked_oid(rect: Rect, oid) -> int:
    """*oid* as an int, once the item passes every loader's input checks.

    Raises:
        ValueError: for a negative object id or an invalid rectangle
            (inverted, NaN or infinite, see :meth:`Rect.is_valid`).
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
        self.nodes_written = 0

    @classmethod
    def fresh(cls, tree: "DiskRTree", nodes: int,
              commit_every: int = _COMMIT_EVERY) -> "_NodeWriter":
        """A sink for a whole tree of *nodes* nodes, root written last."""
        tree.pool.flush()
        pages = tree.pager.allocate_batch(nodes - 1)
        pages.append(tree.root)
        return cls(tree, iter(pages), commit_every)

    def write(self, group: Sequence[Entry], is_leaf: bool) -> Entry:
        """Emit one packed node; returns its ``(MBR, page)`` parent entry."""
        pager = self._tree.pager
        if (self._commit_every and self.nodes_written
                and self.nodes_written % self._commit_every == 0):
            pager.commit()
        page_no = (pager.allocate() if self._pages is None
                   else next(self._pages))
        self._tree.pool.invalidate(page_no)
        pager.write_page(page_no, encode_node(is_leaf, group))
        self.nodes_written += 1
        return node_mbr(group) + (page_no,)


class PageStore:
    """The page node store: a ref is a page number.

    :meth:`fetch` reads through :meth:`BufferPool.get_decoded`, so every
    node read counts in the pool's hits and misses while a resident page
    is decoded only once; :meth:`write` stages the encoded page together
    with the entries it came from as the frame's decoded image.
    """

    def __init__(self, pager: Pager, pool: BufferPool):
        self.pager = pager
        self.pool = pool
        #: ``fetch(page_no) -> (is_leaf, entries)``
        self.fetch = functools.partial(pool.get_decoded, decode=decode_node)

    def write(self, page_no: int, is_leaf: bool,
              entries: Sequence[Entry]) -> None:
        self.pool.put(page_no, encode_node(is_leaf, entries),
                      (is_leaf, entries))

    def allocate(self) -> int:
        return self.pager.allocate()

    def free(self, page_no: int) -> None:
        self.pool.invalidate(page_no)
        self.pager.free(page_no)

    def live_nodes(self) -> int:
        """Node pages: all but the header, the meta page and free pages."""
        return self.pager.page_count - 2 - len(self.pager._free_pages)


class DiskRTree(Tree):
    """The R-tree on pages, with the meta page and the bulk loaders.

    Args:
        path: backing file for the pager.
        max_entries: branching factor; defaults to what fits one page.
        page_size: pager page size.
        buffer_capacity: buffer pool frames.
        wal_path: attach a write-ahead log; node-page writes are then
            staged and committed atomically by :meth:`flush` (which maps
            to ``Pager.sync`` → WAL commit + data apply).
        wal_sync: commit durability, ``"fsync"`` or ``"none"``.

    Queries, Guttman INSERT/DELETE (splitting by R*'s choice), the walk
    and :meth:`validate` are :class:`~repro.rtree.tree.Tree`'s; use
    :meth:`bulk_load` for PACK-style construction.  ``pool.stats`` exposes
    hit/miss counts and ``pager.reads`` the physical I/O.
    """

    def __init__(self, path: str, max_entries: Optional[int] = None,
                 page_size: int = PAGE_SIZE, buffer_capacity: int = 64,
                 wal_path: Optional[str] = None, wal_sync: str = "fsync"):
        self._wal_path = wal_path
        self._wal_sync = wal_sync
        self.lock = threading.RLock()
        self._open(path, page_size, buffer_capacity)
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
        if self.pager.page_count <= _META_PAGE:
            # Fresh file: allocate the meta page and an empty leaf root.
            meta_page = self.pager.allocate()
            assert meta_page == _META_PAGE
            self.root = self.store.allocate()
            self.store.write(self.root, True, ())
            self._size = 0
            self._write_meta()
        else:
            self._read_meta()

    def _open(self, path: str, page_size: int, buffer_capacity: int) -> None:
        """(Re)open the page store on *path*."""
        pager = Pager(path, page_size=page_size, wal_path=self._wal_path,
                      wal_sync=self._wal_sync)
        self.store = PageStore(pager, BufferPool(pager,
                                                 capacity=buffer_capacity))

    @property
    def pager(self) -> Pager:
        return self.store.pager

    @property
    def pool(self) -> BufferPool:
        return self.store.pool

    #: The leaf-level scan under its page-tree name.
    leaf_items = Tree.items

    # -- meta ---------------------------------------------------------------

    def _write_meta(self) -> None:
        payload = struct.pack(_META_FMT, self.root, self._size,
                              self.max_entries, self.min_entries)
        self.pool.put(_META_PAGE, payload)

    def _read_meta(self) -> None:
        """Load the meta page, validated against this pager's geometry (a
        tree built with larger pages would overflow these on its next node
        write).

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
        self.root = root
        self._size = size
        self.max_entries = max_e
        self.min_entries = min_e

    # -- what the page tree adds to the shared core --------------------------

    def insert(self, rect: Rect, oid: int) -> None:
        """Guttman INSERT of *oid*, a non-negative integer, stored with
        *rect*'s coordinates as the f64s a page holds."""
        oid = _checked_oid(rect, oid)
        with self.lock:
            super().insert(Rect(*map(float, rect)), oid)
            self._write_meta()

    def delete(self, rect: Rect, oid: int) -> bool:
        """Guttman DELETE; returns False when the record is not present."""
        with self.lock:
            found = super().delete(rect, oid)
            if found:
                self._write_meta()
            return found

    @staticmethod
    def _count_query(nodes: int, leaves: int, tests: int, pruned: int,
                     results: int) -> None:
        reg = obs.active()
        reg.bump("storage.disk_rtree.queries")
        reg.bump("storage.disk_rtree.nodes_read", nodes)
        reg.bump("storage.disk_rtree.results", results)

    @staticmethod
    def _count_knn(nodes: int, results: int) -> None:
        """kNN on pages feeds no counter family."""

    def _pack_sink(self):
        """PACK's node sink for a splice (pages off the free list, never
        committed here) and the disk trees' trailing-node fill."""
        return _NodeWriter(self).write, self.pack_fill

    @property
    def pack_fill(self) -> int:
        """The trailing-node fill of every pack into this tree (see
        ``_emit_level``): a disk node never drops below it."""
        return min(self.min_entries, self.max_entries // 2)

    def rebuild(self, items: Iterable[tuple[Rect, int]], method: str,
                distance: str = "center") -> None:
        """Rebuild the whole tree from *items*, under the lock.

        The streamed loader builds a fresh file beside the live one
        (``<path>.rebuild``, without a WAL, fsynced by its close), which
        :meth:`_swap_in` then moves into place: the live tree stays
        readable until the swap instant.  Only the orders the
        out-of-core loader sorts apply, and none of them reads
        *distance*.

        Raises:
            ValueError: for an order the out-of-core loader cannot sort
                (``nn``), before any page is written.
        """
        from repro.rtree.bulkload import SORT_KEYS, bulk_load_stream

        if method not in SORT_KEYS:
            raise ValueError(
                f"a disk tree rebuilds out of core, which sorts only "
                f"{', '.join(SORT_KEYS)}; got {method!r}")
        with self.lock:
            fresh_path = self.pager.path + ".rebuild"
            if os.path.exists(fresh_path):
                os.remove(fresh_path)  # a stale one from an earlier crash
            with DiskRTree(fresh_path, max_entries=self.max_entries,
                           page_size=self.pager.page_size) as fresh:
                bulk_load_stream(fresh, items, method=method)
            self._swap_in(fresh_path)
            if obs.ENABLED:
                obs.active().bump("rtree.bulkload.swaps")

    def _swap_in(self, fresh_path: str) -> None:
        """Replace the backing file with the closed tree file at
        *fresh_path* by ``os.replace``, and reopen on it.

        The live pager is closed first (checkpointing any WAL).  Before
        the replace the old file is intact, after it the new one is
        complete and fsynced, so a crash at any instant leaves a
        readable tree; the failpoints :data:`FP_SWAP_BEFORE` and
        :data:`FP_SWAP_AFTER` let tests prove both halves.
        """
        path, page_size = self.pager.path, self.pager.page_size
        self.pager.close()
        if failpoints.ACTIVE:
            failpoints.hit(FP_SWAP_BEFORE)
        os.replace(fresh_path, path)
        if failpoints.ACTIVE:
            failpoints.hit(FP_SWAP_AFTER)
        self._open(path, page_size, self.pool.capacity)
        self._read_meta()

    # -- bulk load ---------------------------------------------------------------

    def bulk_load(self, items: Iterable[tuple[Rect, int]],
                  method: str = REBUILD_METHOD,
                  distance: str = "center") -> None:
        """PACK the items into a fresh tree, replacing current contents.

        The grouping strategies are shared with the in-memory packer
        (``nn``/``lowx``/``str``/``hilbert``; the default is the rebuild
        order, ``str``); nodes are written level by level onto
        consecutive pages, so the build performs sequential page writes
        — the construction-cost advantage PACK has in practice.  Unlike the in-memory PACK, the trailing node of each
        level is kept at the minimum fill.  Every item is checked before
        any page is written.

        Raises:
            ValueError: when the tree already contains objects (bulk load
                is an initial-construction operation, per Section 3.3),
                or for a negative object id or an invalid rectangle.
        """
        with self.lock:
            if self._size:
                raise ValueError("bulk_load requires an empty tree")
            group_fn = _lookup_method(method)
            distance_fn = _lookup_distance(distance)
            entries = [(*rect, _checked_oid(rect, oid))
                       for rect, oid in items]
            if entries:
                with obs.timer("storage.disk_rtree.bulk_load"):
                    writer = _NodeWriter.fresh(self, sum(
                        _level_sizes(len(entries), self.max_entries)))
                    root, _height = _pack_levels(
                        entries, self.max_entries, group_fn, distance_fn,
                        writer.write, self.pack_fill)
                assert root[4] == self.root, "level sizes drifted"
                self._size = len(entries)
            self._write_meta()

    def bulk_load_stream(self, items: Iterable[tuple[Rect, int]],
                         method: str = REBUILD_METHOD,
                         run_size: int = 100_000,
                         tmp_dir: Optional[str] = None) -> "BulkLoadStats":
        """:meth:`bulk_load`'s tree with at most *run_size* items
        resident; see :func:`repro.rtree.bulkload.bulk_load_stream`."""
        from repro.rtree.bulkload import bulk_load_stream

        return bulk_load_stream(self, items, method=method,
                                run_size=run_size, tmp_dir=tmp_dir)

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
        with self.lock:
            self.flush()
            pages_before = self.pager.page_count
            tmp_path = self.pager.path + ".vacuum"
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
            fresh = DiskRTree(tmp_path, max_entries=self.max_entries,
                              page_size=self.pager.page_size,
                              buffer_capacity=self.pool.capacity)
            # Recycle the constructor's empty root page as the copied
            # root so repeated vacuums are page-for-page stable.
            fresh.root = self._copy_into(fresh, self.root, into=fresh.root)
            fresh._size = self._size
            fresh._write_meta()
            fresh.flush()
            pages_after = fresh.pager.page_count
            fresh.pager.close()
            self._swap_in(tmp_path)
            return pages_before, pages_after

    def _copy_into(self, target: "DiskRTree", page_no: int,
                   into: Optional[int] = None) -> int:
        """Copy the subtree at *page_no* into *target*; return its new root.

        Depth-first: each node's children occupy consecutive pages in the
        new file, ahead of their parent.  *into* reuses an existing page
        of *target* for the subtree root instead of allocating one.
        """
        is_leaf, entries = self.store.fetch(page_no)
        if not is_leaf:
            entries = [e[:4] + (self._copy_into(target, e[4]),)
                       for e in entries]
        dest = target.store.allocate() if into is None else into
        target.store.write(dest, is_leaf, entries)
        return dest

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        """Write all dirty pages and the meta page to disk."""
        with self.lock:
            self._write_meta()
            self.pool.flush()
            self.pager.sync()

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        with self.lock:
            if self.pager.is_closed:
                return
            self.flush()
            self.pager.close()

    def __enter__(self) -> "DiskRTree":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
