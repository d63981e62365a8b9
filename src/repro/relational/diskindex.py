"""A disk-backed picture index: a DiskRTree behind one lock.

:class:`~repro.relational.catalog.Picture` normally holds in-memory
packed :class:`~repro.rtree.tree.RTree` indexes.  For the roadmap's
production-scale shape the index must live on disk and be rebuildable
*offline* — the server's ``REPACK`` verb streams the relation back
through :mod:`repro.rtree.bulkload` into a fresh file and atomically
swaps it under the live tree.

The wrapper exists for exactly that swap: queries and the rebuild race
on the same :class:`~repro.storage.disk_rtree.DiskRTree` object, and the
swap closes and reopens the pager.  Serialising every operation through
one re-entrant lock makes the swap atomic with respect to searches —
a searcher sees the old tree or the new tree, never a half-closed pager.

A disk-backed index supports the direct spatial search, point and
k-NN paths, the Section 3.4 update path and juxtaposition: the join
kernel (:mod:`repro.rtree.join`) descends the tree :meth:`locked` lends
it, against an in-memory or another disk tree.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.bulkload import BulkLoadStats, bulk_load_stream, \
    rebuild_tree_file
from repro.rtree.repack import local_repack
from repro.storage.disk_rtree import DiskRTree

__all__ = ["DiskSpatialIndex"]


class DiskSpatialIndex:
    """A thread-safe, rebuildable disk R-tree with the picture-index API.

    Args:
        path: backing file for the tree.
        max_entries: node fanout (``None`` = fill the page).
        tree_kwargs: forwarded to
            :class:`~repro.storage.disk_rtree.DiskRTree` — ``page_size``,
            ``buffer_capacity``, ``wal_path`` and friends.
    """

    def __init__(self, path: str, max_entries: Optional[int] = None,
                 **tree_kwargs):
        self._lock = threading.RLock()
        self._tree = DiskRTree(path, max_entries=max_entries, **tree_kwargs)

    # -- identity -----------------------------------------------------------

    @property
    def path(self) -> str:
        return self._tree.pager.path

    @property
    def max_entries(self) -> int:
        return self._tree.max_entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._tree)

    # -- the query API the executor drives ----------------------------------

    def search(self, window: Rect, **kwargs) -> list[int]:
        with self._lock:
            return self._tree.search(window, **kwargs)

    def search_within(self, window: Rect, **kwargs) -> list[int]:
        with self._lock:
            return self._tree.search_within(window, **kwargs)

    def point_query(self, point: Point, **kwargs) -> list[int]:
        with self._lock:
            return self._tree.point_query(point, **kwargs)

    def knn(self, point: Point, k: int = 1, **kwargs):
        with self._lock:
            return self._tree.knn(point, k, **kwargs)

    @contextmanager
    def locked(self) -> Iterator[DiskRTree]:
        """The tree itself, under the lock, for a caller (the join
        kernel) that reads many of its nodes as one operation."""
        with self._lock:
            yield self._tree

    def walk(self) -> list[tuple[int, int, bool, tuple]]:
        """Snapshot of the tree's level-order walk, for the planner."""
        with self._lock:
            return list(self._tree.walk())

    # -- the Section 3.4 update path -----------------------------------------

    def insert(self, rect: Rect, oid: int) -> None:
        with self._lock:
            self._tree.insert(rect, oid)

    def delete(self, rect: Rect, oid: int) -> bool:
        with self._lock:
            return self._tree.delete(rect, oid)

    # -- bulk loading and offline rebuild ------------------------------------

    def load(self, items: Iterable[tuple[Rect, int]]) -> BulkLoadStats:
        """Out-of-core bulk load into the (empty) tree, in the rebuild
        order."""
        with self._lock:
            return bulk_load_stream(self._tree, items)

    def rebuild(self, items: Iterable[tuple[Rect, int]], *,
                run_size: int = 100_000) -> BulkLoadStats:
        """Rebuild from *items* into a fresh file and atomically swap it.

        The lock is held for the duration: concurrent searches block and
        then run against the freshly swapped tree.  A crash mid-rebuild
        leaves the old file intact (see
        :func:`repro.rtree.bulkload.swap_tree_file`).
        """
        with self._lock:
            return rebuild_tree_file(self._tree, items, run_size=run_size)

    def local_repack(self, region: Optional[Rect] = None):
        """Incrementally re-PACK the subtree covering *region*.

        The lock is held throughout, so searches either see the old
        subtree or the spliced-in packed one.  A ``region`` of ``None``
        (or one straddling top-level partitions) falls through to the
        whole-tree atomic-swap rebuild.  Dirty pages are flushed before
        returning so the splice is durable.
        """
        with self._lock:
            result = local_repack(self._tree, region=region)
            self._tree.flush()
            return result

    @property
    def pack_fill(self) -> int:
        """The tree's trailing-node fill, which every rebuild packs to."""
        return self._tree.pack_fill

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            self._tree.flush()

    def close(self) -> None:
        with self._lock:
            self._tree.close()

    def __enter__(self) -> "DiskSpatialIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
