"""Out-of-core bulk loading: the in-memory PACK with the sort out of core.

:meth:`DiskRTree.bulk_load` materialises every entry in memory before
packing — fine for Table 1's 900 points, fatal for inputs larger than
memory.  :func:`bulk_load_stream` writes the same tree, node for node
and page for page, for every sorted order (``str``, ``hilbert``,
``lowx``), holding at most ``run_size`` entries while it sorts and one
STR slab (plus merge buffers of at most ``run_size``) while it cuts.
The input is spilled once as the leaf level (the ``hilbert`` key needs
the data's MBR before anything can be sorted); then every level runs
the same three steps until a single root remains:

1. **Sort** — cut the level into runs of ``run_size`` entries, sort each
   by the order's key (:func:`repro.rtree.packing._order_key`), ties
   broken by input position, spill it, and ``heapq.merge`` the runs (a
   level that fits one run is sorted in memory).
2. **Cut** — :func:`repro.rtree.packing._cut_groups` cuts the merged
   stream into node groups: ``str`` slabs of ``ceil(sqrt(ceil(n/M)))·M``
   entries, each sorted by centre y, or runs of M for ``hilbert`` and
   ``lowx``.
3. **Emit** — the shared level emitter writes one node per group through
   the pager onto consecutive pages and yields the ``(MBR, page)``
   parent entries, which spill to the next level's file.

``adaptive`` is accepted as an alias of ``str``.  The offline rebuild
behind the server's ``REPACK`` verb,
:meth:`~repro.storage.disk_rtree.DiskRTree.rebuild`, runs this loader
into a fresh file beside the live one and swaps it in.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro import obs
from repro.geometry.rect import Rect
from repro.rtree.packing import (REBUILD_METHOD, SORT_ORDERS, _cut_groups,
                                 _emit_level, _level_sizes, _order_key)
from repro.storage.disk_rtree import _COMMIT_EVERY, _checked_oid, _NodeWriter

__all__ = [
    "SORT_KEYS",
    "BulkLoadStats",
    "bulk_load_stream",
]

#: One entry of a level file: x1, y1, x2, y2, ref (the object id at the
#: leaf level, the child page above it).
_ENTRY = struct.Struct("<ddddQ")
#: A sorted-run record: the (k1, k2) sort key, the entry's position in
#: its level, then the entry.
_KEYED = struct.Struct("<ddQddddQ")
#: Records per buffered read/write when streaming level and run files.
_IO_BATCH = 2048

#: Supported orders; ``adaptive`` is an alias of ``str``.
SORT_KEYS = (*SORT_ORDERS, "adaptive")


@dataclass(frozen=True)
class BulkLoadStats:
    """What one out-of-core bulk load did."""

    items: int           #: data objects loaded
    runs: int            #: sorted runs the leaf level was cut into
    levels: int          #: tree levels built (1 = root-only)
    nodes_written: int   #: node pages emitted, root included

    @property
    def height(self) -> int:
        """Edges from the root to the leaves."""
        return max(0, self.levels - 1)


# ---------------------------------------------------------------------------
# Level and run files
# ---------------------------------------------------------------------------


def _write_records(path: str, record: struct.Struct,
                   records: Iterable[tuple]) -> int:
    """Write *records* to *path*; returns how many were written."""
    records = iter(records)
    count = 0
    with open(path, "wb") as f:
        for batch in iter(lambda: list(
                itertools.islice(records, _IO_BATCH)), []):
            f.write(b"".join(record.pack(*rec) for rec in batch))
            count += len(batch)
    return count


def _read_records(path: str, record: struct.Struct,
                  batch: int = _IO_BATCH) -> Iterator[tuple]:
    """Stream the records of one level or run file, *batch* at a time."""
    with open(path, "rb") as f:
        while chunk := f.read(record.size * batch):
            if len(chunk) % record.size:
                raise ValueError(f"run file {path!r} is truncated")
            yield from record.iter_unpack(chunk)


def _spill_items(items: Iterable[tuple[Rect, int]], path: str,
                 ) -> tuple[int, tuple[float, ...]]:
    """Check and write the input as the leaf level; returns its count
    and MBR (the ``hilbert`` key's universe at every level)."""
    box: list[float] = []

    def entries() -> Iterator[tuple]:
        lx = ly = math.inf
        hx = hy = -math.inf
        for rect, oid in items:
            oid = _checked_oid(rect, oid)
            x1, y1, x2, y2 = rect
            lx, ly = min(lx, x1), min(ly, y1)
            hx, hy = max(hx, x2), max(hy, y2)
            yield x1, y1, x2, y2, oid
        box.extend((lx, ly, hx, hy))

    count = _write_records(path, _ENTRY, entries())
    return count, tuple(box)


def _sorted_level(path: str, count: int, order: str, key, run_size: int,
                  ) -> tuple[Iterator[tuple], int]:
    """The level of *count* entries at *path* in *key*'s order, and the
    number of sorted runs it was cut into.

    A level that fits one run is sorted in memory, as :func:`pack`
    sorts it.  Otherwise each run of *run_size* entries is sorted on
    (key, position in the level) and spilled beside *path*, and the
    runs are merged: ties keep the input order either way.
    """
    entries = _read_records(path, _ENTRY)
    if count <= run_size:
        return iter(sorted(entries, key=key)), 1
    # A run record holds a (k1, k2) pair: lowx keys are centre pairs
    # already, str and hilbert keys one number.
    pair = key if order == "lowx" else (lambda e: (key(e), 0.0))
    positioned = enumerate(entries)
    runs: list[str] = []
    while run := [pair(e) + (pos,) + e
                  for pos, e in itertools.islice(positioned, run_size)]:
        run.sort()
        runs.append(f"{path}.run{len(runs):06d}")
        _write_records(runs[-1], _KEYED, run)
    # The merge's read buffers hold at most one run's worth between them.
    batch = max(1, min(_IO_BATCH, run_size // len(runs)))
    merged = heapq.merge(*(_read_records(p, _KEYED, batch) for p in runs))
    return (r[3:] for r in merged), len(runs)


# ---------------------------------------------------------------------------
# The pipeline driver
# ---------------------------------------------------------------------------


def bulk_load_stream(tree, items: Iterable[tuple[Rect, int]], *,
                     method: str = REBUILD_METHOD, run_size: int = 100_000,
                     tmp_dir: Optional[str] = None,
                     commit_every: int = _COMMIT_EVERY) -> BulkLoadStats:
    """Bulk-load *items* into the (empty) DiskRTree *tree*, out of core.

    Writes the tree ``tree.bulk_load(items, method=method)`` writes,
    node for node, without holding the item set in memory: at most
    ``run_size`` entries while a level sorts, and one STR slab plus merge
    buffers of at most ``run_size`` entries while it is cut.

    Args:
        tree: an empty :class:`~repro.storage.disk_rtree.DiskRTree`.
        items: ``(Rect, oid)`` pairs; consumed once, lazily.
        method: ``"str"``, ``"hilbert"`` or ``"lowx"``; ``"adaptive"``
            is an alias of ``"str"``.
        run_size: entries per sorted run (the memory bound).
        tmp_dir: directory for spill files (default: the system tmpdir).
        commit_every: WAL-attached trees commit staged pages every this
            many node writes, bounding the staging buffer.

    Returns:
        A :class:`BulkLoadStats`.

    Raises:
        ValueError: when the tree is not empty, *run_size* < 2, or for a
            negative object id or an invalid rectangle (before any page
            is written).
        KeyError: for an unknown *method*.
    """
    with tree.lock:
        if len(tree):
            raise ValueError("bulk load requires an empty tree")
        if run_size < 2:
            raise ValueError("run_size must be at least 2")
        if method not in SORT_KEYS:
            raise KeyError(f"unknown bulk-load sort key {method!r}; "
                           f"choose from {sorted(SORT_KEYS)}")
        order = "str" if method == "adaptive" else method
        max_entries = tree.max_entries
        with obs.timer("rtree.bulkload.build"), \
                tempfile.TemporaryDirectory(
                    dir=tmp_dir, prefix="rtree-bulkload-") as run_dir:
            path = os.path.join(run_dir, "level000")
            with obs.timer("rtree.bulkload.spill"):
                count, universe = _spill_items(items, path)
            if count == 0:
                # An empty load must still leave a valid, durable tree:
                # the constructor's empty leaf root is already on its
                # page, so only the meta page needs (re)writing and
                # flushing.
                tree._write_meta()
                tree.flush()
                return BulkLoadStats(items=0, runs=0, levels=1,
                                     nodes_written=0)
            key = _order_key(order, universe)
            writer = _NodeWriter.fresh(
                tree, sum(_level_sizes(count, max_entries)), commit_every)
            n, level, leaf_runs = count, 0, 1
            while n > max_entries:
                ordered, runs = _sorted_level(path, n, order, key,
                                              run_size)
                leaf_runs = runs if level == 0 else leaf_runs
                parents = _emit_level(
                    _cut_groups(order, ordered, n, max_entries,
                                tree.pack_fill),
                    writer.write, level == 0, tree.pack_fill, level)
                level += 1
                path = os.path.join(run_dir, f"level{level:03d}")
                n = _write_records(path, _ENTRY, parents)
            (root,) = _emit_level([list(_read_records(path, _ENTRY))],
                                  writer.write, level == 0, level=level)
        assert root[4] == tree.root, "level size precomputation drifted"
        tree._size = count
        tree._write_meta()
        tree.flush()
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("rtree.bulkload.builds")
            reg.bump("rtree.bulkload.items", count)
            reg.bump("rtree.bulkload.runs", leaf_runs)
            reg.trace("rtree.bulkload", method=order, items=count,
                      runs=leaf_runs, levels=level + 1)
        return BulkLoadStats(items=count, runs=leaf_runs, levels=level + 1,
                             nodes_written=writer.nodes_written)

