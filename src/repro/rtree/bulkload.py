"""Out-of-core bulk loading: external sort + streaming pack for DiskRTree.

:meth:`DiskRTree.bulk_load` materialises every entry in memory before
packing — fine for Table 1's 900 points, fatal for the millions of
objects the roadmap targets.  This module is the external-memory
counterpart of :mod:`repro.rtree.packing`: a three-phase pipeline whose
resident set is bounded by ``run_size`` items no matter how large the
input is.

1. **Spill** — stream the ``(rect, oid)`` items, writing fixed-size
   *raw runs* to disk while tracking the global MBR and count.
2. **Sort** — turn each raw run into a sorted run under a configurable
   spatial sort key (``hilbert`` — Kamel & Faloutsos packing order,
   ``lowx`` — the paper's ascending-x remark, ``str`` — Sort-Tile
   slabs, ``adaptive`` — sample-based ordering choice, below).  Runs
   are independent, so this phase optionally fans out to worker
   processes.
3. **Merge + pack** — k-way merge the sorted runs and stream fully
   packed leaf pages straight into the tree through the pager
   (sequential page writes, the construction-cost advantage PACK has in
   practice).  Each level's ``(MBR, child page)`` entries are spilled
   to a level file and packed the same way until a single root remains.

The ``adaptive`` method reservoir-samples the stream during the spill
phase, scores candidate orderings on the sample by the coverage +
overlap the resulting pseudo-nodes would have (the Section 3.1 cost
drivers), and picks the winner: data-adaptive quantile slabs (an STR
variant whose slab boundaries follow the sample's marginal distribution
on either axis) when the data is skewed enough for them to clearly win,
the global Hilbert order otherwise — uniform data falls back to
``hilbert`` by construction.  The choice is made once, before any run
is sorted, so every run (and every sort worker) shares one globally
consistent key and the k-way merge stays correct.

The module also provides the offline-rebuild primitive behind the
server's ``REPACK`` verb: :func:`build_tree_file` constructs a fresh
tree *beside* the live one and :func:`swap_tree_file` atomically
replaces it with ``os.replace``.  Two failpoints bracket the swap so the
crash-safety contract — a crash at any instant leaves a readable tree —
is testable with :mod:`repro.storage.failpoints`.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import os
import random
import struct
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro import obs
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.hilbert import hilbert_key
from repro.rtree.packing import _emit_level, _level_sizes
from repro.storage import failpoints
from repro.storage.disk_rtree import (_COMMIT_EVERY, DiskRTree,
                                      _checked_oid, _NodeWriter)
from repro.storage.pager import PAGE_SIZE

__all__ = [
    "SORT_KEYS",
    "AdaptiveChoice",
    "BulkLoadStats",
    "build_tree_file",
    "bulk_load_stream",
    "choose_adaptive_spec",
    "rebuild_tree_file",
    "swap_tree_file",
]

#: One item on disk: x1, y1, x2, y2, oid (raw runs and level files —
#: for level files the "oid" slot holds the child page number).
_RAW_FMT = "<ddddQ"
#: A sorted-run record: the (k1, k2) sort key prefix, then the raw item.
_KEYED_FMT = "<ddddddQ"
#: Records per buffered read/write when streaming run files.
_IO_BATCH = 2048

#: Supported external sort keys.
SORT_KEYS = ("hilbert", "lowx", "str", "adaptive")

#: Reservoir size for the adaptive partitioner's sample.
ADAPTIVE_SAMPLE_SIZE = 2048
#: A quantile-slab ordering must beat hilbert's sample score by this
#: factor to be chosen; otherwise the loader falls back to hilbert
#: (uniform data lands here — the orderings score about the same).
ADAPTIVE_MARGIN = 0.9
#: Fixed reservoir seed: the sample (and therefore the chosen ordering)
#: is a pure function of the input stream, so repeated builds — and
#: builds fanned out over sort workers — produce identical trees.
_ADAPTIVE_SEED = 0x5EED

FP_SWAP_BEFORE = failpoints.declare(
    "bulkload.swap.before-replace",
    "fresh tree fully built and closed, live file not yet replaced "
    "(a crash must leave the old tree intact)")
FP_SWAP_AFTER = failpoints.declare(
    "bulkload.swap.after-replace",
    "live file already replaced by the fresh tree "
    "(a crash must leave the new tree readable)")


@dataclass(frozen=True)
class BulkLoadStats:
    """What one out-of-core bulk load did."""

    items: int           #: data objects loaded
    runs: int            #: sorted runs spilled to disk
    levels: int          #: tree levels built (1 = root-only)
    nodes_written: int   #: node pages emitted, root included

    @property
    def height(self) -> int:
        """Edges from the root to the leaves."""
        return max(0, self.levels - 1)


@dataclass(frozen=True)
class _SortSpec:
    """Everything a (possibly remote) sort worker needs — plain data.

    ``method`` here is a *concrete* ordering — the public ``adaptive``
    method is resolved by the driver into one of ``hilbert`` /
    ``qslab-x`` / ``qslab-y`` before any run is sorted, so workers never
    have to re-derive the sample-based choice.
    """

    method: str
    universe: tuple[float, float, float, float]
    slab_count: int      #: STR vertical strips; 0 for other methods
    hilbert_order: int
    #: quantile slab boundaries (qslab-* only): upper edges of all but
    #: the last slab, on the slab axis
    bounds: tuple[float, ...] = ()


@dataclass(frozen=True)
class AdaptiveChoice:
    """What the adaptive partitioner decided, and why."""

    method: str                          #: hilbert / qslab-x / qslab-y
    sample_size: int                     #: items in the reservoir
    scores: tuple[tuple[str, float], ...]  #: (candidate, cost) pairs


# ---------------------------------------------------------------------------
# Run-file I/O
# ---------------------------------------------------------------------------


def _write_records(path: str, fmt: str, records: Iterable[tuple]) -> int:
    """Append-write *records* to *path*; returns how many were written."""
    pack = struct.Struct(fmt).pack
    count = 0
    with open(path, "wb") as f:
        buf: list[bytes] = []
        for rec in records:
            buf.append(pack(*rec))
            count += 1
            if len(buf) >= _IO_BATCH:
                f.write(b"".join(buf))
                buf.clear()
        if buf:
            f.write(b"".join(buf))
    return count


def _read_records(path: str, fmt: str) -> Iterator[tuple]:
    """Stream the records of one run file in bounded-size batches."""
    s = struct.Struct(fmt)
    batch = s.size * _IO_BATCH
    with open(path, "rb") as f:
        while True:
            chunk = f.read(batch)
            if not chunk:
                return
            if len(chunk) % s.size:
                raise ValueError(f"run file {path!r} is truncated")
            yield from s.iter_unpack(chunk)


# ---------------------------------------------------------------------------
# Phase 1: spill raw runs
# ---------------------------------------------------------------------------


def _spill_runs(items: Iterable[tuple[Rect, int]], run_dir: str,
                run_size: int, sample_size: int = 0,
                ) -> tuple[list[str], int, tuple[float, float, float, float],
                           list[tuple[float, float, float, float]]]:
    """Write raw runs of at most *run_size* items; track count + universe.

    With ``sample_size > 0`` a uniform reservoir sample of the item MBRs
    (algorithm R, fixed seed — deterministic for a given stream) is
    collected in the same pass and returned as the fourth element.
    """
    paths: list[str] = []
    count = 0
    ux1 = uy1 = math.inf
    ux2 = uy2 = -math.inf
    buf: list[tuple[float, float, float, float, int]] = []
    sample: list[tuple[float, float, float, float]] = []
    rng = random.Random(_ADAPTIVE_SEED) if sample_size else None

    def flush() -> None:
        if not buf:
            return
        path = os.path.join(run_dir, f"run{len(paths):06d}.raw")
        _write_records(path, _RAW_FMT, buf)
        paths.append(path)
        buf.clear()

    for rect, oid in items:
        oid = _checked_oid(rect, oid)
        buf.append((rect.x1, rect.y1, rect.x2, rect.y2, oid))
        if rng is not None:
            if count < sample_size:
                sample.append((rect.x1, rect.y1, rect.x2, rect.y2))
            else:
                j = rng.randrange(count + 1)
                if j < sample_size:
                    sample[j] = (rect.x1, rect.y1, rect.x2, rect.y2)
        count += 1
        if rect.x1 < ux1:
            ux1 = rect.x1
        if rect.y1 < uy1:
            uy1 = rect.y1
        if rect.x2 > ux2:
            ux2 = rect.x2
        if rect.y2 > uy2:
            uy2 = rect.y2
        if len(buf) >= run_size:
            flush()
    flush()
    return paths, count, (ux1, uy1, ux2, uy2), sample


# ---------------------------------------------------------------------------
# Phase 2: sort runs (optionally in worker processes)
# ---------------------------------------------------------------------------


def hilbert_sort_key(rect: Rect, universe: Rect, order: int = 16) -> int:
    """The Hilbert sort key the bulk loader orders *rect* by.

    The key of an object is the Hilbert curve index of its MBR center
    within *universe*.  Exposed because this ordering doubles as the
    cluster tier's partitioning axis: :mod:`repro.cluster.partition`
    carves the very same key space into contiguous per-shard ranges, so
    a shard's key range corresponds to a contiguous stretch of the
    bulk-load order.
    """
    center = Point((rect.x1 + rect.x2) / 2.0, (rect.y1 + rect.y2) / 2.0)
    return hilbert_key(center, universe, order)


def _key_fn(spec: _SortSpec) -> Callable[[tuple], tuple[float, float]]:
    """The (k1, k2) sort key for one raw record under *spec*."""
    ux1, uy1, ux2, uy2 = spec.universe
    if spec.method == "hilbert":
        universe = Rect(ux1, uy1, ux2, uy2)
        order = spec.hilbert_order

        def key(rec: tuple) -> tuple[float, float]:
            rect = Rect(rec[0], rec[1], rec[2], rec[3])
            return (float(hilbert_sort_key(rect, universe, order)), 0.0)

        return key
    if spec.method == "lowx":

        def key(rec: tuple) -> tuple[float, float]:
            return ((rec[0] + rec[2]) / 2.0, (rec[1] + rec[3]) / 2.0)

        return key
    if spec.method == "str":
        # Coordinate-based vertical strips (tile variant of STR: the
        # slab boundary is a fraction of the universe, not a rank, so
        # the key is computable without a first global sort).
        slabs = max(1, spec.slab_count)
        width = max(ux2 - ux1, 1e-300)

        def key(rec: tuple) -> tuple[float, float]:
            cx = (rec[0] + rec[2]) / 2.0
            cy = (rec[1] + rec[3]) / 2.0
            slab = min(slabs - 1, max(0, int((cx - ux1) / width * slabs)))
            return (float(slab), cy)

        return key
    if spec.method in ("qslab-x", "qslab-y"):
        # Quantile slabs: boundaries follow the sample's marginal
        # distribution instead of tiling the universe evenly, so every
        # slab holds about the same number of objects even under heavy
        # skew.  Within a slab, order by the cross axis (STR's second
        # pass).
        bounds = spec.bounds
        along_x = spec.method == "qslab-x"

        def key(rec: tuple) -> tuple[float, float]:
            cx = (rec[0] + rec[2]) / 2.0
            cy = (rec[1] + rec[3]) / 2.0
            c, cross = (cx, cy) if along_x else (cy, cx)
            return (float(bisect.bisect_right(bounds, c)), cross)

        return key
    raise KeyError(f"unknown bulk-load sort key {spec.method!r}; "
                   f"choose from {sorted(SORT_KEYS)}")


# ---------------------------------------------------------------------------
# The adaptive partitioner: score candidate orderings on a sample
# ---------------------------------------------------------------------------


def _quantile_bounds(values: list[float], slabs: int) -> tuple[float, ...]:
    """Upper boundaries of all but the last of *slabs* equal-count slabs."""
    ordered = sorted(values)
    n = len(ordered)
    return tuple(ordered[min(n - 1, (i * n) // slabs)]
                 for i in range(1, slabs))


def _partition_cost(sample: list[tuple[float, float, float, float]],
                    key, max_entries: int) -> float:
    """Coverage + overlap of the pseudo-nodes *key* would pack.

    Orders the sample, chunks it into groups of *max_entries* (the
    nodes a streaming pack would emit), and charges the total group-MBR
    area plus twice the pairwise group overlap — the two quantities
    Section 3.1 ties to search cost, with overlap weighted up because
    it forces multi-path descents on every query that lands in it.
    """
    ordered = sorted(sample, key=key)
    mbrs: list[tuple[float, float, float, float]] = []
    for i in range(0, len(ordered), max_entries):
        group = ordered[i:i + max_entries]
        mbrs.append((min(g[0] for g in group), min(g[1] for g in group),
                     max(g[2] for g in group), max(g[3] for g in group)))
    coverage = sum((x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in mbrs)
    overlap = 0.0
    by_x = sorted(mbrs)
    for i, (ax1, ay1, ax2, ay2) in enumerate(by_x):
        for bx1, by1, bx2, by2 in by_x[i + 1:]:
            if bx1 > ax2:
                break
            w = min(ax2, bx2) - bx1
            h = min(ay2, by2) - max(ay1, by1)
            if w > 0.0 and h > 0.0:
                overlap += w * h
    return coverage + 2.0 * overlap


def choose_adaptive_spec(sample: list[tuple[float, float, float, float]],
                         universe: tuple[float, float, float, float],
                         max_entries: int, leaf_count: int,
                         hilbert_order: int = 16,
                         ) -> tuple[_SortSpec, AdaptiveChoice]:
    """Resolve the ``adaptive`` method into a concrete sort spec.

    Scores the global Hilbert order against data-adaptive quantile
    slabs on either axis, each evaluated by the coverage/overlap its
    pseudo-nodes would exhibit on *sample*.  A slab ordering is chosen
    only when it beats hilbert by :data:`ADAPTIVE_MARGIN`; near-uniform
    data therefore falls back to hilbert.
    """
    slabs = max(1, math.ceil(math.sqrt(max(1, leaf_count))))
    base = dict(universe=universe, slab_count=slabs,
                hilbert_order=hilbert_order)
    hilbert_spec = _SortSpec(method="hilbert", **base)
    if len(sample) < 2 * max_entries or slabs < 2:
        # Too small to measure anything: a tree this size is near-optimal
        # under any ordering.
        choice = AdaptiveChoice(method="hilbert", sample_size=len(sample),
                                scores=(("hilbert", 0.0),))
        return hilbert_spec, choice
    xs = [(s[0] + s[2]) / 2.0 for s in sample]
    ys = [(s[1] + s[3]) / 2.0 for s in sample]
    candidates = {
        "hilbert": hilbert_spec,
        "qslab-x": _SortSpec(method="qslab-x", **base,
                             bounds=_quantile_bounds(xs, slabs)),
        "qslab-y": _SortSpec(method="qslab-y", **base,
                             bounds=_quantile_bounds(ys, slabs)),
    }
    # Score at the sample's own scale: the sample packs into
    # len(sample)/max_entries pseudo-leaves, so the slab count that
    # mimics the real build's node shape on the sample is the square
    # root of *that*, not of the full tree's leaf count.
    sample_slabs = max(2, math.ceil(
        math.sqrt(len(sample) / max_entries)))
    scoring_specs = {
        "hilbert": hilbert_spec,
        "qslab-x": _SortSpec(method="qslab-x", **base,
                             bounds=_quantile_bounds(xs, sample_slabs)),
        "qslab-y": _SortSpec(method="qslab-y", **base,
                             bounds=_quantile_bounds(ys, sample_slabs)),
    }
    scores = {name: _partition_cost(sample, _key_fn(spec), max_entries)
              for name, spec in scoring_specs.items()}
    best_slab = min(("qslab-x", "qslab-y"), key=lambda n: scores[n])
    chosen = (best_slab
              if scores[best_slab] < ADAPTIVE_MARGIN * scores["hilbert"]
              else "hilbert")
    choice = AdaptiveChoice(method=chosen, sample_size=len(sample),
                            scores=tuple(sorted(scores.items())))
    return candidates[chosen], choice


def _sort_run_task(raw_path: str, sorted_path: str, spec: _SortSpec) -> int:
    """Sort one raw run into a keyed run file (runs in worker processes).

    The full record participates in the sort after the key, so ties are
    broken identically no matter how items were distributed over runs.
    """
    key = _key_fn(spec)
    records = [key(rec) + rec for rec in _read_records(raw_path, _RAW_FMT)]
    records.sort()
    n = _write_records(sorted_path, _KEYED_FMT, records)
    os.remove(raw_path)
    return n


def _sort_runs(raw_paths: list[str], spec: _SortSpec,
               workers: int) -> list[str]:
    sorted_paths = [p + ".sorted" for p in raw_paths]
    if workers > 1 and len(raw_paths) > 1:
        import multiprocessing

        with ProcessPoolExecutor(
                max_workers=min(workers, len(raw_paths)),
                mp_context=multiprocessing.get_context("spawn")) as pool:
            list(pool.map(_sort_run_task, raw_paths, sorted_paths,
                          [spec] * len(raw_paths)))
    else:
        for raw, dest in zip(raw_paths, sorted_paths):
            _sort_run_task(raw, dest, spec)
    return sorted_paths


def _merge_sorted_runs(paths: list[str]) -> Iterator[tuple]:
    """K-way merge of keyed runs; yields records in global key order."""
    iters = [_read_records(p, _KEYED_FMT) for p in paths]
    if len(iters) == 1:
        return iters[0]
    return heapq.merge(*iters)


# ---------------------------------------------------------------------------
# Phase 3: streaming pack into the tree
# ---------------------------------------------------------------------------


def _chunks(records: Iterator[tuple], size: int) -> Iterator[list[tuple]]:
    """Consecutive runs of *size* records (the last one may be short)."""
    while chunk := list(itertools.islice(records, size)):
        yield chunk


def _build_from_stream(tree, leaf_records: Iterator[tuple], count: int,
                       run_dir: str, commit_every: int) -> tuple[int, int]:
    """Pack the ordered leaf-item stream into *tree*; returns
    ``(levels, nodes_written)``.

    Each level is run-packed through the shared level emitter and its
    ``(MBR, page)`` parent entries spill to a level file, which becomes
    the next level's input.
    """
    max_entries = tree.max_entries
    writer = _NodeWriter.fresh(tree, sum(_level_sizes(count, max_entries)),
                               commit_every)
    current: Iterator[tuple] = leaf_records
    current_count = count
    is_leaf = True
    level = 0
    while current_count > max_entries:
        parents = _emit_level(_chunks(current, max_entries), writer.write,
                              is_leaf, writer.min_fill, level)
        level_path = os.path.join(run_dir, f"level{level + 1:03d}.ent")
        current_count = _write_records(level_path, _RAW_FMT, parents)
        current = _read_records(level_path, _RAW_FMT)
        is_leaf = False
        level += 1
    (root,) = _emit_level([list(current)], writer.write, is_leaf,
                          level=level)
    assert root[4] == tree.root, "level size precomputation drifted"
    tree._size = count
    tree._write_meta()
    return level + 1, writer.nodes_written


# ---------------------------------------------------------------------------
# The pipeline driver
# ---------------------------------------------------------------------------


def bulk_load_stream(tree, items: Iterable[tuple[Rect, int]], *,
                     method: str = "hilbert", run_size: int = 100_000,
                     workers: int = 0, tmp_dir: Optional[str] = None,
                     hilbert_order: int = 16,
                     commit_every: int = _COMMIT_EVERY) -> BulkLoadStats:
    """Bulk-load *items* into the (empty) DiskRTree *tree*, out of core.

    Unlike :meth:`~repro.storage.disk_rtree.DiskRTree.bulk_load`, the
    item set is never held in memory: at most ``run_size`` items are
    resident at any instant, regardless of input size.

    Args:
        tree: an empty :class:`~repro.storage.disk_rtree.DiskRTree`.
        items: ``(Rect, oid)`` pairs; consumed once, lazily.
        method: external sort key — ``"hilbert"``, ``"lowx"``,
            ``"str"`` or ``"adaptive"`` (sample-based choice between
            hilbert and data-adaptive quantile slabs).
        run_size: items per sorted run (the memory bound).
        workers: worker processes for the sort phase; ``0``/``1`` sorts
            in-process.
        tmp_dir: directory for spill files (default: the system tmpdir).
        hilbert_order: curve order for the hilbert key.
        commit_every: WAL-attached trees commit staged pages every this
            many node writes, bounding the staging buffer.

    Returns:
        A :class:`BulkLoadStats`.

    Raises:
        ValueError: when the tree is not empty or *run_size* < 2.
        KeyError: for an unknown *method*.
    """
    if len(tree):
        raise ValueError("bulk load requires an empty tree")
    if run_size < 2:
        raise ValueError("run_size must be at least 2")
    if method not in SORT_KEYS:
        raise KeyError(f"unknown bulk-load sort key {method!r}; "
                       f"choose from {sorted(SORT_KEYS)}")
    with obs.timer("rtree.bulkload.build"), \
            tempfile.TemporaryDirectory(dir=tmp_dir,
                                        prefix="rtree-bulkload-") as run_dir:
        with obs.timer("rtree.bulkload.spill"):
            raw_paths, count, universe, sample = _spill_runs(
                items, run_dir, run_size,
                sample_size=(ADAPTIVE_SAMPLE_SIZE
                             if method == "adaptive" else 0))
        if count == 0:
            # An empty load must still leave a valid, durable tree: the
            # constructor's empty leaf root is already on its page, so
            # only the meta page needs (re)writing — and flushing, which
            # the non-empty path below gets from the shared tail.
            tree._write_meta()
            tree.flush()
            return BulkLoadStats(items=0, runs=0, levels=1, nodes_written=0)
        leaf_count = math.ceil(count / tree.max_entries)
        if method == "adaptive":
            spec, choice = choose_adaptive_spec(
                sample, universe, tree.max_entries, leaf_count,
                hilbert_order=hilbert_order)
            if obs.ENABLED:
                obs.active().bump(
                    f"rtree.bulkload.adaptive.{spec.method}")
                obs.active().trace(
                    "rtree.bulkload.adaptive", chosen=choice.method,
                    sample=choice.sample_size,
                    scores={k: round(v, 3) for k, v in choice.scores})
        else:
            spec = _SortSpec(method=method, universe=universe,
                             slab_count=math.ceil(math.sqrt(leaf_count)),
                             hilbert_order=hilbert_order)
        with obs.timer("rtree.bulkload.sort"):
            sorted_paths = _sort_runs(raw_paths, spec, workers)
        with obs.timer("rtree.bulkload.pack"):
            merged = _merge_sorted_runs(sorted_paths)
            leaf_records = (rec[2:] for rec in merged)
            levels, nodes = _build_from_stream(tree, leaf_records, count,
                                               run_dir, commit_every)
    tree.flush()
    if obs.ENABLED:
        reg = obs.active()
        reg.bump("rtree.bulkload.builds")
        reg.bump("rtree.bulkload.items", count)
        reg.bump("rtree.bulkload.runs", len(raw_paths))
        reg.trace("rtree.bulkload", method=method, items=count,
                  runs=len(raw_paths), levels=levels, workers=workers)
    return BulkLoadStats(items=count, runs=len(raw_paths), levels=levels,
                         nodes_written=nodes)


# ---------------------------------------------------------------------------
# Offline rebuild: build beside, swap atomically
# ---------------------------------------------------------------------------


def build_tree_file(path: str, items: Iterable[tuple[Rect, int]], *,
                    max_entries: Optional[int] = None,
                    page_size: int = PAGE_SIZE,
                    method: str = "hilbert", run_size: int = 100_000,
                    workers: int = 0,
                    tmp_dir: Optional[str] = None) -> BulkLoadStats:
    """Build a fresh, closed tree file at *path* (overwriting leftovers).

    The file is written without a WAL — its durability story is the
    atomic :func:`swap_tree_file` rename, not page-level logging — and
    is fsynced before this returns.
    """
    if os.path.exists(path):
        os.remove(path)  # a stale .rebuild from an earlier crash
    tree = DiskRTree(path, max_entries=max_entries, page_size=page_size)
    try:
        stats = bulk_load_stream(tree, items, method=method,
                                 run_size=run_size, workers=workers,
                                 tmp_dir=tmp_dir)
    finally:
        tree.close()
    return stats


def swap_tree_file(tree, fresh_path: str) -> None:
    """Atomically replace *tree*'s backing file with *fresh_path*.

    The live pager is closed (checkpointing any WAL), the fresh file is
    moved into place with ``os.replace``, and the tree reopens on it.
    Crash contract: before the replace the old tree file is intact and
    untouched; after it the new file is complete and fsynced — either
    way the next open finds a readable tree.  The bracketing failpoints
    :data:`FP_SWAP_BEFORE` / :data:`FP_SWAP_AFTER` let tests prove both
    halves.
    """
    path = tree.pager.path
    page_size = tree.pager.page_size
    capacity = tree.pool.capacity
    tree.pager.close()
    if failpoints.ACTIVE:
        failpoints.hit(FP_SWAP_BEFORE)
    os.replace(fresh_path, path)
    if failpoints.ACTIVE:
        failpoints.hit(FP_SWAP_AFTER)
    tree._open(path, page_size, capacity)
    tree._read_meta()
    if obs.ENABLED:
        obs.active().bump("rtree.bulkload.swaps")


def rebuild_tree_file(tree, items: Iterable[tuple[Rect, int]], *,
                      method: str = "hilbert", run_size: int = 100_000,
                      workers: int = 0,
                      tmp_dir: Optional[str] = None) -> BulkLoadStats:
    """Offline rebuild of *tree* from *items* with an atomic swap.

    The fresh tree is built beside the live file (``<path>.rebuild``),
    then swapped in via :func:`swap_tree_file`.  The live tree stays
    fully readable until the swap instant.
    """
    fresh_path = tree.pager.path + ".rebuild"
    stats = build_tree_file(fresh_path, items,
                            max_entries=tree.max_entries,
                            page_size=tree.pager.page_size,
                            method=method, run_size=run_size,
                            workers=workers, tmp_dir=tmp_dir)
    swap_tree_file(tree, fresh_path)
    return stats
