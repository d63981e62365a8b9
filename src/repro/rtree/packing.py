"""PACK — the paper's bulk-loading algorithm (Section 3.3) and comparators.

The paper's recursive PACK:

1. If at most M objects remain, they become the root.
2. Otherwise order the objects "by some spatial criterion (e.g. ascending
   x-coordinate)", then repeatedly take the first object and its M-1
   nearest neighbours (the ``NN`` function) to form one fully packed node.
3. Recurse on the list of node MBRs until a single root remains.

We also implement three comparative bulk loaders used in the ablation
experiments (E12):

- ``lowx``  — pure ascending-x run packing (no NN step); the strawman the
  paper's "e.g. ascending x-coordinate" remark suggests as the ordering.
- ``str``   — Sort-Tile-Recursive (Leutenegger et al. 1997), the method
  this paper directly inspired, and :data:`REBUILD_METHOD`: the order
  every rebuild the system serves packs with.
- ``hilbert`` — Hilbert-value run packing (Kamel & Faloutsos 1993).

The three sorted orders share one sort key per order and one cutter
(:func:`_order_key`, :func:`_cut_groups`) with the out-of-core loader
(:mod:`repro.rtree.bulkload`), which runs the same sort out of core.

All builders return a fully functional :class:`~repro.rtree.tree.RTree`
that supports subsequent dynamic INSERT/DELETE, as Section 3.4 requires.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from repro import obs
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.hilbert import hilbert_key
from repro.rtree.split import SplitStrategy
from repro.rtree.tree import Entry, ListStore, RTree, node_mbr

Item = tuple[Rect, Any]
DistanceFn = Callable[[Rect, Rect], float]

#: The orders that sort a level and cut it, in memory or out of core.
SORT_ORDERS = ("lowx", "str", "hilbert")

#: The one order every rebuild the system serves packs with: REPACK and
#: local repack on both tree forms, the disk loaders' default, the
#: maintenance daemon and the what-if that prices them.  On the
#: ``disk_search`` workload's shape at M=102, STR reads the fewest nodes
#: per window and kNN query of the orders and builds ~35x faster than
#: NN (``bench_ablation_packers.py``).  ``pack()`` keeps the paper's
#: ``nn`` as its default for the reproduction.
REBUILD_METHOD = "str"


def _center_distance(a: Rect, b: Rect) -> float:
    return a.center_distance_to(b)


def _mbr_enlargement_distance(a: Rect, b: Rect) -> float:
    """Area of the union MBR — the "minimise the resulting MBR" variant.

    The paper notes it "may be preferable to select the 4 items
    simultaneously ... such that the area of the resulting associated MBR
    is minimized, but this could be combinatorially explosive"; greedily
    minimising the running union area is the tractable middle ground.
    """
    return a.union(b).area()


_DISTANCES: dict[str, DistanceFn] = {
    "center": _center_distance,
    "enlargement": _mbr_enlargement_distance,
}


def _center(e: Entry) -> tuple[float, float]:
    """Centre of an entry's rectangle (what :meth:`Rect.center` computes)."""
    return (e[0] + e[2]) / 2.0, (e[1] + e[3]) / 2.0


# ---------------------------------------------------------------------------
# Grouping strategies: each maps a list of entries to a list of groups of
# size <= M, which _emit_level turns into one node per group.
# ---------------------------------------------------------------------------


def _group_nearest_neighbor(entries: list[Entry], max_entries: int,
                            distance: DistanceFn,
                            _min_fill: int = 0) -> list[list[Entry]]:
    """The paper's NN grouping.

    Entries are ordered by ascending centre x-coordinate; the head of the
    list seeds each node and pulls in its ``M - 1`` nearest remaining
    neighbours.  A uniform grid over entry centres accelerates the NN scan
    from O(n) to near O(1) per query without changing the result.
    """
    ordered = sorted(entries, key=_center)
    if len(ordered) <= max_entries:
        return [ordered]
    finder = _NeighborFinder(ordered, distance)
    groups: list[list[Entry]] = []
    while finder:
        seed = finder.pop_first()
        group = [ordered[seed]]
        while len(group) < max_entries and finder:
            group.append(ordered[finder.pop_nearest(seed)])
        groups.append(group)
    return groups


class _NeighborFinder:
    """Mutable set of entry positions supporting pop-first (by the
    presorted order) and pop-nearest-to-seed queries.

    Uses a uniform grid bucketed by entry centres.  Grid cell size is
    chosen so the expected occupancy is a few entries per cell; the search
    expands ring by ring until the best candidate provably beats every
    unexplored ring.  Falls back to a full scan for non-metric distance
    functions (anything other than centre distance), where ring pruning is
    unsound.
    """

    def __init__(self, ordered: Sequence[Entry], distance: DistanceFn):
        self._distance = distance
        self._rects = [Rect(e[0], e[1], e[2], e[3]) for e in ordered]
        self._alive: dict[int, Entry] = dict(enumerate(ordered))
        self._next = 0
        if distance is _center_distance and len(ordered) > 64:
            self._grid: Optional[_CenterGrid] = _CenterGrid(ordered)
        else:
            self._grid = None

    def __bool__(self) -> bool:
        return bool(self._alive)

    def pop_first(self) -> int:
        """Remove and return the first still-alive position in sorted order."""
        while self._next not in self._alive:
            self._next += 1
        return self._pop(self._next)

    def pop_nearest(self, seed: int) -> int:
        """Remove and return the position nearest *seed* (the paper's NN)."""
        if obs.ENABLED:
            obs.active().bump("rtree.pack.nn_scans")
        if self._grid is not None:
            idx = self._grid.nearest(self._grid.center(seed), self._alive)
        else:
            rects = self._rects
            idx = min(self._alive,
                      key=lambda i: self._distance(rects[seed], rects[i]))
        return self._pop(idx)

    def _pop(self, idx: int) -> int:
        del self._alive[idx]
        if self._grid is not None:
            self._grid.discard(idx)
        return idx


class _CenterGrid:
    """Uniform grid over entry centres for accelerated nearest-neighbour."""

    def __init__(self, entries: Sequence[Entry]):
        centers = [Point(*_center(e)) for e in entries]
        xs = [c.x for c in centers]
        ys = [c.y for c in centers]
        self._x0 = min(xs)
        self._y0 = min(ys)
        width = max(max(xs) - self._x0, 1e-9)
        height = max(max(ys) - self._y0, 1e-9)
        # Aim for ~2 entries per cell.  Each axis is capped by the cell
        # budget: a degenerate point set (all centres collinear) makes
        # the aspect ratio explode, and an uncapped sqrt(n * aspect)
        # would build millions of columns whose ring scan never ends.
        n_cells = max(1, len(entries) // 2)
        aspect = width / height
        self._nx = min(n_cells, max(1, int(math.sqrt(n_cells * aspect))))
        self._ny = max(1, n_cells // self._nx)
        self._cw = width / self._nx
        self._ch = height / self._ny
        self._cells: dict[tuple[int, int], set[int]] = {}
        self._centers = centers
        for i, c in enumerate(centers):
            self._cells.setdefault(self._cell_of(c), set()).add(i)

    def center(self, idx: int) -> Point:
        return self._centers[idx]

    def _cell_of(self, p: Point) -> tuple[int, int]:
        cx = min(self._nx - 1, max(0, int((p.x - self._x0) / self._cw)))
        cy = min(self._ny - 1, max(0, int((p.y - self._y0) / self._ch)))
        return cx, cy

    def discard(self, idx: int) -> None:
        cell = self._cell_of(self._centers[idx])
        bucket = self._cells.get(cell)
        if bucket is not None:
            bucket.discard(idx)
            if not bucket:
                del self._cells[cell]

    def nearest(self, query: Point, alive: dict[int, Entry]) -> int:
        """Index of the alive entry whose centre is nearest *query*."""
        qx, qy = self._cell_of(query)
        best_idx = -1
        best_d2 = float("inf")
        ring = 0
        max_ring = max(self._nx, self._ny)
        min_side = min(self._cw, self._ch)
        while ring <= max_ring:
            for cx, cy in self._ring_cells(qx, qy, ring):
                for idx in self._cells.get((cx, cy), ()):
                    c = self._centers[idx]
                    d2 = (c.x - query.x) ** 2 + (c.y - query.y) ** 2
                    # Ties break toward the lowest index — the same
                    # winner a brute-force min() over the alive dict
                    # (insertion-ordered by index) would pick, so the
                    # grid is a pure accelerator, never a reordering.
                    if d2 < best_d2 or (d2 == best_d2 and idx < best_idx):
                        best_d2 = d2
                        best_idx = idx
            # Any cell in ring r+1 or beyond lies at least r * min_side from
            # the query point (the query sits somewhere inside its own cell),
            # so once the best candidate *strictly* beats that bound no
            # farther ring can improve on it — at exactly the bound a
            # farther ring could still hold an equal-distance entry with a
            # lower index, so keep scanning.
            if best_idx >= 0 and best_d2 < (ring * min_side) ** 2:
                break
            ring += 1
        assert best_idx >= 0, "grid lost track of alive entries"
        assert best_idx in alive
        return best_idx

    def _ring_cells(self, qx: int, qy: int,
                    ring: int) -> Iterable[tuple[int, int]]:
        if ring == 0:
            yield qx, qy
            return
        x_lo, x_hi = qx - ring, qx + ring
        y_lo, y_hi = qy - ring, qy + ring
        for cx in range(max(0, x_lo), min(self._nx - 1, x_hi) + 1):
            if 0 <= y_lo:
                yield cx, y_lo
            if y_hi < self._ny:
                yield cx, y_hi
        for cy in range(max(0, y_lo + 1), min(self._ny - 1, y_hi - 1) + 1):
            if 0 <= x_lo:
                yield x_lo, cy
            if x_hi < self._nx:
                yield x_hi, cy


def _order_key(method: str, universe: Optional[Sequence[float]],
               ) -> Callable[[Entry], Any]:
    """The key a level is sorted by before *method* cuts it into nodes.

    ``str`` sorts by centre x (the y pass is per slab, in
    :func:`_cut_groups`), ``lowx`` by centre (x, y), and ``hilbert`` by
    the Hilbert index of the centre within *universe*, the level's MBR
    (the same at every level of one tree).  Ties keep the input order,
    in memory (a stable sort) and out of core alike.
    """
    if method == "str":
        return lambda e: (e[0] + e[2]) / 2.0
    if method == "lowx":
        return _center
    if method == "hilbert":
        box = Rect(*universe)
        return lambda e: hilbert_key(Point(*_center(e)), box)
    raise KeyError(f"unknown sort key {method!r}; "
                   f"choose from {sorted(SORT_ORDERS)}")


def _chunks(entries: Iterator[Entry], size: int) -> Iterator[list[Entry]]:
    """Consecutive runs of *size* entries (the last one may be short)."""
    while chunk := list(itertools.islice(entries, size)):
        yield chunk


def _cut_groups(method: str, ordered: Iterator[Entry], n: int,
                max_entries: int, min_fill: int = 0,
                ) -> Iterator[list[Entry]]:
    """Cut a level of *n* entries, already in *method*'s order, into
    node groups.

    ``str`` (Sort-Tile-Recursive, Leutenegger et al. 1997) cuts the
    x-ordered level into slabs of ``ceil(sqrt(ceil(n/M)))`` nodes' worth
    of entries and orders each slab by centre y before cutting it into
    runs of M: Theorem 3.2's sorted runs on both axes.  A last slab of
    fewer than *min_fill* entries would be one node that the
    trailing-node rule merges with the top node of the slab before it,
    overlapping that slab; so the slab before it gives up the entries
    the last one lacks, from its x end.  The slabs stay x-disjoint and
    the level keeps its node count.  ``hilbert`` and ``lowx`` cut runs
    of M straight off the order.  Lazy, so the streamed loader holds one
    slab at a time.
    """
    if method != "str":
        yield from _chunks(ordered, max_entries)
        return
    slab_size = math.ceil(math.sqrt(math.ceil(n / max_entries))) * max_entries
    slabs = math.ceil(n / slab_size)
    lend = max(0, min_fill - (n - (slabs - 1) * slab_size)) if slabs > 1 else 0
    for i in range(slabs):
        slab = list(itertools.islice(
            ordered, slab_size - lend if i == slabs - 2 else slab_size))
        slab.sort(key=lambda e: (e[1] + e[3]) / 2.0)
        yield from _chunks(iter(slab), max_entries)


def _group_sorted(method: str, entries: list[Entry], max_entries: int,
                  _distance: DistanceFn,
                  min_fill: int = 0) -> Iterator[list[Entry]]:
    """Sort the level by *method*'s key, then cut it (in memory)."""
    universe = None
    if method == "hilbert":  # generators: no column copies of a level
        universe = (min(e[0] for e in entries), min(e[1] for e in entries),
                    max(e[2] for e in entries), max(e[3] for e in entries))
    ordered = sorted(entries, key=_order_key(method, universe))
    return _cut_groups(method, iter(ordered), len(entries), max_entries,
                       min_fill)


#: ``(entries, M, distance, min_fill) -> groups``.
GroupFn = Callable[[list[Entry], int, DistanceFn, int],
                   Iterable[list[Entry]]]

#: method name -> grouping function
PACK_METHODS: dict[str, GroupFn] = {
    "nn": _group_nearest_neighbor,
    **{m: functools.partial(_group_sorted, m) for m in SORT_ORDERS},
}


# ---------------------------------------------------------------------------
# The recursive PACK driver.
# ---------------------------------------------------------------------------


def pack(items: Iterable[Item], max_entries: int = 4,
         method: str = "nn", distance: str = "center",
         min_entries: Optional[int] = None,
         split: Union[str, SplitStrategy] = "rstar") -> RTree:
    """Bulk-load an R-tree from ``(rect, oid)`` pairs.

    This is the paper's recursive PACK (Section 3.3): group the data
    objects into fully packed leaves, then recursively pack the list of
    leaf MBRs until a single root node remains.

    Args:
        items: the data objects, each a ``(Rect, object-id)`` pair.
        max_entries: branching factor M (the paper uses 4).
        method: grouping strategy — ``"nn"`` (the paper's nearest-neighbour
            packing), ``"lowx"``, ``"str"`` or ``"hilbert"``.
        distance: NN distance — ``"center"`` (centre-to-centre, default) or
            ``"enlargement"`` (least resulting union area).
        min_entries / split: configuration for subsequent dynamic updates
            of the returned tree (Section 3.4); they do not affect packing.

    Returns:
        A fully packed :class:`RTree`.  An empty input yields an empty tree.

    Raises:
        KeyError: for an unknown *method* or *distance* name.
    """
    group_fn = _lookup_method(method)
    distance_fn = _lookup_distance(distance)
    entries = [(*rect, oid) for rect, oid in items]
    tree = RTree(max_entries=max_entries, min_entries=min_entries,
                 split=split)
    if not entries:
        return tree
    with obs.timer("rtree.pack.build"):
        tree.store = ListStore()
        root, _height = _pack_levels(entries, max_entries, group_fn,
                                     distance_fn, tree._new_node)
    tree.root, tree._size = root[4], len(entries)
    if obs.ENABLED:
        reg = obs.active()
        reg.bump("rtree.pack.builds")
        reg.bump("rtree.pack.items", len(entries))
        reg.trace("rtree.pack", method=method, items=len(entries),
                  max_entries=max_entries)
    return tree


def _lookup_method(method: str) -> GroupFn:
    try:
        return PACK_METHODS[method]
    except KeyError:
        raise KeyError(f"unknown pack method {method!r}; "
                       f"choose from {sorted(PACK_METHODS)}") from None


def _lookup_distance(distance: str) -> DistanceFn:
    try:
        return _DISTANCES[distance]
    except KeyError:
        raise KeyError(f"unknown distance {distance!r}; "
                       f"choose from {sorted(_DISTANCES)}") from None


#: A node sink: writes one node holding *group* and returns the entry its
#: parent stores for it.
Sink = Callable[[list, bool], Any]


def _emit_level(groups: Iterable[list], sink: Sink, is_leaf: bool,
                min_fill: int = 0, level: int = 0) -> Iterator[Any]:
    """Write one node per group through *sink*; yield the parent entries.

    The trailing-node rule lives here and only here.  The last two groups
    are held back, so it applies to a streamed level too: a final group
    smaller than *min_fill* merges with its left neighbour and the union
    splits ceil/floor.  For ``min_fill <= M / 2`` both halves land in
    ``[min_fill, M]`` and the level keeps its ``ceil(n/M)`` nodes
    (Theorem 3.2); the sorted order is kept, and the STR cut never
    leaves a merge across two slabs (:func:`_cut_groups`), so no overlap
    is added.
    Disk trees pass ``min(min_entries, M // 2)``; the in-memory PACK
    passes 0 and keeps the paper's trailing node, which Table 1
    reproduces.  *level* (0 = leaves) only labels the counters.
    """
    tail: list[list] = []
    emitted = 0  # one node per group: the tail rule keeps the count
    for emitted, group in enumerate(groups, 1):
        if len(tail) == 2:
            yield sink(tail.pop(0), is_leaf)
        tail.append(group)
    if len(tail) == 2 and len(tail[1]) < min_fill:
        combined = tail[0] + tail[1]
        half = (len(combined) + 1) // 2
        tail = [combined[:half], combined[half:]]
    for group in tail:
        yield sink(group, is_leaf)
    if obs.ENABLED:
        reg = obs.active()
        reg.bump("rtree.pack.nodes_emitted", emitted)
        reg.bump(f"rtree.pack.nodes_emitted.level{level}", emitted)


def _pack_levels(entries: list[Entry], max_entries: int, group_fn: GroupFn,
                 distance_fn: DistanceFn, sink: Sink,
                 min_fill: int = 0) -> tuple[Entry, int]:
    """The paper's PACK loop over any sink.

    Group the level into nodes of M, then pack the list of node entries
    the same way, until at most M remain: they become the root.  Returns
    the root's entry and the tree height (edges from root to leaves).
    """
    is_leaf = True
    level = 0
    while len(entries) > max_entries:
        groups = group_fn(entries, max_entries, distance_fn, min_fill)
        entries = list(_emit_level(groups, sink, is_leaf, min_fill, level))
        is_leaf = False
        level += 1
    (root,) = _emit_level([entries], sink, is_leaf, level=level)
    return root, level


def _level_sizes(n: int, max_entries: int) -> list[int]:
    """Node counts per level, leaves first, of a packed tree over *n*
    entries: the ``ceil(n/M)`` chain of Theorem 3.2."""
    sizes: list[int] = []
    while n > max_entries:
        n = math.ceil(n / max_entries)
        sizes.append(n)
    return sizes + [1]


# -- named conveniences -------------------------------------------------------


def pack_nearest_neighbor(items: Iterable[Item], max_entries: int = 4,
                          distance: str = "center") -> RTree:
    """The paper's PACK: ascending-x seed order, nearest-neighbour groups."""
    return pack(items, max_entries=max_entries, method="nn",
                distance=distance)


def pack_lowx(items: Iterable[Item], max_entries: int = 4) -> RTree:
    """Run packing by ascending x only (no NN step)."""
    return pack(items, max_entries=max_entries, method="lowx")


def pack_str(items: Iterable[Item], max_entries: int = 4) -> RTree:
    """Sort-Tile-Recursive packing (Leutenegger et al. 1997)."""
    return pack(items, max_entries=max_entries, method="str")


def pack_hilbert(items: Iterable[Item], max_entries: int = 4) -> RTree:
    """Hilbert-order run packing (Kamel & Faloutsos 1993)."""
    return pack(items, max_entries=max_entries, method="hilbert")


def pack_points(points: Iterable[Point], max_entries: int = 4,
                method: str = "nn") -> RTree:
    """Pack bare points; object identifiers default to the points themselves."""
    return pack(((Rect.from_point(p), p) for p in points),
                max_entries=max_entries, method=method)
