"""Hilbert-range spatial partitioning for the cluster tier.

The ``hilbert`` packer orders objects by the Hilbert curve index of
their MBR centers (:func:`repro.rtree.hilbert.hilbert_key`); a
shard is simply a contiguous range of that key space.  A
:class:`ShardMap` materialises the mapping both ways:

- *key -> shard*: the curve of ``4**order`` cells is cut into
  ``nshards`` near-equal contiguous ranges, so the sort key that packs
  a tree also names the shard that owns it;
- *rect -> shards*: every grid cell a rectangle touches is looked up in
  a precomputed cell->shard table, yielding the set of shards whose
  territory the rectangle overlaps.

The placement contract that makes scatter-gather exact (see
DESIGN.md §12): an object is **stored on every shard its MBR
overlaps**, and a query is **sent to every shard its window (or the
full universe, for non-window queries) overlaps**.  If an object
qualifies for a query, the two geometries intersect; any grid cell
inside that intersection belongs to a shard that both stores the object
and receives the query — so the union of shard answers, deduplicated,
equals the single-tree answer.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.hilbert import hilbert_d, hilbert_key

__all__ = ["ShardMap"]


class ShardMap:
    """Partition of a universe into ``nshards`` Hilbert-key ranges.

    Args:
        universe: the picture universe being partitioned.
        nshards: number of primary shards (>= 1).
        order: Hilbert curve order of the *routing* grid — the universe
            is cut into ``2**order`` cells per side.  This is coarser
            than the ``hilbert`` packer's key order (16): routing only
            needs enough resolution to separate shards, and a coarse
            grid keeps the cell->shard table tiny (``4**order`` bytes).
    """

    def __init__(self, universe: Rect, nshards: int, order: int = 5):
        if nshards < 1:
            raise ValueError("nshards must be positive")
        if not 1 <= order <= 12:
            raise ValueError("routing grid order must be in [1, 12]")
        if not universe.is_valid() or universe.area() <= 0:
            raise ValueError(f"invalid universe {universe!r}")
        self.universe = universe
        self.nshards = nshards
        self.order = order
        self.side = 1 << order
        total = self.side * self.side
        #: half-open hilbert-key range [lo, hi) per shard, contiguous
        #: and covering [0, 4**order) exactly.
        self.ranges: list[tuple[int, int]] = [
            (i * total // nshards, (i + 1) * total // nshards)
            for i in range(nshards)]
        self._range_starts = [lo for lo, _hi in self.ranges]
        # cell (cx, cy) -> shard id, precomputed once: shards_for_rect
        # walks this table instead of re-deriving curve positions.
        self._cell_shard = bytearray(total) if nshards <= 255 else None
        self._cell_shard_list: list[int] = []
        for cy in range(self.side):
            for cx in range(self.side):
                sid = self.shard_for_key(hilbert_d(order, cx, cy))
                if self._cell_shard is not None:
                    self._cell_shard[cy * self.side + cx] = sid
                else:  # pragma: no cover - >255 shards is hypothetical
                    self._cell_shard_list.append(sid)

    # -- key- and point-level lookups ---------------------------------------

    def shard_for_key(self, key: int) -> int:
        """The shard owning Hilbert routing key *key*."""
        total = self.side * self.side
        if not 0 <= key < total:
            raise ValueError(f"key {key} outside [0, {total})")
        return bisect_right(self._range_starts, key) - 1

    def shard_for_point(self, point: Point) -> int:
        """The home shard of *point* (clamped into the universe)."""
        cx, cy = self._cell_of(point.x, point.y)
        return self._shard_at(cx, cy)

    def shard_for_rect(self, rect: Rect) -> int:
        """The home shard of *rect*: where the Hilbert key of its MBR
        centre lands, at this map's routing order."""
        center = Point((rect.x1 + rect.x2) / 2.0, (rect.y1 + rect.y2) / 2.0)
        return self.shard_for_key(
            hilbert_key(center, self.universe, self.order))

    # -- rect-level fan-out ---------------------------------------------------

    def shards_for_rect(self, rect: Rect) -> list[int]:
        """Every shard whose territory *rect* overlaps, ascending.

        Degenerate and out-of-universe rectangles clamp to the nearest
        cells, exactly like :func:`~repro.rtree.hilbert.hilbert_key`
        clamps points — placement and routing must agree on boundary
        objects or boundary-spanning rects would silently vanish.
        """
        cx1, cy1 = self._cell_of(rect.x1, rect.y1)
        cx2, cy2 = self._cell_of(rect.x2, rect.y2)
        out: set[int] = set()
        for cy in range(cy1, cy2 + 1):
            row = cy * self.side
            for cx in range(cx1, cx2 + 1):
                out.add(self._shard_at_index(row + cx))
                if len(out) == self.nshards:
                    return sorted(out)
        return sorted(out)

    def shards_storing(self, rect: Rect) -> list[int]:
        """The shards that store an object whose MBR is *rect*: every
        shard it overlaps (the placement rule).

        Raises:
            ValueError: for an invalid rectangle (inverted, NaN or
                infinite, see :meth:`Rect.is_valid`), before any shard
                is asked to store it.
        """
        if not rect.is_valid():
            raise ValueError(f"invalid rectangle {rect!r}")
        return self.shards_for_rect(rect)

    def all_shards(self) -> list[int]:
        return list(range(self.nshards))

    # -- internals -----------------------------------------------------------

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        u = self.universe
        # Clamp before int(): a window may reach past the universe, as
        # far as an infinite bound.
        fx = min(max((x - u.x1) / (u.x2 - u.x1), 0.0), 1.0)
        fy = min(max((y - u.y1) / (u.y2 - u.y1), 0.0), 1.0)
        return (min(self.side - 1, int(fx * self.side)),
                min(self.side - 1, int(fy * self.side)))

    def _shard_at(self, cx: int, cy: int) -> int:
        return self._shard_at_index(cy * self.side + cx)

    def _shard_at_index(self, idx: int) -> int:
        if self._cell_shard is not None:
            return self._cell_shard[idx]
        return self._cell_shard_list[idx]  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardMap(nshards={self.nshards}, order={self.order}, "
                f"universe={self.universe!r})")
