"""Catalog statistics: per-index MBR summaries for the query planner.

The paper's thesis (Section 3.1) is that coverage and overlap govern
search cost; :mod:`repro.rtree.costmodel` turns that into a per-tree
estimator, but it needs the live tree in memory.  The planner instead
works from an :class:`IndexSummary` — a compact, picklable digest of one
picture index: per-level aggregate extents (enough for the closed-form
Minkowski estimate) plus, for small trees, the exact entry rectangles
(enough for per-node clipping and exact window counts).

Summaries are built by :func:`summarize_index` from the level-order walk
of an in-memory :class:`~repro.rtree.tree.RTree`, a
:class:`~repro.storage.disk_rtree.DiskRTree` or a
:class:`~repro.relational.diskindex.DiskSpatialIndex`, and cached per
database generation by :meth:`repro.relational.catalog.Database.index_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.geometry.rect import Rect
from repro.rtree.costmodel import node_visit_probability

__all__ = ["LevelAgg", "IndexSummary", "summarize_index"]

#: Keep exact entry rectangles while the whole tree holds at most this
#: many entries; beyond that only the closed-form aggregates survive.
KEEP_RECTS_LIMIT = 4096


@dataclass(frozen=True)
class LevelAgg:
    """Aggregate extents of the entry MBRs at one tree level."""

    count: int
    sum_w: float
    sum_h: float
    sum_wh: float
    #: exact rectangles when the tree was small enough, else ``None``
    rects: Optional[tuple[Rect, ...]] = None

    @property
    def mean_w(self) -> float:
        return self.sum_w / self.count if self.count else 0.0

    @property
    def mean_h(self) -> float:
        return self.sum_h / self.count if self.count else 0.0

    def expected_intersecting(self, window_w: float, window_h: float,
                              universe: Rect) -> float:
        """E[entries intersecting a uniformly placed window].

        With exact rectangles this sums the per-entry clipped Minkowski
        probability; otherwise it falls back to the unclipped closed
        form ``(Σwh + w·Σh + h·Σw + n·w·h) / area``, capped at *count*.
        """
        if self.rects is not None:
            return sum(node_visit_probability(r, window_w, window_h,
                                              universe)
                       for r in self.rects)
        area = universe.area()
        if area <= 0.0:
            # Degenerate universe: every stored entry coincides with it,
            # so any window that intersects the universe hits them all.
            return float(self.count)
        est = (self.sum_wh + window_w * self.sum_h
               + window_h * self.sum_w
               + self.count * window_w * window_h) / area
        return min(float(self.count), est)

    def count_intersecting(self, window: Rect) -> Optional[int]:
        """Exact intersection count for *window*, or ``None`` without
        rectangles."""
        if self.rects is None:
            return None
        return sum(1 for r in self.rects if r.intersects(window))


@dataclass(frozen=True)
class IndexSummary:
    """A planner-facing digest of one picture R-tree.

    ``internal`` holds one :class:`LevelAgg` per internal-entry level
    (children of the root first); ``leaf`` aggregates the data-entry
    MBRs.  ``size``/``depth``/``node_count`` mirror the tree's Table-1
    columns at the time the summary was taken.
    """

    size: int
    depth: int
    node_count: int
    universe: Rect
    internal: tuple[LevelAgg, ...]
    leaf: LevelAgg

    # -- node-access estimates (the planner's cost unit) --------------------

    def expected_window_accesses(self, window_w: float,
                                 window_h: float) -> float:
        """E[nodes read] for a uniformly placed ``w x h`` window query.

        The root always costs one read; every deeper node is read with
        its parent entry's clipped Minkowski probability — exactly the
        :func:`repro.rtree.costmodel.expected_window_accesses` model,
        evaluated from the summary instead of the live tree.
        """
        return 1.0 + sum(
            agg.expected_intersecting(window_w, window_h, self.universe)
            for agg in self.internal)

    def window_accesses(self, window: Rect) -> float:
        """Estimated nodes read by a search with this *specific* window.

        Exact (a node is read iff its MBR intersects the window) when
        the summary kept rectangles; otherwise the uniform-placement
        expectation for a window of the same extent.
        """
        total = 1.0
        for agg in self.internal:
            exact = agg.count_intersecting(window)
            if exact is not None:
                total += exact
            else:
                total += agg.expected_intersecting(
                    window.width, window.height, self.universe)
        return total

    def matching_entries(self, window: Rect) -> float:
        """Estimated data entries whose MBR intersects *window*."""
        exact = self.leaf.count_intersecting(window)
        if exact is not None:
            return float(exact)
        return self.leaf.expected_intersecting(window.width, window.height,
                                               self.universe)


def summarize_index(index: Any, universe: Rect,
                    keep_rects_limit: int = KEEP_RECTS_LIMIT,
                    ) -> IndexSummary:
    """Build an :class:`IndexSummary` for any picture-index flavour.

    Reads the index's level-order ``walk()``.  An internal entry is
    filed under the level of the *child node* it bounds (1 = children of
    the root), matching the cost model's convention that a node is read
    when the search descends through its parent entry.
    """
    per_level: dict[int, list[Rect]] = {}
    leaf_rects: list[Rect] = []
    node_count = 1
    for level, _ref, is_leaf, entries in index.walk():
        rects = [Rect(x1, y1, x2, y2) for x1, y1, x2, y2, _ in entries]
        if is_leaf:
            leaf_rects += rects
        else:
            per_level.setdefault(level + 1, []).extend(rects)
            node_count += len(rects)
    depth = (max(per_level) if per_level else 0)
    keep = (len(leaf_rects) + sum(len(v) for v in per_level.values())
            <= keep_rects_limit)
    internal = tuple(_agg(per_level[level], keep)
                     for level in sorted(per_level))
    return IndexSummary(size=len(leaf_rects), depth=depth,
                        node_count=node_count, universe=universe,
                        internal=internal, leaf=_agg(leaf_rects, keep))


def _agg(rects: list[Rect], keep: bool) -> LevelAgg:
    return LevelAgg(
        count=len(rects),
        sum_w=sum(r.width for r in rects),
        sum_h=sum(r.height for r in rects),
        sum_wh=sum(r.width * r.height for r in rects),
        rects=tuple(rects) if keep else None)
