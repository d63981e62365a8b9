"""Tree statistics: the paper's C, O, D, N and A, live and what-if.

The paper judges a tree by coverage C (the total area of the leaf MBRs),
overlap O (the area inside two or more leaf MBRs), depth D, node count N
and nodes per point query A (Sections 3.1 and 3.5, Table 1).  All of it
comes from one per-level accumulator, :data:`Levels`, which
:func:`walk_levels` fills from a live tree and :func:`pack_levels` from
the paper's PACK run through a sink that writes no node.  From it,
:class:`IndexSummary` is the planner's digest and :func:`analyze` the
per-level report that Table 1's row (:func:`tree_stats`) reads.

Overlap has two readings because the paper's INSERT numbers exceed
coverage, impossible under the strict set-area one: ``counted`` sums
pairwise intersection areas (Table 1's magnitudes), ``union`` is the
exact area covered twice or more.  Both are O(n^2) sweeps, so only the
report computes them, never the planner.  Sums are :func:`math.fsum`, so
an aggregate does not depend on the order nodes were walked or emitted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sweep import pairwise_intersections, union_area
from repro.rtree.packing import (Item, _center_distance, _lookup_method,
                                 _pack_levels)
from repro.rtree.search import window_search
from repro.rtree.tree import Entry, SearchStats, Tree, node_mbr

#: The planner keeps exact entry rectangles while the whole tree holds at
#: most this many entries; above it, it costs from the sums alone.
KEEP_RECTS_LIMIT = 4096

#: The per-level accumulator: each level's node entry lists, root first.
Levels = list[list[Sequence[Entry]]]


def walk_levels(index: Any) -> Levels:
    """The accumulator of a live tree, from its level-order ``walk()``."""
    levels: Levels = []
    for level, _ref, _is_leaf, entries in index.walk():
        if level == len(levels):
            levels.append([])
        levels[level].append(entries)
    return levels


def pack_levels(items: Iterable[Item], max_entries: int,
                method: str, min_fill: int = 0) -> Levels:
    """The accumulator of ``pack(items, max_entries, method)``, built
    without writing a node: the sink files each group under its level
    and hands PACK a parent entry whose ref is the group's height.
    *min_fill* is the target tree's trailing-node fill (a disk tree's
    ``pack_fill``; the in-memory PACK's is 0)."""
    levels: Levels = []

    def sink(group: list[Entry], is_leaf: bool) -> Entry:
        height = 0 if is_leaf else group[0][4] + 1
        if height == len(levels):
            levels.append([])
        levels[height].append(group)
        return node_mbr(group) + (height,)

    entries = [(*rect, oid) for rect, oid in items]
    if not entries:
        return [[[]]]
    _pack_levels(entries, max_entries, _lookup_method(method),
                 _center_distance, sink, min_fill)
    return levels[::-1]


# -- the planner's summary ------------------------------------------------------


def node_visit_probability(mbr: Rect, window_w: float, window_h: float,
                           universe: Rect) -> float:
    """P(a window centred uniformly in *universe* intersects *mbr*).

    That is the area of the Minkowski sum of the MBR and the half-window,
    clipped to the universe per MBR (no window centre lies outside it).

    Raises:
        ValueError: for a universe of zero area.
    """
    area = universe.area()
    if area <= 0.0:
        raise ValueError("universe must have positive area")
    x1 = max(mbr.x1 - window_w / 2.0, universe.x1)
    x2 = min(mbr.x2 + window_w / 2.0, universe.x2)
    y1 = max(mbr.y1 - window_h / 2.0, universe.y1)
    y2 = min(mbr.y2 + window_h / 2.0, universe.y2)
    if x2 <= x1 or y2 <= y1:
        return 0.0
    return (x2 - x1) * (y2 - y1) / area


@dataclass(frozen=True)
class LevelAgg:
    """The entries stored in one level's nodes: counts and extent sums,
    and the rectangles themselves when the tree was small enough."""

    nodes: int
    count: int
    sum_w: float
    sum_h: float
    sum_wh: float
    rects: Optional[tuple[Rect, ...]] = None

    @classmethod
    def of(cls, nodes: Sequence[Sequence[Entry]], keep: bool) -> "LevelAgg":
        entries = [e for node in nodes for e in node]
        return cls(nodes=len(nodes), count=len(entries),
                   sum_w=math.fsum(e[2] - e[0] for e in entries),
                   sum_h=math.fsum(e[3] - e[1] for e in entries),
                   sum_wh=math.fsum((e[2] - e[0]) * (e[3] - e[1])
                                    for e in entries),
                   rects=(tuple(Rect(*e[:4]) for e in entries) if keep
                          else None))

    @property
    def mean_w(self) -> float:
        return self.sum_w / self.count if self.count else 0.0

    @property
    def mean_h(self) -> float:
        return self.sum_h / self.count if self.count else 0.0

    def expected_intersecting(self, window_w: float, window_h: float,
                              universe: Rect) -> float:
        """E[entries intersecting a uniformly placed window]: the sum of
        :func:`node_visit_probability` over the rectangles, else the
        unclipped closed form ``(Σwh + w·Σh + h·Σw + n·w·h) / area``,
        capped at *count*."""
        if self.rects is not None:
            return math.fsum(node_visit_probability(r, window_w, window_h,
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

    def intersecting(self, window: Rect, universe: Rect) -> float:
        """Entries intersecting *window*: counted when the rectangles were
        kept, else expected for a window of its extent."""
        if self.rects is None:
            return self.expected_intersecting(window.width, window.height,
                                              universe)
        return sum(1 for r in self.rects if r.intersects(window))


@dataclass(frozen=True)
class IndexSummary:
    """A planner-facing digest of one picture R-tree.

    ``internal`` holds a :class:`LevelAgg` per internal level, the root's
    entries first, so each entry sits one level above the node it bounds
    (a node is read when the search descends through that entry);
    ``leaf`` aggregates the data entries.
    """

    size: int
    depth: int
    node_count: int
    universe: Rect
    internal: tuple[LevelAgg, ...]
    leaf: LevelAgg

    @classmethod
    def of(cls, levels: Levels, universe: Rect) -> "IndexSummary":
        keep = (sum(len(node) for nodes in levels for node in nodes)
                <= KEEP_RECTS_LIMIT)
        aggs = [LevelAgg.of(nodes, keep) for nodes in levels]
        return cls(size=aggs[-1].count, depth=len(aggs) - 1,
                   node_count=sum(agg.nodes for agg in aggs),
                   universe=universe, internal=tuple(aggs[:-1]),
                   leaf=aggs[-1])

    def expected_window_accesses(self, window_w: float,
                                 window_h: float) -> float:
        """E[nodes read] by a uniformly placed ``w x h`` window: the root,
        plus each node with its parent entry's visit probability.

        Raises:
            ValueError: for negative window extents.
        """
        if window_w < 0 or window_h < 0:
            raise ValueError("window extents must be non-negative")
        return 1.0 + sum(
            agg.expected_intersecting(window_w, window_h, self.universe)
            for agg in self.internal)

    def window_accesses(self, window: Rect) -> float:
        """Nodes read by a search with this *specific* window."""
        total = 1.0
        for agg in self.internal:
            total += agg.intersecting(window, self.universe)
        return total

    def matching_entries(self, window: Rect) -> float:
        """Data entries whose MBR intersects *window*."""
        return float(self.leaf.intersecting(window, self.universe))


def summarize(index: Any, universe: Rect) -> IndexSummary:
    """The :class:`IndexSummary` of a live tree, in memory or on disk,
    from one :meth:`~repro.rtree.tree.Tree.walk` snapshot."""
    return IndexSummary.of(walk_levels(index), universe)


def measured_window_accesses(tree: Tree, window_w: float, window_h: float,
                             universe: Rect, samples: int = 200,
                             seed: int = 0) -> float:
    """Monte-Carlo ground truth for the expected window accesses."""
    rng = random.Random(seed)
    stats = SearchStats()
    for _ in range(samples):
        center = Point(rng.uniform(universe.x1, universe.x2),
                       rng.uniform(universe.y1, universe.y2))
        window_search(tree, Rect.from_center(center, window_w / 2.0,
                                             window_h / 2.0), stats)
    return stats.nodes_visited / samples


# -- the per-level report and Table 1 -------------------------------------------


@dataclass(frozen=True)
class LevelStats:
    """Coverage and overlap of the nodes at one level (0 = root)."""

    level: int
    nodes: int
    entries: int
    mean_fill: float
    coverage: float          # sum of node MBR areas at this level
    overlap_counted: float   # pairwise intersection areas, multiplicity
    overlap_union: float     # exact >=2-covered area
    dead_space: float        # coverage minus area actually occupied below


@dataclass(frozen=True)
class TreeReport:
    """The per-level analysis of one tree."""

    size: int
    depth: int
    node_count: int
    levels: tuple[LevelStats, ...]

    @property
    def leaf_level(self) -> LevelStats:
        return self.levels[-1]


def analyze(tree: Tree) -> TreeReport:
    """One :class:`LevelStats` row per level of *tree*.

    Dead space is the node MBR area not covered by the entries below —
    area a search may enter without finding anything.  Packed trees keep
    coverage and overlap near the root; degraded ones leak them into the
    leaves.
    """
    levels = walk_levels(tree)
    rows = []
    for depth, nodes in enumerate(levels):
        mbrs = [Rect(*node_mbr(n)) for n in nodes if n]
        below = [Rect(*e[:4]) for n in nodes for e in n]
        inters = pairwise_intersections(mbrs)
        cov = math.fsum(r.area() for r in mbrs)
        rows.append(LevelStats(
            level=depth, nodes=len(nodes), entries=len(below),
            mean_fill=len(below) / len(nodes), coverage=cov,
            overlap_counted=math.fsum(r.area() for r in inters),
            overlap_union=union_area(inters),
            dead_space=max(0.0, cov - union_area(below))))
    return TreeReport(size=len(tree), depth=len(levels) - 1,
                      node_count=sum(map(len, levels)), levels=tuple(rows))


def format_report(report: TreeReport) -> str:
    """Human-readable rendering of a :class:`TreeReport`."""
    lines = [
        f"R-tree: {report.size} objects, depth {report.depth}, "
        f"{report.node_count} nodes",
        f"{'lvl':>3} {'nodes':>6} {'fill':>5} | {'coverage':>11} "
        f"{'overlap':>10} {'dead space':>11}",
    ]
    for s in report.levels:
        lines.append(
            f"{s.level:>3} {s.nodes:>6} {s.mean_fill:>5.2f} | "
            f"{s.coverage:>11.0f} {s.overlap_counted:>10.0f} "
            f"{s.dead_space:>11.0f}")
    return "\n".join(lines)


def dump_tree(tree: Tree, max_entries_shown: int = 4) -> str:
    """The node hierarchy indented by level, a debugging aid: each node's
    MBR and fill, and up to *max_entries_shown* entries per leaf."""
    lines: list[str] = []
    for level, _ref, is_leaf, entries in tree.walk():
        pad = "  " * level
        kind = "leaf" if is_leaf else "node"
        mbr = str(Rect(*node_mbr(entries))) if entries else "(empty)"
        lines.append(f"{pad}{kind} {mbr} ({len(entries)} entries)")
        if is_leaf:
            for e in entries[:max_entries_shown]:
                lines.append(f"{pad}  - {Rect(*e[:4])} -> {e[4]!r}")
            hidden = len(entries) - max_entries_shown
            if hidden > 0:
                lines.append(f"{pad}  ... {hidden} more")
    return "\n".join(lines)


def leaf_mbrs(tree: Tree) -> list[Rect]:
    """The MBR of every leaf node, left to right (empty leaves skipped)."""
    return [Rect(*node_mbr(n)) for n in walk_levels(tree)[-1] if n]


def coverage(tree: Tree) -> float:
    """Table 1's C, without the rest of :func:`analyze`."""
    return math.fsum(r.area() for r in leaf_mbrs(tree))


def overlap(tree: Tree, method: str = "counted") -> float:
    """Table 1's O, read ``"counted"`` or ``"union"``, without the rest
    of :func:`analyze`."""
    inters = pairwise_intersections(leaf_mbrs(tree))
    if method == "counted":
        return math.fsum(r.area() for r in inters)
    if method == "union":
        return union_area(inters)
    raise ValueError(f"unknown overlap method {method!r}; "
                     f"choose 'counted' or 'union'")


def average_nodes_visited(tree: Tree, queries: Iterable[Point]) -> float:
    """Table 1's A: mean nodes visited, the root included, by the paper's
    "Is point (x, y) contained in the database?" probes."""
    stats = SearchStats()
    count = 0
    for count, q in enumerate(queries, 1):
        tree.point_query(q, stats)
    if count == 0:
        raise ValueError("average over zero queries is undefined")
    return stats.nodes_visited / count


@dataclass(frozen=True, slots=True)
class TreeStats:
    """One row of the Table 1 measurement for a single tree."""

    size: int
    coverage: float
    overlap_counted: float
    overlap_union: float
    depth: int
    node_count: int
    avg_nodes_visited: float

    def as_row(self) -> tuple[float, ...]:
        """The (C, O, D, N, A) tuple in the paper's column order."""
        return (self.coverage, self.overlap_counted, self.depth,
                self.node_count, self.avg_nodes_visited)


def tree_stats(tree: Tree, queries: Sequence[Point]) -> TreeStats:
    """Every Table 1 column: C, O, D and N from :func:`analyze`, A
    measured over *queries*."""
    report = analyze(tree)
    leaf = report.leaf_level
    return TreeStats(report.size, leaf.coverage, leaf.overlap_counted,
                     leaf.overlap_union, report.depth, report.node_count,
                     average_nodes_visited(tree, queries))
