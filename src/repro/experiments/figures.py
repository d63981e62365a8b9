"""Reproductions of the paper's figure-shaped experiments (E2-E8).

Every function returns plain data so tests and benchmarks can assert on
the shapes the figures illustrate; SVG rendering lives in
:mod:`repro.viz` and the examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.rotation import distinct_x_count, rotate_points
from repro.rtree.packing import pack
from repro.rtree.search import SearchStats, window_search
from repro.rtree.stats import coverage, walk_levels
from repro.rtree.theory import (
    theorem_33_counterexample,
    verify_no_zero_overlap_grouping,
    zero_overlap_partition,
)
from repro.rtree.tree import RTree, node_mbr
from repro.workloads.clustered import clustered_points
from repro.workloads.uniform import TABLE1_UNIVERSE, uniform_points


# ---------------------------------------------------------------------------
# Figure 3.4 — INSERT's dead space on eight points
# ---------------------------------------------------------------------------

#: Eight points in two natural clusters of four (the paper's Figure 3.4a
#: is qualitative; these reproduce the phenomenon: a left cluster and a
#: right cluster with empty space between them).
FIG34_POINTS = (
    Point(1.0, 1.0), Point(2.0, 1.5), Point(1.5, 2.5), Point(2.5, 2.0),
    Point(11.0, 1.0), Point(12.0, 1.5), Point(11.5, 2.5), Point(12.5, 2.0),
)

#: An insertion order that provokes requirement (2)'s pathology under the
#: linear split: an early split leaves node MBRs straddling the gap, and
#: later least-enlargement choices stretch them across the dead space.
FIG34_ORDER = (7, 2, 3, 4, 5, 1, 0, 6)


@dataclass(frozen=True)
class DeadSpaceResult:
    """Coverage of the dynamically built tree versus the packed one."""

    insert_coverage: float
    insert_leaves: int
    pack_coverage: float
    pack_leaves: int

    @property
    def dead_space(self) -> float:
        """Extra area INSERT covers relative to the optimal grouping."""
        return self.insert_coverage - self.pack_coverage


def run_fig34_deadspace(points: Sequence[Point] = FIG34_POINTS,
                        order: Sequence[int] = FIG34_ORDER,
                        max_entries: int = 4) -> DeadSpaceResult:
    """Reproduce Figure 3.4: INSERT vs the tight two-node grouping."""
    items = [(Rect.from_point(points[i]), i) for i in order]
    dynamic = RTree(max_entries=max_entries, split="linear")
    dynamic.insert_all(items)
    packed = pack(items, max_entries=max_entries, method="nn")
    return DeadSpaceResult(
        insert_coverage=coverage(dynamic),
        insert_leaves=sum(leaf for _l, _r, leaf, _e in dynamic.walk()),
        pack_coverage=coverage(packed),
        pack_leaves=sum(leaf for _l, _r, leaf, _e in packed.walk()),
    )


# ---------------------------------------------------------------------------
# Figure 3.3 — a window intersecting every root entry defeats pruning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PruningResult:
    """Node-access comparison for one window over both trees."""

    window: Rect
    insert_nodes_visited: int
    insert_total_nodes: int
    pack_nodes_visited: int
    pack_total_nodes: int

    @property
    def insert_visit_fraction(self) -> float:
        return self.insert_nodes_visited / self.insert_total_nodes

    @property
    def pack_visit_fraction(self) -> float:
        return self.pack_nodes_visited / self.pack_total_nodes


def run_fig33_pruning(n: int = 400, seed: int = 5,
                      window_fraction: float = 0.05,
                      max_entries: int = 4) -> PruningResult:
    """Reproduce the Figure 3.3 phenomenon quantitatively.

    A small central window is searched in an INSERT-built tree (whose
    root entries typically all straddle the centre — overlap the window)
    and in a PACKed tree (whose root entries tile the space).  The
    visit-fraction gap is the pruning loss the figure depicts.
    """
    pts = uniform_points(n, seed=seed)
    items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
    side = math.sqrt(window_fraction * TABLE1_UNIVERSE.area()) / 2.0
    center = TABLE1_UNIVERSE.center()
    window = Rect.from_center(center, side)

    dynamic = RTree(max_entries=max_entries, split="linear")
    dynamic.insert_all(items)
    packed = pack(items, max_entries=max_entries, method="nn")

    si, sp = SearchStats(), SearchStats()
    window_search(dynamic, window, si)
    window_search(packed, window, sp)
    return PruningResult(
        window=window,
        insert_nodes_visited=si.nodes_visited,
        insert_total_nodes=dynamic.node_count,
        pack_nodes_visited=sp.nodes_visited,
        pack_total_nodes=packed.node_count,
    )


# ---------------------------------------------------------------------------
# Figure 3.7 — zero overlap is not enough: coverage matters too
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupingResult:
    """Coverage of two zero-overlap groupings of the same points."""

    slab_coverage: float
    nn_coverage: float

    @property
    def improvement(self) -> float:
        """How much tighter the proximity grouping is (>= 1 is better)."""
        if self.nn_coverage == 0:
            return math.inf
        return self.slab_coverage / self.nn_coverage


def run_fig37_grouping(cols: int = 4, rows: int = 2,
                       per_cluster: int = 8, spread: float = 10.0,
                       seed: int = 11, max_entries: int = 4,
                       ) -> GroupingResult:
    """Reproduce Figure 3.7: x-slab grouping vs proximity grouping.

    Both groupings can be overlap-free (Theorem 3.2), but grouping purely
    by x-order (3.7a) chains points from vertically *stacked* clusters
    into tall thin MBRs, while NN grouping (3.7b) keeps each cluster
    intact and covers far less.  Cluster centres sit on a ``cols x rows``
    grid so every column of clusters shares an x-range — the adversarial
    case for slab grouping.
    """
    import random as _random
    rng = _random.Random(seed)
    pts: list[Point] = []
    for col in range(cols):
        for row in range(rows):
            cx = (col + 0.5) * TABLE1_UNIVERSE.width / cols
            cy = (row + 0.5) * TABLE1_UNIVERSE.height / rows
            pts.extend(Point(rng.gauss(cx, spread), rng.gauss(cy, spread))
                       for _ in range(per_cluster))
    items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
    slab = pack(items, max_entries=max_entries, method="lowx")
    nn = pack(items, max_entries=max_entries, method="nn")
    return GroupingResult(slab_coverage=coverage(slab),
                          nn_coverage=coverage(nn))


# ---------------------------------------------------------------------------
# Figure 3.8 — the stages of PACK
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackStages:
    """MBR groups produced at each PACK level (leaves first)."""

    points: tuple[Point, ...]
    levels: tuple[tuple[Rect, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.levels)


def run_fig38_stages(n: int = 48, seed: int = 8,
                     max_entries: int = 4) -> PackStages:
    """Reproduce Figure 3.8: grouping cities, then grouping the groups."""
    pts = clustered_points(n, clusters=6, spread=40.0, seed=seed)
    items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
    tree = pack(items, max_entries=max_entries, method="nn")

    levels = [tuple(Rect(*node_mbr(n)) for n in nodes if n)
              for nodes in walk_levels(tree)]
    return PackStages(points=tuple(pts), levels=tuple(reversed(levels)))


# ---------------------------------------------------------------------------
# Lemma 3.1, Theorems 3.2 / 3.3 (E6-E8)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma31Result:
    angle: float
    distinct_before: int
    distinct_after: int
    n: int


def run_lemma31(n: int = 40, seed: int = 3,
                collide_fraction: float = 0.5) -> Lemma31Result:
    """Construct the Lemma 3.1 rotation on a set with many shared x's."""
    pts = uniform_points(n, seed=seed)
    # Force x-collisions: snap half the points onto shared vertical lines.
    collided = []
    for i, p in enumerate(pts):
        if i < n * collide_fraction:
            collided.append(Point(float(100 * (i % 5)), p.y))
        else:
            collided.append(p)
    partition = zero_overlap_partition(collided, group_size=4)
    rotated = rotate_points(collided, partition.angle)
    return Lemma31Result(
        angle=partition.angle,
        distinct_before=distinct_x_count(collided),
        distinct_after=distinct_x_count(rotated),
        n=len(collided),
    )


@dataclass(frozen=True)
class Theorem32Result:
    n: int
    groups: int
    disjoint: bool
    overlap_area: float


def run_theorem32(n: int = 100, seed: int = 4,
                  group_size: int = 4) -> Theorem32Result:
    """Build the Theorem 3.2 partition and verify zero overlap."""
    pts = uniform_points(n, seed=seed)
    partition = zero_overlap_partition(pts, group_size=group_size)
    from repro.geometry.sweep import overlap_area as _overlap
    return Theorem32Result(
        n=n,
        groups=len(partition.groups),
        disjoint=partition.is_disjoint(),
        overlap_area=_overlap(list(partition.rotated_mbrs)),
    )


@dataclass(frozen=True)
class Theorem33Result:
    regions: int
    counterexample_holds: bool


def run_theorem33(count: int = 5) -> Theorem33Result:
    """Verify the Theorem 3.3 counterexample exhaustively."""
    regions = theorem_33_counterexample(count=count)
    mbrs = [r.mbr() for r in regions]
    return Theorem33Result(
        regions=len(regions),
        counterexample_holds=verify_no_zero_overlap_grouping(mbrs),
    )
