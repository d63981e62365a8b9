"""Constructive versions of the paper's theoretical results (Section 3.2).

- Lemma 3.1 / Theorem 3.2: any finite point set can be rotated so all
  x-coordinates are distinct, and the rotated order then yields
  ``ceil(n / M)`` pairwise-disjoint MBRs.  :func:`zero_overlap_partition`
  performs the construction and returns enough information to verify it.
- Theorem 3.3: for regions zero overlap is not always achievable.
  :func:`theorem_33_counterexample` builds the skewed-rectangle
  configuration of Figure 3.6 and
  :func:`verify_no_zero_overlap_grouping` exhaustively confirms that no
  legal grouping has zero overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect, mbr_of_points
from repro.geometry.region import Region
from repro.geometry.rotation import distinct_x_rotation, rotate_points
from repro.rtree.packing import _level_sizes


@dataclass(frozen=True)
class ZeroOverlapPartition:
    """The output of the Theorem 3.2 construction.

    Attributes:
        angle: the rotation applied (radians, counter-clockwise).
        groups: the original points partitioned into runs of at most
            ``group_size``, in rotated-x order.
        rotated_mbrs: the MBRs of the rotated groups; pairwise disjoint in
            interior (consecutive MBRs may share a boundary x only when
            rotated x-coordinates are distinct, which the construction
            guarantees they are — hence fully disjoint).
    """

    angle: float
    groups: tuple[tuple[Point, ...], ...]
    rotated_mbrs: tuple[Rect, ...]

    def is_disjoint(self) -> bool:
        """True when no two rotated MBRs share interior area."""
        return all(not a.overlaps_interior(b)
                   for a, b in combinations(self.rotated_mbrs, 2))


def zero_overlap_partition(points: Sequence[Point],
                           group_size: int = 4) -> ZeroOverlapPartition:
    """Theorem 3.2: partition *points* into disjoint MBRs of <= *group_size*.

    Rotates the set so every x-coordinate is distinct (Lemma 3.1), sorts
    by rotated x and cuts consecutive runs.  Each run's MBR is bounded on
    the right strictly before the next run begins, so the MBRs are
    pairwise disjoint in the rotated frame.

    Raises:
        ValueError: on an empty set, non-positive group size, or duplicate
            points (which no rotation can separate).
    """
    if group_size < 1:
        raise ValueError("group size must be positive")
    if not points:
        raise ValueError("cannot partition an empty point set")
    angle = distinct_x_rotation(points)
    rotated = rotate_points(points, angle)
    order = sorted(range(len(points)), key=lambda i: rotated[i].x)

    groups: list[tuple[Point, ...]] = []
    mbrs: list[Rect] = []
    for start in range(0, len(order), group_size):
        idx = order[start:start + group_size]
        groups.append(tuple(points[i] for i in idx))
        mbrs.append(mbr_of_points(rotated[i] for i in idx))
    return ZeroOverlapPartition(angle=angle, groups=tuple(groups),
                                rotated_mbrs=tuple(mbrs))


def theorem_33_counterexample(count: int = 5,
                              thickness: float = 0.5) -> list[Region]:
    """A Theorem 3.3 witness: disjoint "skewed" rectangles with no
    zero-overlap grouping.

    Figure 3.6 uses tilted rectangles; we build *count* parallel diagonal
    strips (45-degree parallelograms) offset vertically by 1 unit each.
    The strips are pairwise disjoint (parallel, separated by more than
    their *thickness*), yet every strip's MBR spans the full x-range and a
    10-unit y-range, so the MBRs of **any** two groups of strips overlap —
    no partition into MBRs bounding 2..4 regions can have zero overlap.

    Raises:
        ValueError: if *thickness* >= 1 (strips would touch) or count < 5
            (fewer than 5 regions admit a single-group or trivially
            separable partition at branching factor 4).
    """
    if thickness >= 1.0 or thickness <= 0.0:
        raise ValueError("thickness must lie in (0, 1) to keep strips disjoint")
    if count < 5:
        raise ValueError("need at least 5 regions to defeat groups of <= 4")
    strips = []
    for k in range(count):
        strips.append(Region([
            Point(0.0, float(k)),
            Point(10.0, 10.0 + k),
            Point(10.0, 10.0 + k + thickness),
            Point(0.0, k + thickness),
        ]))
    return strips


def verify_no_zero_overlap_grouping(regions: Sequence[Rect],
                                    max_group: int = 4) -> bool:
    """Exhaustively test Theorem 3.3's claim on *regions*.

    Enumerates every partition of the regions into groups of size 2 to
    *max_group* (condition 2 of the theorem) and returns ``True`` when
    **no** partition yields pairwise interior-disjoint group MBRs — i.e.
    the counterexample stands.

    This is exponential in the number of regions, which is fine for the
    five-region configuration of Figure 3.6.
    """
    n = len(regions)

    def partitions(items: tuple[int, ...]):
        """All partitions of *items* into blocks of size 2..max_group."""
        if not items:
            yield []
            return
        first = items[0]
        rest = items[1:]
        for size in range(1, min(max_group, len(items)) + 1):
            for combo in combinations(rest, size - 1):
                block = (first, *combo)
                remaining = tuple(i for i in rest if i not in combo)
                for tail in partitions(remaining):
                    yield [block, *tail]

    def group_mbr(block: tuple[int, ...]) -> Rect:
        acc = regions[block[0]]
        for i in block[1:]:
            acc = acc.union(regions[i])
        return acc

    for partition in partitions(tuple(range(n))):
        if any(len(block) < 2 for block in partition):
            continue  # condition (2): each MBR bounds more than one region
        mbrs = [group_mbr(block) for block in partition]
        # Interior-disjoint group MBRs imply condition (1) as well: a region
        # reaching into a foreign MBR would put interior area inside two
        # MBRs at once.  So pairwise interior-disjointness is the whole test.
        if all(not a.overlaps_interior(b)
               for a, b in combinations(mbrs, 2)):
            return False  # found a zero-overlap grouping
    return True


def expected_pack_node_count(n: int, fanout: int) -> int:
    """Node count of a perfectly packed tree over *n* objects.

    The geometric series the paper's N column follows for PACK:
    ``ceil(n/M) + ceil(ceil(n/M)/M) + ... + 1`` (the empty tree still has
    its root).
    """
    return sum(_level_sizes(n, fanout))


def expected_pack_depth(n: int, fanout: int) -> int:
    """Depth (edges root to leaves) of a perfectly packed tree."""
    return len(_level_sizes(n, fanout)) - 1
