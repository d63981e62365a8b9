"""Axis-aligned rectangles — the paper's minimal bounding rectangles (MBRs).

Section 3.1 defines the MBR of a point set as the rectangle bounded by the
extreme x and y coordinates.  Every R-tree entry (leaf and non-leaf) carries
one of these; coverage and overlap (the two quantities PACK minimises) are
sums of rectangle areas.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

from repro.geometry.point import Point


class Rect(NamedTuple):
    """A closed axis-aligned rectangle ``[x1, x2] x [y1, y2]``.

    The field layout mirrors the paper's PASCAL ``ENTRY`` record
    (``X1, X2, Y1, Y2``).  Degenerate rectangles (points and segments
    aligned with an axis) are permitted: ``x1 == x2`` or ``y1 == y2``.

    Invariant: ``x1 <= x2`` and ``y1 <= y2``.  Use :meth:`make` to build a
    rectangle from unordered corner coordinates.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    # -- constructors ------------------------------------------------------

    @classmethod
    def make(cls, xa: float, ya: float, xb: float, yb: float) -> "Rect":
        """Build a rectangle from two corners given in any order."""
        return cls(min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb))

    @classmethod
    def from_point(cls, p: Point) -> "Rect":
        """The degenerate MBR of a single point."""
        return cls(p.x, p.y, p.x, p.y)

    @classmethod
    def from_center(cls, center: Point, half_width: float,
                    half_height: Optional[float] = None) -> "Rect":
        """A rectangle centred at *center*.

        This is the shape of the paper's window specification
        ``{4±4, 11±9}`` — centre coordinates with plus/minus extents.
        """
        if half_height is None:
            half_height = half_width
        if half_width < 0 or half_height < 0:
            raise ValueError("window extents must be non-negative")
        return cls(center.x - half_width, center.y - half_height,
                   center.x + half_width, center.y + half_height)

    # -- basic measures ----------------------------------------------------

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    def area(self) -> float:
        """Area of the rectangle (zero for degenerate rectangles)."""
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def perimeter(self) -> float:
        """Perimeter (the "margin" of later R-tree literature)."""
        return 2.0 * ((self.x2 - self.x1) + (self.y2 - self.y1))

    def center(self) -> Point:
        """Centre point of the rectangle."""
        return Point((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """The four corners, counter-clockwise from the lower-left."""
        return (Point(self.x1, self.y1), Point(self.x2, self.y1),
                Point(self.x2, self.y2), Point(self.x1, self.y2))

    def is_valid(self) -> bool:
        """True when the ordering invariant holds and every coordinate is
        finite (no NaN, no infinity): what a tree or a named location
        may store."""
        return (self.x1 <= self.x2 and self.y1 <= self.y2
                and all(map(math.isfinite, self)))

    # -- relations ---------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """True when *p* lies in the closed rectangle."""
        return self.x1 <= p.x <= self.x2 and self.y1 <= p.y <= self.y2

    def contains(self, other: "Rect") -> bool:
        """True when *other* lies entirely within this rectangle.

        This is the paper's WITHIN test used at the leaf level of SEARCH.
        """
        return (self.x1 <= other.x1 and other.x2 <= self.x2
                and self.y1 <= other.y1 and other.y2 <= self.y2)

    def intersects(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least one point.

        This is the paper's INTERSECTS test used to prune the descent.
        Boundary contact counts as intersection.
        """
        return (self.x1 <= other.x2 and other.x1 <= self.x2
                and self.y1 <= other.y2 and other.y1 <= self.y2)

    def overlaps_interior(self, other: "Rect") -> bool:
        """True when the rectangles share interior area (not mere edges).

        The paper's *overlap* metric counts area "contained within two or
        more leaf MBRs"; rectangles that only touch contribute none.
        """
        return (self.x1 < other.x2 and other.x1 < self.x2
                and self.y1 < other.y2 and other.y1 < self.y2)

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The intersection rectangle, or ``None`` when disjoint."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x1 > x2 or y1 > y2:
            return None
        return Rect(x1, y1, x2, y2)

    def intersection_area(self, other: "Rect") -> float:
        """Area of the intersection (zero when disjoint or edge-touching)."""
        w = min(self.x2, other.x2) - max(self.x1, other.x1)
        if w <= 0.0:
            return 0.0
        h = min(self.y2, other.y2) - max(self.y1, other.y1)
        if h <= 0.0:
            return 0.0
        return w * h

    def union(self, other: "Rect") -> "Rect":
        """The MBR enclosing both rectangles."""
        return Rect(min(self.x1, other.x1), min(self.y1, other.y1),
                    max(self.x2, other.x2), max(self.y2, other.y2))

    def enlargement(self, other: "Rect") -> float:
        """Extra area needed to grow this rectangle to cover *other*.

        Guttman's INSERT descends into the child whose MBR needs the least
        enlargement; ties break on smaller area.
        """
        return self.union(other).area() - self.area()

    def min_distance_to(self, other: "Rect") -> float:
        """Minimum Euclidean distance between the two rectangles.

        Zero when they intersect.  Used by the MBR-aware nearest-neighbour
        variants of PACK.
        """
        dx = max(self.x1 - other.x2, other.x1 - self.x2, 0.0)
        dy = max(self.y1 - other.y2, other.y1 - self.y2, 0.0)
        return math.hypot(dx, dy)

    def center_distance_to(self, other: "Rect") -> float:
        """Distance between rectangle centres — the default PACK NN metric."""
        return self.center().distance_to(other.center())

    def translated(self, dx: float, dy: float) -> "Rect":
        """A copy shifted by ``(dx, dy)``."""
        return Rect(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scaled_about_center(self, factor: float) -> "Rect":
        """A copy scaled by *factor* about its own centre."""
        cx, cy = self.center()
        hw = (self.x2 - self.x1) / 2.0 * factor
        hh = (self.y2 - self.y1) / 2.0 * factor
        return Rect(cx - hw, cy - hh, cx + hw, cy + hh)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.x1:g},{self.y1:g} .. {self.x2:g},{self.y2:g}]"


#: A canonical "nothing" rectangle: unioning with it is the identity.
#: Useful as the seed of MBR accumulations.
EMPTY_RECT = Rect(math.inf, math.inf, -math.inf, -math.inf)


def mbr_of_points(points: Iterable[Point]) -> Rect:
    """The minimal bounding rectangle of a non-empty point collection.

    This is the paper's ``(P1, P2, ..., Pn)`` notation from Section 3.1.

    Raises:
        ValueError: if *points* is empty.
    """
    x1 = y1 = math.inf
    x2 = y2 = -math.inf
    n = 0
    for p in points:
        if p.x < x1:
            x1 = p.x
        if p.x > x2:
            x2 = p.x
        if p.y < y1:
            y1 = p.y
        if p.y > y2:
            y2 = p.y
        n += 1
    if n == 0:
        raise ValueError("MBR of an empty point collection is undefined")
    return Rect(x1, y1, x2, y2)


def mbr_of_rects(rects: Iterable[Rect]) -> Rect:
    """The minimal bounding rectangle of a non-empty rectangle collection.

    Raises:
        ValueError: if *rects* is empty.
    """
    acc = EMPTY_RECT
    n = 0
    for r in rects:
        acc = acc.union(r)
        n += 1
    if n == 0:
        raise ValueError("MBR of an empty rectangle collection is undefined")
    return acc
