"""Analytical query-cost model for R-trees.

The paper argues informally that search cost is governed by *coverage*
and *overlap* (Section 3.1).  The later literature made this exact: for
a uniformly placed window query of extent ``(wx, wy)`` over a universe
``U``, a node with MBR ``(x1, y1, x2, y2)`` is visited with probability

    P(visit) = ((x2 - x1) + wx) * ((y2 - y1) + wy) / (Wu * Hu)

(the Minkowski sum of the MBR and the window, clipped to the universe),
so the expected node accesses are just a sum over all node MBRs — pure
geometry, no execution.  This module implements that estimator, which
lets the tests *validate the paper's thesis quantitatively*: trees with
smaller per-level coverage really do cost proportionally less, and the
estimate matches measured accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.rect import Rect
from repro.rtree.tree import Tree


@dataclass(frozen=True)
class CostEstimate:
    """Expected node accesses for one query shape."""

    window_w: float
    window_h: float
    expected_accesses: float
    per_level: tuple[float, ...]  # root level first


def node_visit_probability(mbr: Rect, window_w: float, window_h: float,
                           universe: Rect) -> float:
    """P(a uniform window intersects *mbr*): clipped Minkowski sum.

    The window's centre is uniform over *universe*; the window intersects
    the MBR exactly when its centre falls inside the Minkowski sum of the
    MBR and the half-window.  That sum is clipped to the universe **per
    MBR** — clamping each axis to the full universe extent instead (the
    seed's behaviour) inflates the probability of every MBR near the
    border, because the part of its Minkowski rectangle hanging outside
    the universe can never contain a window centre.
    """
    x1 = max(mbr.x1 - window_w / 2.0, universe.x1)
    x2 = min(mbr.x2 + window_w / 2.0, universe.x2)
    y1 = max(mbr.y1 - window_h / 2.0, universe.y1)
    y2 = min(mbr.y2 + window_h / 2.0, universe.y2)
    if x2 <= x1 or y2 <= y1:
        return 0.0
    return (x2 - x1) * (y2 - y1) / universe.area()


def expected_window_accesses(tree: Tree, window_w: float,
                             window_h: float,
                             universe: Rect) -> CostEstimate:
    """Expected nodes visited by a uniform random window query.

    The root is always visited; every other node contributes the
    Minkowski-sum probability of its *parent entry's* MBR (a node is
    read exactly when the search descends into it, i.e. when its MBR
    intersects the window).

    Args:
        tree: the tree to analyse.
        window_w / window_h: query window extents.
        universe: region the window's *centre* is drawn from uniformly.

    Raises:
        ValueError: for empty universes or negative window extents.
    """
    if universe.area() <= 0:
        raise ValueError("universe must have positive area")
    if window_w < 0 or window_h < 0:
        raise ValueError("window extents must be non-negative")

    # The root (probability 1), then every child MBR, level by level.
    per_level: list[float] = [1.0]
    for level, _ref, is_leaf, entries in tree.walk():
        if is_leaf:
            continue
        if level + 1 == len(per_level):
            per_level.append(0.0)
        for x1, y1, x2, y2, _child in entries:
            per_level[-1] += node_visit_probability(
                Rect(x1, y1, x2, y2), window_w, window_h, universe)
    return CostEstimate(window_w=window_w, window_h=window_h,
                        expected_accesses=sum(per_level),
                        per_level=tuple(per_level))


def measured_window_accesses(tree: Tree, window_w: float, window_h: float,
                             universe: Rect, samples: int = 200,
                             seed: int = 0) -> float:
    """Monte-Carlo ground truth for :func:`expected_window_accesses`."""
    import random

    from repro.geometry.point import Point
    from repro.rtree.search import SearchStats, window_search

    rng = random.Random(seed)
    total = 0
    for _ in range(samples):
        cx = rng.uniform(universe.x1, universe.x2)
        cy = rng.uniform(universe.y1, universe.y2)
        window = Rect.from_center(Point(cx, cy), window_w / 2.0,
                                  window_h / 2.0)
        stats = SearchStats()
        window_search(tree, window, stats)
        total += stats.nodes_visited
    return total / samples
