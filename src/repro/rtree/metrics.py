"""Coverage, overlap and tree statistics — the columns of Table 1.

Section 3.1 of the paper:

    "Coverage" is defined as the total area of all the MBRs of all leaf
    R-tree nodes, and "overlap" is defined as the total area contained
    within two or more leaf MBR's.

Two readings of *overlap* are implemented because the paper's measured
numbers exceed coverage for the INSERT trees (impossible under the strict
set-area reading):

- ``method="counted"`` — the sum of pairwise intersection areas, counting
  a region once per pair of leaves covering it.  This reproduces the
  magnitudes in Table 1 and is the default for the benchmark harness.
- ``method="union"``   — the exact area covered by two or more leaf MBRs
  (a sweep over the union of pairwise intersections), the literal reading.

EXPERIMENTS.md records both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sweep import pairwise_intersections, union_area
from repro.rtree.tree import Tree, node_mbr


def leaf_mbrs(tree: Tree) -> list[Rect]:
    """The MBR of every leaf node, left to right (empty leaves skipped)."""
    return [Rect(*node_mbr(entries))
            for _level, _ref, is_leaf, entries in tree.walk()
            if is_leaf and entries]


def coverage(tree: Tree) -> float:
    """Total area of all leaf-node MBRs (Table 1's C column)."""
    return sum(r.area() for r in leaf_mbrs(tree))


def overlap(tree: Tree, method: str = "counted") -> float:
    """Area contained in two or more leaf MBRs (Table 1's O column).

    Args:
        tree: the R-tree to measure.
        method: ``"counted"`` (multiplicity-weighted pairwise intersection
            sum, reproducing the paper's magnitudes) or ``"union"`` (exact
            area of the >=2-covered region).
    """
    rects = leaf_mbrs(tree)
    if method == "counted":
        return sum(r.area() for r in pairwise_intersections(rects))
    if method == "union":
        return union_area(pairwise_intersections(rects))
    raise ValueError(f"unknown overlap method {method!r}; "
                     f"choose 'counted' or 'union'")


def average_nodes_visited(tree: Tree, queries: Iterable[Point]) -> float:
    """Mean node accesses over point queries (Table 1's A column).

    Each query is the paper's "Is point (x, y) contained in the database?"
    probe; every node touched — including the root — counts as one access.
    """
    total = 0
    count = 0
    for q in queries:
        total += tree.count_query_accesses(q)
        count += 1
    if count == 0:
        raise ValueError("average over zero queries is undefined")
    return total / count


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
    """Measure every Table 1 column for *tree* under the given queries."""
    rects = leaf_mbrs(tree)
    inters = pairwise_intersections(rects)
    return TreeStats(
        size=len(tree),
        coverage=sum(r.area() for r in rects),
        overlap_counted=sum(r.area() for r in inters),
        overlap_union=union_area(inters),
        depth=tree.depth,
        node_count=tree.node_count,
        avg_nodes_visited=average_nodes_visited(tree, queries),
    )


def random_point_queries(n: int, universe: Rect,
                         seed: int = 0) -> list[Point]:
    """Uniform random query points over *universe* (Table 1's workload)."""
    rng = random.Random(seed)
    return [Point(rng.uniform(universe.x1, universe.x2),
                  rng.uniform(universe.y1, universe.y2))
            for _ in range(n)]
