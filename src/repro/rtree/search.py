"""Search procedures over R-trees with instrumentation.

The tree runs the queries (:class:`repro.rtree.tree.Tree`); these
wrappers add the accounting used throughout the experiments — node and
leaf access counts, result counts, pruning factors — over either tree
form.
"""

from __future__ import annotations

from typing import Any

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.tree import SearchStats, Tree


def window_search(tree: Tree, window: Rect,
                  stats: SearchStats | None = None) -> list[Any]:
    """All objects whose MBR intersects *window*, with access accounting."""
    return _counted(tree.search, window, stats)


def window_search_within(tree: Tree, window: Rect,
                         stats: SearchStats | None = None) -> list[Any]:
    """Objects entirely within *window* — the paper's SEARCH procedure."""
    return _counted(tree.search_within, window, stats)


def point_search(tree: Tree, point: Point,
                 stats: SearchStats | None = None) -> list[Any]:
    """Objects whose MBR contains *point* — Table 1's probe query."""
    return _counted(tree.point_query, point, stats)


def _counted(query, arg: Any, stats: SearchStats | None) -> list[Any]:
    stats = stats if stats is not None else SearchStats()
    results = query(arg, stats)
    stats.results += len(results)
    return results


def pruning_factor(tree: Tree, window: Rect) -> float:
    """Fraction of nodes a window search avoids visiting.

    ``1.0`` means the search touched only the root; ``0.0`` means every
    node was visited — the degenerate situation of Figure 3.3, where the
    window intersects all root entries and "the search cannot yet be
    pruned".
    """
    total = tree.node_count
    if total == 0:
        return 1.0
    stats = SearchStats()
    window_search(tree, window, stats)
    return 1.0 - stats.nodes_visited / total


def knn_search(tree: Tree, query: Point, k: int = 1,
               stats: SearchStats | None = None) -> list[tuple[float, Any]]:
    """The *k* objects nearest to *query*, as ``(distance, oid)`` pairs.

    See :meth:`repro.rtree.tree.Tree.knn`; this adds the result count.
    """
    stats = stats if stats is not None else SearchStats()
    out = tree.knn(query, k, stats)
    stats.results += len(out)
    return out
