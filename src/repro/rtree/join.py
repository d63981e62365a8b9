"""R-tree spatial join — the engine behind PSQL's juxtaposition.

Section 2.2: "Juxtaposition is performed by simultaneous search on the
two (or more) spatial organizations which correspond to the same area ...
analogous to the use of two or more secondary indexes during the query
processing where the intersection of the indices speeds up the search."

The join descends both trees in lockstep, pruning any node pair whose
MBRs do not intersect.  This is sound for every PSQL operator except
``disjoined`` (whose qualifying pairs are exactly the ones a lockstep
descent prunes); the executor handles that one by complementation.  Both
descents read nodes through each tree's store, so either tree may be in
memory or on disk.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro import obs
from repro.geometry.rect import Rect
from repro.rtree.tree import Tree, node_mbr


JoinPredicate = Callable[[Rect, Rect], bool]


def spatial_join(left: Tree, right: Tree,
                 predicate: JoinPredicate = Rect.intersects,
                 stats: Optional["JoinStats"] = None,
                 ) -> list[tuple[Any, Any]]:
    """All (left oid, right oid) pairs whose MBRs satisfy *predicate*.

    *predicate* must imply rectangle intersection (covering, covered-by,
    overlapping and intersecting all do); pairs with disjoint MBRs are
    pruned wholesale during the synchronized descent.

    Returns an empty list when either tree is empty.
    """
    if len(left) == 0 or len(right) == 0:
        return []
    out: list[tuple[Any, Any]] = []
    if stats is None:
        stats = JoinStats()
    # A caller-supplied JoinStats may carry counts from earlier joins;
    # only this call's deltas go to the observability counters.
    visited0, pruned0, results0 = (stats.pairs_visited, stats.pairs_pruned,
                                   stats.results)
    with obs.timer("rtree.join"):
        _join(left, right, predicate, out, stats)
    if obs.ENABLED:
        reg = obs.active()
        reg.bump("rtree.join.joins")
        reg.bump("rtree.join.pairs_visited", stats.pairs_visited - visited0)
        reg.bump("rtree.join.pairs_pruned", stats.pairs_pruned - pruned0)
        reg.bump("rtree.join.results", stats.results - results0)
    return out


class JoinStats:
    """Node-pair accounting for one join.

    ``pairs_visited``/``pairs_pruned`` count node *pairs* of a lockstep
    descent; ``outer_nodes``/``inner_nodes``/``probes`` count the
    per-side node reads of a nested window join.  ``nodes_accessed``
    folds either strategy into one comparable node-read figure — the
    unit the planner's cost estimates are stated in.
    """

    __slots__ = ("pairs_visited", "pairs_pruned", "results",
                 "outer_nodes", "inner_nodes", "probes")

    def __init__(self) -> None:
        self.pairs_visited = 0
        self.pairs_pruned = 0
        self.results = 0
        self.outer_nodes = 0
        self.inner_nodes = 0
        self.probes = 0

    @property
    def nodes_accessed(self) -> int:
        """Node reads: 2 per lockstep pair plus each nested-side read."""
        return (2 * self.pairs_visited + self.outer_nodes
                + self.inner_nodes)


def nested_window_join(outer: Tree, inner: Tree,
                       predicate: JoinPredicate = Rect.intersects,
                       stats: Optional[JoinStats] = None,
                       ) -> list[tuple[Any, Any]]:
    """Index-nested-loop spatial join: *outer* drives window probes.

    Every leaf entry of *outer* becomes a window search on *inner*, so
    the cost is ``nodes(outer) + |outer| x E[probe accesses]`` — which,
    unlike the order-symmetric lockstep :func:`spatial_join`, makes the
    choice of driving tree matter.  The planner picks the outer side by
    estimated driving-tree accesses.

    *predicate* is applied as ``predicate(outer_rect, inner_rect)`` on
    leaf MBR pairs and must imply rectangle intersection; the returned
    pairs are ``(outer oid, inner oid)``.
    """
    if len(outer) == 0 or len(inner) == 0:
        return []
    if stats is None:
        stats = JoinStats()
    out: list[tuple[Any, Any]] = []
    outer0, inner0, results0 = (stats.outer_nodes, stats.inner_nodes,
                                stats.results)
    fetch = inner.store.fetch
    check = None if predicate is Rect.intersects else predicate

    def probe(ref: Any, window: Rect, outer_oid: Any) -> None:
        stats.inner_nodes += 1
        is_leaf, entries = fetch(ref)
        wx1, wy1, wx2, wy2 = window
        for x1, y1, x2, y2, child in entries:
            if not (x1 <= wx2 and wx1 <= x2 and y1 <= wy2 and wy1 <= y2):
                if not is_leaf:
                    stats.pairs_pruned += 1
            elif not is_leaf:
                probe(child, window, outer_oid)
            elif check is None or check(window, Rect(x1, y1, x2, y2)):
                out.append((outer_oid, child))
                stats.results += 1

    with obs.timer("rtree.join.nested"):
        for _level, _ref, is_leaf, entries in outer.walk():
            stats.outer_nodes += 1
            if not is_leaf:
                continue
            for x1, y1, x2, y2, oid in entries:
                stats.probes += 1
                probe(inner.root, Rect(x1, y1, x2, y2), oid)
    if obs.ENABLED:
        reg = obs.active()
        reg.bump("rtree.join.nested_joins")
        reg.bump("rtree.join.outer_nodes", stats.outer_nodes - outer0)
        reg.bump("rtree.join.inner_nodes", stats.inner_nodes - inner0)
        reg.bump("rtree.join.results", stats.results - results0)
    return out


def _join(left: Tree, right: Tree, predicate: JoinPredicate,
          out: list[tuple[Any, Any]], stats: JoinStats) -> None:
    """The lockstep descent; a leaf side holds, as one pseudo-entry
    bounding the whole leaf, while the other side descends."""
    fetch_l, fetch_r = left.store.fetch, right.store.fetch
    check = None if predicate is Rect.intersects else predicate

    def join(a: Any, b: Any) -> None:
        stats.pairs_visited += 1
        a_leaf, a_entries = fetch_l(a)
        b_leaf, b_entries = fetch_r(b)
        if a_leaf and b_leaf:
            for ax1, ay1, ax2, ay2, a_oid in a_entries:
                for bx1, by1, bx2, by2, b_oid in b_entries:
                    if (ax1 <= bx2 and bx1 <= ax2 and ay1 <= by2
                            and by1 <= ay2
                            and (check is None
                                 or check(Rect(ax1, ay1, ax2, ay2),
                                          Rect(bx1, by1, bx2, by2)))):
                        out.append((a_oid, b_oid))
                        stats.results += 1
            return
        if a_leaf:
            a_entries = [node_mbr(a_entries) + (a,)]
        elif b_leaf:
            b_entries = [node_mbr(b_entries) + (b,)]
        for ax1, ay1, ax2, ay2, a_child in a_entries:
            for bx1, by1, bx2, by2, b_child in b_entries:
                if ax1 <= bx2 and bx1 <= ax2 and ay1 <= by2 and by1 <= ay2:
                    join(a_child, b_child)
                else:
                    stats.pairs_pruned += 1

    join(left.root, right.root)
