"""R-tree spatial join — the engine behind PSQL's juxtaposition.

Section 2.2: "Juxtaposition is performed by simultaneous search on the
two (or more) spatial organizations which correspond to the same area ...
analogous to the use of two or more secondary indexes during the query
processing where the intersection of the indices speeds up the search."

One kernel, :func:`_descend`, runs both join strategies over either tree
form, testing each operator inline on flat entries.  Pruning is sound for
every PSQL operator except ``disjoined`` (whose qualifying pairs are
exactly the ones pruned); the executor handles that one by complement.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import obs
from repro.geometry import predicates
from repro.geometry.rect import Rect
from repro.rtree.tree import Tree, node_mbr


@dataclass(slots=True)
class JoinStats:
    """Node accounting for one join: ``pairs_visited``/``pairs_pruned``
    count node *pairs* of a lockstep descent; ``outer_nodes``/
    ``inner_nodes``/``probes`` the per-side node reads of a nested window
    join.  ``nodes_accessed`` folds either into one node-read figure, the
    unit the planner's cost estimates are stated in."""

    pairs_visited: int = 0
    pairs_pruned: int = 0
    results: int = 0
    outer_nodes: int = 0
    inner_nodes: int = 0
    probes: int = 0

    @property
    def nodes_accessed(self) -> int:
        """Node reads: 2 per lockstep pair plus each nested-side read."""
        return 2 * self.pairs_visited + self.outer_nodes + self.inner_nodes


def spatial_join(left: Tree, right: Tree,
                 predicate: Callable[[Rect, Rect], bool] = Rect.intersects,
                 stats: Optional[JoinStats] = None,
                 ) -> list[tuple[Any, Any]]:
    """All (left oid, right oid) pairs whose MBRs satisfy *predicate*.

    *predicate* must imply rectangle intersection (covering, covered-by,
    overlapping and intersecting all do); pairs with disjoint MBRs are
    pruned wholesale during the synchronized descent.

    Returns an empty list when either tree is empty.
    """
    return _join(left, right, predicate, stats, nested=False)


def nested_window_join(outer: Tree, inner: Tree,
                       predicate: Callable[[Rect, Rect], bool]
                       = Rect.intersects,
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
    return _join(outer, inner, predicate, stats, nested=True)


def _join(a: Tree, b: Tree, predicate: Callable, stats: Optional[JoinStats],
          nested: bool) -> list[tuple[Any, Any]]:
    """Run the kernel from the two roots, or, *nested*, from each leaf
    entry of *a* as a one-entry leaf of its own against *b*'s root."""
    with ExitStack() as held:
        # Both trees' locks, in one global order: no deadlock.
        for tree in sorted((a, b), key=id):
            held.enter_context(tree.lock)
        if len(a) == 0 or len(b) == 0:
            return []
        run = JoinStats()
        with obs.timer("rtree.join.nested" if nested else "rtree.join"):
            if nested:
                nodes = a.walk()
                probes = [(True, (entry,)) for _level, _ref, is_leaf, entries
                          in nodes if is_leaf for entry in entries]
                run.outer_nodes, run.probes = len(nodes), len(probes)
                fetch_a = probes.__getitem__
                pairs = [(i, b.root) for i in range(len(probes))]
            else:
                fetch_a, pairs = a.store.fetch, [(a.root, b.root)]
            out, visited, run.pairs_pruned = _descend(
                fetch_a, b.store.fetch, pairs, _leaf_test(predicate))
    run.results = len(out)
    setattr(run, "inner_nodes" if nested else "pairs_visited", visited)
    counted = (("nested_joins", "outer_nodes", "inner_nodes") if nested
               else ("joins", "pairs_visited", "pairs_pruned"))
    if stats is not None:
        for name in JoinStats.__slots__:
            setattr(stats, name, getattr(stats, name) + getattr(run, name))
    if obs.ENABLED:
        reg = obs.active()
        reg.bump("rtree.join." + counted[0])
        for name in (*counted[1:], "results"):
            reg.bump("rtree.join." + name, getattr(run, name))
    return out


def _descend(fetch_a: Callable, fetch_b: Callable, pairs: list,
             leaf_test: Callable) -> tuple[list, int, int]:
    """The entry pairs passing *leaf_test* under the node pairs *pairs*,
    and the node pairs visited and pruned.  A leaf side holds, as one
    entry bounding it, while the other descends, depth first."""
    visited = pruned = 0
    leaves = []
    stack = pairs[::-1]
    pop = stack.pop
    while stack:
        a, b = pop()
        visited += 1
        a_leaf, a_entries = fetch_a(a)
        b_leaf, b_entries = fetch_b(b)
        if a_leaf and b_leaf:
            leaves.append((a_entries, b_entries))
            continue
        if a_leaf:
            a_entries = (node_mbr(a_entries) + (a,),)
        elif b_leaf:
            b_entries = (node_mbr(b_entries) + (b,),)
        below = _intersecting(((a_entries, b_entries),))
        pruned += len(a_entries) * len(b_entries) - len(below)
        stack += below[::-1]
    return leaf_test(leaves), visited, pruned


#: Each operator tests node pairs of flat ``(x1, y1, x2, y2, oid)`` entries;
#: as x1 <= x2 and y1 <= y2, containment implies intersection.
_LEAF_TESTS = {
    **dict.fromkeys((predicates.intersects, Rect.intersects), lambda P: [
        (a, b) for A, B in P for ax1, ay1, ax2, ay2, a in A
        for bx1, by1, bx2, by2, b in B
        if ax1 <= bx2 and bx1 <= ax2 and ay1 <= by2 and by1 <= ay2]),
    **dict.fromkeys((predicates.overlapping, Rect.overlaps_interior),
                    lambda P: [
        (a, b) for A, B in P for ax1, ay1, ax2, ay2, a in A
        for bx1, by1, bx2, by2, b in B
        if ax1 < bx2 and bx1 < ax2 and ay1 < by2 and by1 < ay2]),
    **dict.fromkeys((predicates.covers, Rect.contains), lambda P: [
        (a, b) for A, B in P for ax1, ay1, ax2, ay2, a in A
        for bx1, by1, bx2, by2, b in B
        if ax1 <= bx1 and bx2 <= ax2 and ay1 <= by1 and by2 <= ay2]),
    predicates.covered_by: lambda P: [
        (a, b) for A, B in P for ax1, ay1, ax2, ay2, a in A
        for bx1, by1, bx2, by2, b in B
        if bx1 <= ax1 and ax2 <= bx2 and by1 <= ay1 and ay2 <= by2],
}
_intersecting = _LEAF_TESTS[Rect.intersects]


def _leaf_test(predicate: Callable) -> Callable:
    """*predicate*'s test; a foreign one gets the intersecting Rects."""
    return _LEAF_TESTS.get(predicate) or (lambda P: [
        (a[4], b[4]) for A, B in P for a in A for b in B
        if a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]
        and predicate(Rect(*a[:4]), Rect(*b[:4]))])
