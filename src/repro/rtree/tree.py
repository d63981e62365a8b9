"""The R-tree, written once over a node store.

The paper's node record is a CLASS flag plus DESC entries
``(X1, X2, Y1, Y2, POINTER)`` (Section 3).  A node here is exactly that,
``(is_leaf, entries)`` with flat ``(x1, y1, x2, y2, ref)`` entries (*ref*:
a child's reference, or the object id in a leaf) — the image a disk page
decodes to.  A *store* holds nodes behind ``fetch(ref)``,
``write(ref, is_leaf, entries)``, ``allocate()`` and ``free(ref)``, and
:class:`Tree` holds every algorithm once on top of it: SEARCH, the point
query and kNN; Guttman's INSERT and DELETE, which "can still be used" on
a packed tree (Section 3.4); the level-order walk; and validate.

:class:`RTree` is the tree on a :class:`ListStore` (a ref indexes a
list); :class:`repro.storage.disk_rtree.DiskRTree` is it on pages.  A
stored entry list is never changed in place: every mutation writes a
fresh one, so a fetched node can be shared freely.  Each tree holds one
re-entrant ``lock``, and every public operation runs under it, so an
operation is atomic against every other on the same tree: a search sees
a splice, a rebuild or an insert whole or not at all.  See DESIGN.md §16.
"""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from repro import obs
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.split import RStarSplit, SplitStrategy, get_split_strategy

#: One node entry: ``(x1, y1, x2, y2, ref)``.
Entry = tuple


def _leaf_items(nodes: Iterable[tuple[int, Any, bool, Sequence[Entry]]],
                ) -> Iterator[tuple[Rect, Any]]:
    """The ``(rect, oid)`` pairs in the leaves of a walk."""
    for _level, _ref, is_leaf, entries in nodes:
        if is_leaf:
            for x1, y1, x2, y2, oid in entries:
                yield Rect(x1, y1, x2, y2), oid


def node_mbr(entries: Sequence[Entry]) -> tuple[float, float, float, float]:
    """``(x1, y1, x2, y2)`` bounding a node's *entries*.

    Raises:
        ValueError: for an empty node (only the root of an empty tree).
    """
    x1s, y1s, x2s, y2s, _refs = zip(*entries)
    return min(x1s), min(y1s), max(x2s), max(y2s)


@dataclass(slots=True)
class SearchStats:
    """Accumulated access counts across one or more queries."""

    nodes_visited: int = 0
    leaves_visited: int = 0
    entries_tested: int = 0
    results: int = 0

    def merge(self, other: "SearchStats") -> None:
        self.nodes_visited += other.nodes_visited
        self.leaves_visited += other.leaves_visited
        self.entries_tested += other.entries_tested
        self.results += other.results


class ListStore:
    """The in-memory node store: a ref is an index into one list."""

    def __init__(self) -> None:
        self.nodes: list[Optional[tuple[bool, Sequence[Entry]]]] = []
        self._free: list[int] = []
        self.fetch = self.nodes.__getitem__

    def write(self, ref: int, is_leaf: bool,
              entries: Sequence[Entry]) -> None:
        self.nodes[ref] = (is_leaf, entries)

    def allocate(self) -> int:
        if self._free:
            return self._free.pop()
        self.nodes.append(None)
        return len(self.nodes) - 1

    def free(self, ref: int) -> None:
        self.nodes[ref] = None
        self._free.append(ref)

    def live_nodes(self) -> int:
        """Nodes allocated and not freed."""
        return len(self.nodes) - len(self._free)


class Tree:
    """Every R-tree algorithm, once, over ``self.store``.

    A subclass sets ``lock`` (a ``threading.RLock``), ``store``, ``root``
    (the root node's ref), ``_size``, ``max_entries`` and ``min_entries``,
    and names the counter families its queries feed:
    ``_count_query(nodes, leaves, tests, pruned, results)`` and
    ``_count_knn(nodes, results)``.  Every public method takes ``lock``
    for its whole run; a caller that needs several of them as one
    operation (the join kernel, a repack and its commit) holds it too.
    """

    #: How an overflowing node divides: R*'s choice on both tree forms.
    split_strategy: SplitStrategy = RStarSplit()

    def __len__(self) -> int:
        return self._size

    # -- SEARCH ---------------------------------------------------------------

    def search(self, window: Rect,
               stats: Optional[SearchStats] = None) -> list[Any]:
        """Identifiers of objects whose MBR intersects *window*.

        The paper's SEARCH with INTERSECTS at every level.  *stats*
        accumulates the nodes, leaves and entries the search touched (the
        paper's A column counts the nodes).
        """
        with self.lock:
            return self._search(window, False, stats)

    def search_within(self, window: Rect,
                      stats: Optional[SearchStats] = None) -> list[Any]:
        """Identifiers of objects entirely WITHIN *window*.

        The paper's pseudo-code exactly: INTERSECTS prunes the descent,
        WITHIN filters at the leaves.
        """
        with self.lock:
            return self._search(window, True, stats)

    def point_query(self, point: Point,
                    stats: Optional[SearchStats] = None) -> list[Any]:
        """Identifiers of objects whose MBR contains *point*.

        Table 1's search workload — "Is point (x1, y1) contained in the
        database?" — is a search with the degenerate window at *point*.
        """
        with self.lock:
            return self._search((point.x, point.y, point.x, point.y), False,
                                stats)

    def _search(self, window: Sequence[float], within: bool,
                stats: Optional[SearchStats]) -> list[Any]:
        wx1, wy1, wx2, wy2 = window
        fetch = self.store.fetch
        out: list[Any] = []
        stack = [self.root]
        track = obs.ENABLED
        count = track or stats is not None
        nodes = leaves = tests = pruned = 0
        while stack:
            is_leaf, entries = fetch(stack.pop())
            if is_leaf and within:
                hits = [ref for x1, y1, x2, y2, ref in entries
                        if wx1 <= x1 and x2 <= wx2
                        and wy1 <= y1 and y2 <= wy2]
            else:
                hits = [ref for x1, y1, x2, y2, ref in entries
                        if x1 <= wx2 and wx1 <= x2
                        and y1 <= wy2 and wy1 <= y2]
            if is_leaf:
                out += hits
            else:
                stack += hits
            if count:
                nodes += 1
                leaves += is_leaf
                tests += len(entries)
                pruned += 0 if is_leaf else len(entries) - len(hits)
        if stats is not None:
            stats.nodes_visited += nodes
            stats.leaves_visited += leaves
            stats.entries_tested += tests
        if track:
            self._count_query(nodes, leaves, tests, pruned, len(out))
        return out

    def knn(self, point: Point, k: int = 1,
            stats: Optional[SearchStats] = None) -> list[tuple[float, Any]]:
        """The *k* objects nearest *point*, as ``(distance, oid)`` pairs.

        Best-first branch-and-bound on MINDIST, the follow-up work to
        this paper (Roussopoulos, Kelley & Vincent 1995): only nodes whose
        MBR could hold a result are fetched.  Distances are to object
        MBRs and equal :meth:`~repro.geometry.rect.Rect.min_distance_to`
        of the degenerate query rectangle, bit for bit.  The k smallest
        object distances pushed so far bound the answer: an entry
        strictly farther than the k-th of them would pop only after k
        results, so it is never pushed.  Ties are pushed, and every
        entry takes a tiebreak, so the pop order is the unbounded one.

        Raises:
            ValueError: for non-positive *k*.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        with self.lock:
            if self._size == 0:
                return []
            px, py = point.x, point.y
            fetch = self.store.fetch
            hypot = math.hypot
            heappush, heappop = heapq.heappush, heapq.heappop
            heapreplace = heapq.heapreplace
            # (distance, tiebreak, is_object, ref or oid)
            heap: list[tuple[float, int, bool, Any]] = [(0.0, 0, False,
                                                         self.root)]
            out: list[tuple[float, Any]] = []
            # The k smallest object distances pushed so far, negated: a
            # max-heap seeded with infinities, whose top is the bound.
            nearest = [-math.inf] * min(k, self._size)
            bound = math.inf
            counter = nodes = leaves = tests = 0
            while heap and len(out) < k:
                dist, _tb, is_object, ref = heappop(heap)
                if is_object:
                    out.append((dist, ref))
                    continue
                is_leaf, entries = fetch(ref)
                nodes += 1
                leaves += is_leaf
                tests += len(entries)
                for x1, y1, x2, y2, child in entries:
                    counter += 1
                    dx = x1 - px
                    if dx < px - x2:
                        dx = px - x2
                    if dx < 0.0:
                        dx = 0.0
                    dy = y1 - py
                    if dy < py - y2:
                        dy = py - y2
                    if dy < 0.0:
                        dy = 0.0
                    dist = hypot(dx, dy)
                    if dist > bound:
                        continue
                    if is_leaf:
                        heapreplace(nearest, -dist)
                        bound = -nearest[0]
                    heappush(heap, (dist, counter, is_leaf, child))
            if stats is not None:
                stats.nodes_visited += nodes
                stats.leaves_visited += leaves
                stats.entries_tested += tests
            if obs.ENABLED:
                self._count_knn(nodes, len(out))
            return out

    # -- the level-order walk -------------------------------------------------

    def walk(self, ref: Any = None,
             ) -> list[tuple[int, Any, bool, Sequence[Entry]]]:
        """Level-order walk of the subtree at *ref* (default: the tree).

        ``(level, ref, is_leaf, entries)`` per node, the subtree's root at
        level 0 and each level left to right.  Every whole-tree reader
        runs on this one walk.  It is a snapshot taken under the lock, so
        no lock stays held while a caller consumes it.
        """
        with self.lock:
            return list(self._walk(ref))

    def _walk(self, ref: Any = None,
              ) -> Iterator[tuple[int, Any, bool, Sequence[Entry]]]:
        """:meth:`walk`, lazily, for a caller that holds the lock."""
        fetch = self.store.fetch
        frontier = [self.root if ref is None else ref]
        level = 0
        while frontier:
            below: list[Any] = []
            for node_ref in frontier:
                is_leaf, entries = fetch(node_ref)
                yield level, node_ref, is_leaf, entries
                if not is_leaf:
                    below += [e[4] for e in entries]
            frontier = below
            level += 1

    @property
    def depth(self) -> int:
        """Edges from root to leaves (Table 1's D column; 0 = root only)."""
        with self.lock:
            fetch = self.store.fetch
            is_leaf, entries = fetch(self.root)
            depth = 0
            while not is_leaf:
                is_leaf, entries = fetch(entries[0][4])
                depth += 1
            return depth

    @property
    def node_count(self) -> int:
        """Total nodes including the root (Table 1's N column)."""
        with self.lock:
            return sum(1 for _ in self._walk())

    def items(self) -> Iterator[tuple[Rect, Any]]:
        """Every stored ``(rect, oid)`` pair, leaves left to right, from
        a :meth:`walk` snapshot."""
        return _leaf_items(self.walk())

    def __iter__(self) -> Iterator[tuple[Rect, Any]]:
        return self.items()

    def bounds(self) -> Optional[Rect]:
        """MBR of the whole tree, or ``None`` when empty."""
        with self.lock:
            _is_leaf, entries = self.store.fetch(self.root)
        return Rect(*node_mbr(entries)) if entries else None

    # -- INSERT ---------------------------------------------------------------

    def insert(self, rect: Rect, oid: Any) -> None:
        """Insert a data object with bounding rectangle *rect*.

        Guttman's INSERT: descend by least enlargement, add to the chosen
        leaf, split on overflow and propagate upward.
        """
        if not rect.is_valid():
            raise ValueError(f"invalid rectangle {rect!r}")
        with self.lock:
            self._insert((rect[0], rect[1], rect[2], rect[3], oid), 0)
            self._size += 1

    def insert_all(self, items: Iterable[tuple[Rect, Any]]) -> None:
        """Insert many ``(rect, oid)`` pairs with repeated dynamic INSERTs."""
        with self.lock:
            for rect, oid in items:
                self.insert(rect, oid)

    def _insert(self, entry: Entry, height: int) -> None:
        """Add *entry* to a node *height* levels above the leaves."""
        refs, slots = self._choose_path(entry)
        depth = len(refs) - 1 - height
        _is_leaf, entries = self.store.fetch(refs[depth])
        self._adjust(refs, slots, depth, [*entries, entry], height == 0)

    def _choose_path(self, rect: Sequence[float],
                     ) -> tuple[list[Any], list[int]]:
        """ChooseLeaf: the refs from the root to a leaf, and the slot taken
        in each internal node.

        Each step takes the entry needing the least enlargement to cover
        *rect*, ties to the smaller area.  The choice at a level does not
        depend on where the descent stops, so a path cut short at height
        *h* is ChooseLeaf stopped at that level.
        """
        rx1, ry1, rx2, ry2 = rect[0], rect[1], rect[2], rect[3]
        fetch = self.store.fetch
        ref = self.root
        refs, slots = [ref], []
        is_leaf, entries = fetch(ref)
        while not is_leaf:
            best = 0
            best_growth = best_area = math.inf
            for i, (x1, y1, x2, y2, child) in enumerate(entries):
                area = (x2 - x1) * (y2 - y1)
                growth = ((max(x2, rx2) - min(x1, rx1))
                          * (max(y2, ry2) - min(y1, ry1)) - area)
                if growth < best_growth or (growth == best_growth
                                            and area < best_area):
                    best, ref, best_growth, best_area = i, child, growth, area
            refs.append(ref)
            slots.append(best)
            is_leaf, entries = fetch(ref)
        return refs, slots

    def _adjust(self, refs: list[Any], slots: list[int], depth: int,
                entries: list[Entry], is_leaf: bool) -> None:
        """Write *entries* as node ``refs[depth]``, then AdjustTree.

        An overflowing node splits by the split policy and its new
        sibling's entry joins the parent; each parent entry on the path is
        refitted to its child, stopping at the first that needs no change.
        A root split grows the tree by one level.
        """
        store = self.store
        while True:
            ref = refs[depth]
            sibling = None
            if len(entries) > self.max_entries:
                entries, group = self.split_strategy.split(
                    entries, self.min_entries)
                sibling = self._new_node(group, is_leaf)
            store.write(ref, is_leaf, entries)
            fitted = node_mbr(entries) + (ref,)
            if depth == 0:
                if sibling is not None:
                    self.root = self._new_node([fitted, sibling], False)[4]
                return
            depth -= 1
            _is_leaf, parent = store.fetch(refs[depth])
            slot = slots[depth]
            if sibling is None and parent[slot] == fitted:
                return
            entries = list(parent)
            entries[slot] = fitted
            if sibling is not None:
                entries.append(sibling)
            is_leaf = False

    def _new_node(self, entries: list[Entry], is_leaf: bool) -> Entry:
        """Store a new node holding *entries*; return its parent entry."""
        ref = self.store.allocate()
        self.store.write(ref, is_leaf, entries)
        return node_mbr(entries) + (ref,)

    # -- DELETE ---------------------------------------------------------------

    def delete(self, rect: Rect, oid: Any) -> bool:
        """Delete the record with bounding box *rect* and identifier *oid*.

        Returns ``True`` if a record was found and removed.  Guttman's
        DELETE: FindLeaf, then CondenseTree.
        """
        with self.lock:
            found = self._find_leaf((rect[0], rect[1], rect[2], rect[3],
                                     oid))
            if found is None:
                return False
            self._size -= 1
            self._condense(*found)
            return True

    def _find_leaf(self, target: Entry,
                   ) -> Optional[tuple[list[Any], list[int], list[Entry]]]:
        """FindLeaf: the path to the first leaf holding *target*, and that
        leaf's entries without it; ``None`` when absent."""
        tx1, ty1, tx2, ty2 = target[0], target[1], target[2], target[3]
        fetch = self.store.fetch

        def visit(refs: list[Any], slots: list[int]):
            is_leaf, entries = fetch(refs[-1])
            if is_leaf:
                if target not in entries:
                    return None
                rest = list(entries)
                rest.remove(target)
                return refs, slots, rest
            for i, (x1, y1, x2, y2, child) in enumerate(entries):
                if x1 <= tx2 and tx1 <= x2 and y1 <= ty2 and ty1 <= y2:
                    found = visit(refs + [child], slots + [i])
                    if found is not None:
                        return found
            return None

        return visit([self.root], [])

    def _condense(self, refs: list[Any], slots: list[int],
                  entries: list[Entry]) -> None:
        """CondenseTree from the leaf at ``refs[-1]``, now holding *entries*.

        Up the path, a node left below the minimum fill is removed from
        its parent and freed, and its entries are re-inserted at their own
        level: a data entry into a leaf, an internal entry (a whole
        subtree, kept as it is) into a node of its height.  Only nodes
        whose entries changed are written.  Then a root left with one
        child is replaced by that child.
        """
        store = self.store
        orphans: list[tuple[int, Entry]] = []  # (height, entry)
        is_leaf = changed = True
        depth = len(refs) - 1
        while depth:
            ref = refs[depth]
            _is_leaf, parent = store.fetch(refs[depth - 1])
            slot = slots[depth - 1]
            if len(entries) < self.min_entries:
                parent = [*parent[:slot], *parent[slot + 1:]]
                store.free(ref)
                orphans += [(len(refs) - 1 - depth, e) for e in entries]
                changed = True
            else:
                if changed:
                    store.write(ref, is_leaf, entries)
                fitted = node_mbr(entries) + (ref,)
                changed = parent[slot] != fitted
                if changed:
                    parent = list(parent)
                    parent[slot] = fitted
            entries, is_leaf = parent, False
            depth -= 1
        if changed:
            store.write(refs[0], is_leaf, entries)
        for height, entry in orphans:
            self._insert(entry, height)
        is_leaf, entries = store.fetch(self.root)
        while not is_leaf and len(entries) == 1:
            store.free(self.root)
            self.root = entries[0][4]
            is_leaf, entries = store.fetch(self.root)

    def delete_window(self, window: Rect, within: bool = True) -> int:
        """Delete every object inside *window*; returns how many.

        With ``within=True`` (default) only objects entirely inside the
        window are removed; otherwise anything intersecting it goes.
        The pictorial use case: erase a region of the picture.
        """
        test = window.contains if within else window.intersects
        with self.lock:
            doomed = [(rect, oid) for rect, oid in self.items()
                      if test(rect)]
            for rect, oid in doomed:
                removed = self.delete(rect, oid)
                assert removed, "leaf entry vanished during delete_window"
        return len(doomed)

    # -- local repack support -------------------------------------------------

    def _covering_path(self, region: Optional[Rect],
                       ) -> tuple[list[Any], list[int]]:
        """The path from the root to the deepest internal node whose MBR
        contains *region*, and the slot taken at each step.

        Where several children cover the region the smallest-area one is
        descended: churn-grown siblings overlap around the very hot spots
        a repack wants to fix, and any covering subtree is a correct
        target.  The path stops above the leaves, and at the root when no
        child covers the region or there is no region.
        """
        fetch = self.store.fetch
        refs, slots = [self.root], []
        is_leaf, entries = fetch(self.root)
        while not is_leaf and region is not None:
            best = -1
            best_area = math.inf
            for i, (x1, y1, x2, y2, child) in enumerate(entries):
                if (x1 <= region.x1 and region.x2 <= x2
                        and y1 <= region.y1 and region.y2 <= y2
                        and (x2 - x1) * (y2 - y1) < best_area):
                    best, ref, best_area = i, child, (x2 - x1) * (y2 - y1)
            if best < 0:
                break
            is_leaf, below = fetch(ref)
            if is_leaf:
                break
            refs.append(ref)
            slots.append(best)
            entries = below
        return refs, slots

    def _free_subtree(self, ref: Any) -> tuple[list[Entry], int, int]:
        """Free the subtree at *ref*; return ``(leaf entries, nodes freed,
        height)``, the height in edges from *ref* down to its leaves."""
        out: list[Entry] = []
        refs = []
        height = 0
        for level, node_ref, is_leaf, entries in self._walk(ref):
            refs.append(node_ref)
            if is_leaf:
                out += entries
                height = level
        for node_ref in refs:
            self.store.free(node_ref)
        return out, len(refs), height

    # -- validation -----------------------------------------------------------

    def validate(self, check_fill: bool = True) -> None:
        """Check all structural invariants; raise ``AssertionError`` if broken.

        Invariants (Guttman 1984 / paper Section 3.2):

        - every node holds at most ``M`` entries, and every node except the
          root at least ``m`` (the lower bound is skipped when
          ``check_fill`` is False: packed trees leave one under-filled node
          per level when the input is not a multiple of M, and a local
          repack pads with single-entry nodes);
        - a non-leaf root holds at least 2 entries;
        - every internal entry's rectangle is exactly its child's MBR, and
          no node is reachable twice;
        - all leaves are at the same depth;
        - the recorded size matches the number of leaf entries;
        - the store holds no node the walk does not reach (on disk: header
          + meta + reachable + free pages == the file's page count).
        """
        with self.lock:
            self._validate(check_fill)

    def _validate(self, check_fill: bool) -> None:
        parent_rect: dict[Any, tuple] = {}
        seen: set[Any] = set()
        leaf_levels: set[int] = set()
        size = 0
        for level, ref, is_leaf, entries in self._walk():
            assert ref not in seen, f"node {ref!r} is reachable twice"
            seen.add(ref)
            assert len(entries) <= self.max_entries, (
                f"node fill {len(entries)} exceeds {self.max_entries}")
            if level == 0:
                assert is_leaf or len(entries) >= 2, \
                    "non-leaf root must have >= 2 children"
            else:
                assert entries, "empty non-root node"
                assert not check_fill or len(entries) >= self.min_entries, (
                    f"node fill {len(entries)} below minimum "
                    f"{self.min_entries}")
                mbr = node_mbr(entries)
                assert parent_rect[ref] == mbr, (
                    f"entry rect {parent_rect[ref]} is not the child MBR "
                    f"{mbr}")
            if is_leaf:
                leaf_levels.add(level)
                size += len(entries)
            else:
                for e in entries:
                    parent_rect[e[4]] = e[:4]
        assert len(leaf_levels) <= 1, (
            f"leaves at multiple depths {leaf_levels}")
        assert self._size == size, (
            "recorded size disagrees with leaf entry count")
        live = self.store.live_nodes()
        assert live == len(seen), (
            f"{live} nodes stored but {len(seen)} reachable")


class RTree(Tree):
    """A two-dimensional R-tree in memory: the tree on a :class:`ListStore`.

    Args:
        max_entries: ``M``, the branching factor.  The paper uses 4
            throughout; production block-sized trees use 50+.
        min_entries: ``m``, the minimum fill.  Defaults to ``M // 2``
            (the largest value Guttman permits).
        split: ``"rstar"`` (both forms' default), an ablation's
            ``"exhaustive"``, ``"quadratic"``, ``"linear"``, or a
            :class:`SplitStrategy`.
    """

    def __init__(self, max_entries: int = 4,
                 min_entries: Optional[int] = None,
                 split: Union[str, SplitStrategy] = "rstar"):
        if max_entries < 2:
            raise ValueError("branching factor must be at least 2")
        self.max_entries = max_entries
        self.min_entries = (max_entries // 2 if min_entries is None
                            else min_entries)
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must lie in [1, M/2]; "
                f"got m={self.min_entries}, M={max_entries}")
        if isinstance(split, str):
            split = get_split_strategy(split)
        self.split_strategy = split
        self.lock = threading.RLock()
        self.store = ListStore()
        self.root = self.store.allocate()
        self.store.write(self.root, True, [])
        self._size = 0

    def _count_query(self, nodes: int, leaves: int, tests: int,
                     pruned: int, results: int) -> None:
        reg = obs.active()
        reg.bump("rtree.search.queries")
        reg.bump("rtree.search.nodes_visited", nodes)
        reg.bump("rtree.search.leaves_visited", leaves)
        reg.bump("rtree.search.mbr_tests", tests)
        reg.bump("rtree.search.pruned_subtrees", pruned)
        reg.bump("rtree.search.results", results)

    def _count_knn(self, nodes: int, results: int) -> None:
        reg = obs.active()
        reg.bump("rtree.knn.queries")
        reg.bump("rtree.knn.nodes_visited", nodes)
        reg.bump("rtree.knn.results", results)

    #: The trailing-node fill of every pack into this tree: the paper's
    #: (no minimum), which Table 1 reproduces (see ``_emit_level``).
    pack_fill = 0

    def _pack_sink(self):
        """PACK's node sink for a local repack, and its trailing-node
        fill."""
        return self._new_node, self.pack_fill

    def rebuild(self, items: Iterable[tuple[Rect, Any]], method: str,
                distance: str = "center") -> None:
        """Re-PACK the whole tree in place from *items*, under the lock."""
        from repro.rtree.packing import pack

        with self.lock:
            fresh = pack(list(items), self.max_entries, method, distance)
            self.store, self.root, self._size = (fresh.store, fresh.root,
                                                 len(fresh))

    def flush(self) -> None:
        """Nothing to write back: the tree lives in memory."""
