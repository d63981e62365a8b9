"""Local re-packing — the paper's Section 4 future work, implemented.

    "We are currently investigating the possibility of dynamic
    invocation of the PACK algorithm during insertions and deletions to
    efficiently perform a 'local' reorganization.  This will achieve the
    search performance obtained by the PACK algorithm for dynamically
    reorganized R-trees."

:func:`local_repack` finds the smallest subtree whose MBR covers a given
region, rebuilds that subtree with PACK, and splices it back — restoring
packed-quality structure around update hot spots without touching the
rest of the tree.  With ``region=None`` it re-packs the whole tree in
place.

:func:`local_repack_disk` is the page-resident twin for
:class:`~repro.storage.disk_rtree.DiskRTree`: degraded subtrees are
re-packed onto fresh pages and spliced into the parent page, while a
whole-tree repack reuses the offline-rebuild atomic file swap
(:func:`repro.rtree.bulkload.rebuild_tree_file`) so the live file stays
readable until the swap instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.geometry.rect import Rect
from repro.rtree.node import Entry, Node
from repro.rtree.packing import (
    _lookup_distance,
    _lookup_method,
    _node_sink,
    _pack_levels,
)
from repro.rtree.tree import RTree


@dataclass(frozen=True)
class RepackResult:
    """What a local re-pack did."""

    entries_repacked: int
    nodes_before: int
    nodes_after: int
    subtree_height: int

    @property
    def nodes_saved(self) -> int:
        return self.nodes_before - self.nodes_after


def local_repack(tree: RTree, region: Optional[Rect] = None,
                 method: str = "nn",
                 distance: str = "center") -> RepackResult:
    """Re-PACK the smallest subtree covering *region* (whole tree if None).

    The rebuilt subtree keeps the original subtree's height (padding with
    single-child interior nodes when packing would make it shallower), so
    every leaf of the tree stays at the same depth and no ancestor needs
    restructuring — only its MBR chain is refreshed.

    Args:
        tree: the tree to reorganise (modified in place).
        region: hot-spot rectangle; ``None`` re-packs everything.
        method / distance: forwarded to the PACK grouping strategy.

    Returns:
        A :class:`RepackResult` with before/after node counts.
    """
    group_fn = _lookup_method(method)
    distance_fn = _lookup_distance(distance)

    target = tree.root if region is None else _smallest_subtree(tree, region)
    entries = list(target.leaf_entries())
    if not entries:
        return RepackResult(0, 1, 1, 0)
    nodes_before = sum(1 for _ in target.descend())
    old_height = target.height()
    was_root = target is tree.root

    fresh = [Entry(rect=e.rect, oid=e.oid) for e in entries]
    with obs.timer("rtree.repack"):
        root_entry, _height = _pack_levels(fresh, tree.max_entries, group_fn,
                                           distance_fn, _node_sink)
    new_root = root_entry.child
    if target is not tree.root:
        # Splicing into a parent: the subtree must keep its height so all
        # leaves of the tree stay at one depth.  A root swap is free to
        # shrink the whole tree instead.
        new_root = _pad_to_height(new_root, old_height)
    nodes_after = sum(1 for _ in new_root.descend())

    if target is tree.root:
        new_root.parent = None
        tree.root = new_root
        RTree._fix_parents(new_root)
    else:
        parent = target.parent
        assert parent is not None
        slot = parent.entry_for_child(target)
        slot.child = new_root
        slot.rect = new_root.mbr()
        new_root.parent = parent
        RTree._fix_parents(new_root)
        _refresh_ancestor_mbrs(parent)
    if obs.ENABLED:
        reg = obs.active()
        reg.bump("rtree.repack.invocations")
        reg.bump("rtree.repack.entries_repacked", len(entries))
        reg.bump("rtree.repack.nodes_saved", nodes_before - nodes_after)
        reg.trace("rtree.repack", entries=len(entries),
                  nodes_before=nodes_before, nodes_after=nodes_after,
                  whole_tree=was_root)
    return RepackResult(entries_repacked=len(entries),
                        nodes_before=nodes_before, nodes_after=nodes_after,
                        subtree_height=old_height)


def local_repack_disk(tree, region: Optional[Rect] = None,
                      method: str = "hilbert",
                      distance: str = "center") -> RepackResult:
    """Re-PACK the smallest subtree of a disk tree covering *region*.

    The subtree's leaf entries are collected (freeing its old pages),
    re-grouped with the PACK strategy, and written back onto pages taken
    from the free list; the parent entry is redirected and ancestor
    MBRs refreshed, so the rest of the tree is untouched.  The rebuilt
    subtree keeps the original height (single-entry pad pages when
    packing would make it shallower) so every leaf stays at one depth.

    With ``region=None`` — or when no single top-level partition covers
    the region — the whole tree is rebuilt through
    :func:`~repro.rtree.bulkload.rebuild_tree_file`'s build-beside +
    atomic-swap path instead of in place.

    Args:
        tree: a :class:`~repro.storage.disk_rtree.DiskRTree`
            (modified in place; meta is rewritten, but the caller owns
            the flush).
        region: hot-spot rectangle; ``None`` re-packs everything.
        method / distance: forwarded to the PACK grouping strategy.

    Returns:
        A :class:`RepackResult` with before/after node counts.
    """
    from repro.storage.disk_rtree import _mbr, _NodeWriter

    group_fn = _lookup_method(method)
    distance_fn = _lookup_distance(distance)
    path = ([tree.root_page] if region is None
            else _smallest_subtree_pages(tree, region))

    if len(path) == 1:
        # Whole-tree repack: build beside the live file and atomically
        # swap, exactly like the offline REPACK verb.
        from repro.rtree.bulkload import rebuild_tree_file

        nodes_before = tree.node_count()
        old_height = tree.depth()
        count = len(tree)
        with obs.timer("rtree.repack.disk"):
            rebuild_tree_file(tree, tree.leaf_items(), method=(
                method if method in ("hilbert", "lowx", "str")
                else "hilbert"))
        nodes_after = tree.node_count()
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("rtree.repack.invocations")
            reg.bump("rtree.repack.entries_repacked", count)
            reg.bump("rtree.repack.nodes_saved", nodes_before - nodes_after)
            reg.trace("rtree.repack", entries=count,
                      nodes_before=nodes_before, nodes_after=nodes_after,
                      whole_tree=True, disk=True)
        return RepackResult(entries_repacked=count,
                            nodes_before=nodes_before,
                            nodes_after=nodes_after,
                            subtree_height=old_height)

    target_page = path[-1]
    with obs.timer("rtree.repack.disk"):
        # One walk frees the old pages and measures the old subtree; the
        # page sink then takes the new subtree's pages off the free list
        # and never commits: the caller's flush() commits the splice whole.
        raw, nodes_before, old_height = tree._collect_leaf_entries(
            target_page)
        writer = _NodeWriter(tree)
        root, height = _pack_levels(
            [Entry(rect=Rect(x1, y1, x2, y2), oid=oid)
             for x1, y1, x2, y2, oid in raw],
            tree.max_entries, group_fn, distance_fn, writer.write_entries,
            writer.min_fill)
        # Packing can legitimately shrink the subtree; pad with
        # single-entry pages so all the tree's leaves stay at one depth.
        for _ in range(height, old_height):
            root = writer.write_entries([root], is_leaf=False)
        nodes_after = writer.nodes_written
        # Redirect the parent entry, then refresh ancestor MBRs bottom-up.
        _replace_child(tree, path[-2], target_page, root.oid, root.rect)
        for i in range(len(path) - 2, 0, -1):
            child_page = path[i]
            mbr = _mbr(tree._read_node(child_page).entries)
            _replace_child(tree, path[i - 1], child_page, child_page, mbr)
        tree._write_meta()
    if obs.ENABLED:
        reg = obs.active()
        reg.bump("rtree.repack.invocations")
        reg.bump("rtree.repack.entries_repacked", len(raw))
        reg.bump("rtree.repack.nodes_saved", nodes_before - nodes_after)
        reg.trace("rtree.repack", entries=len(raw),
                  nodes_before=nodes_before, nodes_after=nodes_after,
                  whole_tree=False, disk=True)
    return RepackResult(entries_repacked=len(raw),
                        nodes_before=nodes_before, nodes_after=nodes_after,
                        subtree_height=old_height)


def _replace_child(tree, parent_page: int, old_child: int, new_child: int,
                   mbr: tuple[float, float, float, float]) -> None:
    """Point *parent_page*'s entry for *old_child* at *new_child*/*mbr*."""
    from repro.storage.serial import NodeRecord

    entries = tuple(mbr + (new_child,) if e[4] == old_child else e
                    for e in tree._read_node(parent_page).entries)
    tree._write_node(parent_page, NodeRecord(is_leaf=False, entries=entries))


def _smallest_subtree_pages(tree, region: Rect) -> list[int]:
    """Page path from the root to the deepest non-leaf node whose MBR
    contains *region* (the disk twin of :func:`_smallest_subtree`).

    Unlike the in-memory walk, overlapping partitions don't force a
    whole-tree fallback: when several children cover the region the
    smallest-area one is descended — churn-grown siblings routinely
    overlap around the very hot spots maintenance wants to fix, and any
    covering subtree is a correct (and still incremental) repack target.
    """
    path = [tree.root_page]
    node = tree._read_node(tree.root_page)
    while not node.is_leaf:
        covering = [e for e in node.entries
                    if Rect(e[0], e[1], e[2], e[3]).contains(region)]
        if not covering:
            break
        best = min(covering,
                   key=lambda e: (e[2] - e[0]) * (e[3] - e[1]))
        child_page = best[4]
        if tree._read_node(child_page).is_leaf:
            break
        path.append(child_page)
        node = tree._read_node(child_page)
    return path


def _smallest_subtree(tree: RTree, region: Rect) -> Node:
    """The deepest non-leaf node whose MBR contains *region*.

    Falls back to the root when no single child covers the region (the
    hot spot straddles top-level partitions).
    """
    node = tree.root
    while not node.is_leaf:
        covering = [e for e in node.entries
                    if e.child is not None and not e.child.is_leaf
                    and e.rect.contains(region)]
        if len(covering) != 1:
            break
        node = covering[0].child  # type: ignore[assignment]
        assert node is not None
    return node


def _pad_to_height(root: Node, height: int) -> Node:
    """Chain single-entry interior nodes until *root* reaches *height*.

    Packing a sparse subtree can legitimately produce a shallower tree;
    padding keeps the global all-leaves-same-depth invariant without
    restructuring ancestors.  The pad nodes violate only the minimum-fill
    rule, which packed trees already relax (``validate(check_fill=False)``).
    """
    current = root.height()
    while current < height:
        wrapper = Node(is_leaf=False)
        wrapper.add(Entry(rect=root.mbr(), child=root))
        root = wrapper
        current += 1
    return root


def _refresh_ancestor_mbrs(node: Node) -> None:
    """Recompute entry MBRs from *node* up to the root."""
    while node is not None:
        parent = node.parent
        if parent is not None:
            parent.entry_for_child(node).rect = node.mbr()
        node = parent  # type: ignore[assignment]
