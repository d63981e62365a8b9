"""Local re-packing — the paper's Section 4 future work, implemented.

    "We are currently investigating the possibility of dynamic
    invocation of the PACK algorithm during insertions and deletions to
    efficiently perform a 'local' reorganization.  This will achieve the
    search performance obtained by the PACK algorithm for dynamically
    reorganized R-trees."

:func:`local_repack` finds the deepest subtree whose MBR covers a given
region, rebuilds that subtree with PACK through the tree's own node sink,
and splices it back — restoring packed-quality structure around update
hot spots without touching the rest of the tree.  When no subtree below
the root covers the region, or with ``region=None``, the whole tree is
rebuilt by the tree's own ``rebuild``: re-PACKed in memory, or for a
:class:`~repro.storage.disk_rtree.DiskRTree` built beside the live file
and swapped in atomically (:func:`repro.rtree.bulkload.rebuild_tree_file`),
so the file stays readable until the swap instant.  Either way the
repack runs under the tree's lock, so a concurrent search sees the tree
before it or after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.geometry.rect import Rect
from repro.rtree.packing import (
    REBUILD_METHOD,
    _level_sizes,
    _lookup_distance,
    _lookup_method,
    _pack_levels,
)
from repro.rtree.tree import Tree, _leaf_items


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


def local_repack(tree: Tree, region: Optional[Rect] = None,
                 method: str = REBUILD_METHOD,
                 distance: str = "center") -> RepackResult:
    """Re-PACK the smallest subtree covering *region* (whole tree if None).

    The subtree is the deepest internal node below the root whose MBR
    contains *region*, taking the smallest-area child where several
    cover it.  Its leaf entries are packed onto fresh nodes (the old ones
    are freed first, so a disk tree reuses their pages), padded with
    single-entry internal nodes up to the old height so every leaf stays
    at one depth, and the parent entry and the MBRs above it are
    refitted.  A disk tree's splice is not committed here: the caller's
    ``flush()`` commits it.

    Args:
        tree: the tree to reorganise (modified in place).
        region: hot-spot rectangle; ``None`` re-packs everything.
        method / distance: forwarded to the PACK grouping strategy;
            the system's repacks all use :data:`REBUILD_METHOD`.

    Returns:
        A :class:`RepackResult` with before/after node counts.
    """
    group_fn = _lookup_method(method)
    distance_fn = _lookup_distance(distance)
    with tree.lock:
        if not len(tree):
            return RepackResult(0, 1, 1, 0)
        refs, slots = tree._covering_path(region)
        whole = len(refs) == 1
        with obs.timer("rtree.repack"):
            if whole:
                nodes_before, height = tree.node_count, tree.depth
                count = len(tree)
                tree.rebuild(_leaf_items(tree._walk()), method, distance)
                nodes_after = tree.node_count
            else:
                entries, nodes_before, height = tree._free_subtree(refs[-1])
                count = len(entries)
                sink, min_fill = tree._pack_sink()
                root, packed_height = _pack_levels(
                    entries, tree.max_entries, group_fn, distance_fn, sink,
                    min_fill)
                for _ in range(packed_height, height):
                    root = sink([root], False)
                nodes_after = (sum(_level_sizes(count, tree.max_entries))
                               + height - packed_height)
                _is_leaf, parent = tree.store.fetch(refs[-2])
                parent = list(parent)
                parent[slots[-1]] = root
                tree._adjust(refs, slots, len(refs) - 2, parent, False)
    if obs.ENABLED:
        reg = obs.active()
        reg.bump("rtree.repack.invocations")
        reg.bump("rtree.repack.entries_repacked", count)
        reg.bump("rtree.repack.nodes_saved", nodes_before - nodes_after)
        reg.trace("rtree.repack", entries=count, nodes_before=nodes_before,
                  nodes_after=nodes_after, whole_tree=whole)
    return RepackResult(entries_repacked=count, nodes_before=nodes_before,
                        nodes_after=nodes_after, subtree_height=height)


#: The name the disk tier has always called :func:`local_repack` by.
local_repack_disk = local_repack
