"""R-trees and the PACK bulk-loading algorithm — the paper's core contribution.

Exports the dynamic :class:`~repro.rtree.tree.RTree` (Guttman INSERT /
DELETE / SEARCH, written once in :class:`~repro.rtree.tree.Tree` over a
node store), the :func:`~repro.rtree.packing.pack` family of bulk loaders
(Section 3.3), the tree statistics of Sections 3.1 and 3.5 and the
constructive theory results of Section 3.2.
"""

from repro.rtree.tree import ListStore, RTree, Tree, node_mbr
from repro.rtree.split import (
    ExhaustiveSplit,
    LinearSplit,
    QuadraticSplit,
    RStarSplit,
    SplitStrategy,
    get_split_strategy,
)
from repro.rtree.packing import (
    PACK_METHODS,
    pack,
    pack_hilbert,
    pack_lowx,
    pack_nearest_neighbor,
    pack_str,
)
from repro.rtree.search import (
    SearchStats,
    knn_search,
    point_search,
    window_search,
    window_search_within,
)
from repro.rtree.stats import (
    TreeReport,
    TreeStats,
    analyze,
    average_nodes_visited,
    coverage,
    dump_tree,
    format_report,
    measured_window_accesses,
    overlap,
    tree_stats,
)
from repro.rtree.join import JoinStats, spatial_join
from repro.rtree.repack import (RepackResult, local_repack,
                                local_repack_disk)
from repro.rtree.theory import (
    ZeroOverlapPartition,
    theorem_33_counterexample,
    verify_no_zero_overlap_grouping,
    zero_overlap_partition,
)

__all__ = [
    "ExhaustiveSplit",
    "JoinStats",
    "LinearSplit",
    "ListStore",
    "PACK_METHODS",
    "QuadraticSplit",
    "RStarSplit",
    "RTree",
    "RepackResult",
    "SearchStats",
    "SplitStrategy",
    "Tree",
    "TreeReport",
    "TreeStats",
    "ZeroOverlapPartition",
    "analyze",
    "average_nodes_visited",
    "coverage",
    "dump_tree",
    "format_report",
    "get_split_strategy",
    "knn_search",
    "local_repack",
    "local_repack_disk",
    "measured_window_accesses",
    "node_mbr",
    "overlap",
    "spatial_join",
    "pack",
    "pack_hilbert",
    "pack_lowx",
    "pack_nearest_neighbor",
    "pack_str",
    "point_search",
    "theorem_33_counterexample",
    "tree_stats",
    "verify_no_zero_overlap_grouping",
    "window_search",
    "window_search_within",
    "zero_overlap_partition",
]
