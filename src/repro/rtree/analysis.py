"""Per-level structural analysis of an R-tree.

Table 1 summarises whole trees; when diagnosing *why* a tree searches
badly it helps to see where the coverage and overlap live — packed trees
concentrate both near the root, degraded trees leak them into the leaf
levels.  :func:`analyze` produces one row per level plus aggregate fill
statistics; ``format_report`` renders it for terminals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.rect import Rect
from repro.geometry.sweep import pairwise_intersections, union_area
from repro.rtree.tree import Tree, node_mbr


@dataclass(frozen=True)
class LevelStats:
    """Aggregate statistics for all nodes at one level of the tree."""

    level: int  # 0 = root
    nodes: int
    entries: int
    mean_fill: float
    coverage: float          # sum of node MBR areas at this level
    overlap_counted: float   # pairwise intersection areas, multiplicity
    overlap_union: float     # exact >=2-covered area
    dead_space: float        # coverage minus area actually occupied below


@dataclass(frozen=True)
class TreeReport:
    """The full analysis of one tree."""

    size: int
    depth: int
    node_count: int
    levels: tuple[LevelStats, ...]

    @property
    def leaf_level(self) -> LevelStats:
        return self.levels[-1]


def analyze(tree: Tree) -> TreeReport:
    """Compute per-level statistics for *tree*.

    Dead space at a level is the sum of node MBR areas minus the union
    of the MBRs one level below (for leaves: minus the union of data
    rectangles) — the area the search may enter without finding
    anything.
    """
    levels: list[list] = []
    for level, _ref, _is_leaf, entries in tree.walk():
        if level == len(levels):
            levels.append([])
        levels[level].append(entries)

    stats: list[LevelStats] = []
    for depth, nodes in enumerate(levels):
        mbrs = [Rect(*node_mbr(n)) for n in nodes if n]
        cov = sum(r.area() for r in mbrs)
        inters = pairwise_intersections(mbrs)
        below = [Rect(*e[:4]) for n in nodes for e in n]
        occupied = union_area(below)
        entries = sum(len(n) for n in nodes)
        stats.append(LevelStats(
            level=depth,
            nodes=len(nodes),
            entries=entries,
            mean_fill=entries / len(nodes) if nodes else 0.0,
            coverage=cov,
            overlap_counted=sum(r.area() for r in inters),
            overlap_union=union_area(inters),
            dead_space=max(0.0, cov - occupied),
        ))
    return TreeReport(size=len(tree), depth=tree.depth,
                      node_count=tree.node_count, levels=tuple(stats))


def dump_tree(tree: Tree, max_entries_shown: int = 4) -> str:
    """A textual dump of the node hierarchy, level by level (debugging
    aid), indented by level.

    Shows each node's MBR and fill; leaf entries are listed up to
    *max_entries_shown* per node, then elided.
    """
    lines: list[str] = []
    for level, _ref, is_leaf, entries in tree.walk():
        pad = "  " * level
        kind = "leaf" if is_leaf else "node"
        mbr = str(Rect(*node_mbr(entries))) if entries else "(empty)"
        lines.append(f"{pad}{kind} {mbr} ({len(entries)} entries)")
        if is_leaf:
            for e in entries[:max_entries_shown]:
                lines.append(f"{pad}  - {Rect(*e[:4])} -> {e[4]!r}")
            hidden = len(entries) - max_entries_shown
            if hidden > 0:
                lines.append(f"{pad}  ... {hidden} more")
    return "\n".join(lines)


def format_report(report: TreeReport) -> str:
    """Human-readable rendering of a :class:`TreeReport`."""
    lines = [
        f"R-tree: {report.size} objects, depth {report.depth}, "
        f"{report.node_count} nodes",
        f"{'lvl':>3} {'nodes':>6} {'fill':>5} | {'coverage':>11} "
        f"{'overlap':>10} {'dead space':>11}",
    ]
    for s in report.levels:
        lines.append(
            f"{s.level:>3} {s.nodes:>6} {s.mean_fill:>5.2f} | "
            f"{s.coverage:>11.0f} {s.overlap_counted:>10.0f} "
            f"{s.dead_space:>11.0f}")
    return "\n".join(lines)
