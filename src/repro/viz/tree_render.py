"""Renderers for R-trees, packings and PSQL query results."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import Region
from repro.geometry.segment import Segment
from repro.psql.result import QueryResult
from repro.rtree.tree import Tree, node_mbr
from repro.viz.svg import SvgCanvas

#: Per-level stroke colours, leaf level first.
LEVEL_COLORS = ("#1f77b4", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
                "#e377c2", "#7f7f7f")


def render_rtree(tree: Tree, world: Optional[Rect] = None,
                 width: int = 800, show_data: bool = True) -> SvgCanvas:
    """Draw every node MBR, colour-coded by level (like Figure 3.8c).

    Args:
        tree: the tree to draw.
        world: viewport; defaults to the tree bounds (padded 5%).
        width: pixel width.
        show_data: also draw leaf-entry rectangles/points in light grey.
    """
    bounds = tree.bounds()
    if world is None:
        if bounds is None:
            raise ValueError("cannot render an empty tree without a world")
        world = bounds.scaled_about_center(1.05)
    canvas = SvgCanvas(world, width=width)

    depth = tree.depth
    for level, _ref, is_leaf, entries in tree.walk():
        height = depth - level
        if entries:
            canvas.rect(Rect(*node_mbr(entries)),
                        stroke=LEVEL_COLORS[min(height,
                                                len(LEVEL_COLORS) - 1)],
                        stroke_width=1.0 + 0.6 * height)
        if is_leaf and show_data:
            for x1, y1, x2, y2, _oid in entries:
                rect = Rect(x1, y1, x2, y2)
                if rect.area() == 0.0:
                    canvas.circle(rect.center(), radius_px=2.0, fill="#999")
                else:
                    canvas.rect(rect, stroke="#bbb")
    return canvas


def render_pack_stages(groups_per_level: Sequence[Sequence[Rect]],
                       world: Rect, width: int = 800) -> SvgCanvas:
    """Figure 3.8: overlay the MBRs produced at each PACK recursion level."""
    canvas = SvgCanvas(world, width=width)
    for level, rects in enumerate(groups_per_level):
        color = LEVEL_COLORS[min(level, len(LEVEL_COLORS) - 1)]
        for r in rects:
            canvas.rect(r, stroke=color, stroke_width=1.0 + 0.6 * level)
    return canvas


def render_query_result(result: QueryResult, world: Rect,
                        width: int = 800) -> SvgCanvas:
    """The paper's pictorial output: window + qualifying objects + labels."""
    canvas = SvgCanvas(world, width=width)
    if result.window is not None:
        canvas.rect(result.window, stroke="#d62728", stroke_width=2.0,
                    dash="6,4")
    for obj in result.pictorial:
        g = obj.geometry
        if isinstance(g, Point):
            canvas.circle(g, radius_px=3.0, fill="#1f77b4")
            canvas.text(g.translated(4, 4), obj.label, size_px=9)
        elif isinstance(g, Segment):
            canvas.line(g.start, g.end, stroke="#2ca02c")
        elif isinstance(g, Region):
            canvas.polygon(g.vertices, stroke="#9467bd",
                           fill="#9467bd", opacity=0.25)
            canvas.text(g.centroid(), obj.label, size_px=9)
        elif isinstance(g, Rect):
            canvas.rect(g, stroke="#1f77b4")
    return canvas
