"""The tree-statistics accumulator, fed live and by the PACK sink.

A what-if summary runs the paper's PACK through a sink that writes no
node; it must summarize exactly like the tree that PACK builds.  The
planner's summary keeps rectangles only up to ``KEEP_RECTS_LIMIT``
entries and never runs the O(n^2) overlap sweep.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.relational.catalog import Database
from repro.relational.relation import Column
from repro.rtree import stats
from repro.rtree.packing import PACK_METHODS, _level_sizes, pack
from repro.rtree.stats import (KEEP_RECTS_LIMIT, IndexSummary, pack_levels,
                               summarize)

UNIVERSE = Rect(0, 0, 1000, 1000)

_coord = st.floats(0, 1000, allow_nan=False)
_extent = st.floats(0, 60, allow_nan=False)
_rects = st.builds(
    lambda x, y, w, h: Rect(x, y, min(x + w, 1000.0), min(y + h, 1000.0)),
    _coord, _coord, _extent, _extent)


def _levels(summary: IndexSummary) -> list[tuple]:
    return [(agg.nodes, agg.count, agg.sum_w, agg.sum_h, agg.sum_wh,
             None if agg.rects is None else sorted(agg.rects))
            for agg in summary.internal + (summary.leaf,)]


@settings(max_examples=60, deadline=None)
@given(rects=st.lists(_rects, max_size=500),
       fanout=st.sampled_from([4, 16, 102]),
       method=st.sampled_from(sorted(PACK_METHODS)))
def test_sink_summary_equals_summary_of_pack(rects, fanout, method):
    items = [(r, i) for i, r in enumerate(rects)]
    sink = IndexSummary.of(pack_levels(items, fanout, method), UNIVERSE)
    built = summarize(pack(items, max_entries=fanout, method=method),
                      UNIVERSE)
    assert _levels(sink) == _levels(built)
    assert (sink.size, sink.depth, sink.node_count) == (
        built.size, built.depth, built.node_count)
    assert sink.node_count == sum(_level_sizes(len(items), fanout))


def test_empty_input_is_one_empty_root():
    summary = IndexSummary.of(pack_levels([], 16, "nn"), UNIVERSE)
    assert (summary.size, summary.depth, summary.node_count) == (0, 0, 1)
    assert summary.expected_window_accesses(10, 10) == 1.0


def test_unknown_method_raises():
    with pytest.raises(KeyError):
        pack_levels([(Rect(0, 0, 1, 1), 0)], 4, "bogus")


@pytest.mark.parametrize("n", [3000, 4000])
def test_rectangles_kept_up_to_the_limit(n):
    items = [(Rect.from_point(Point(i % 97 * 10.0, i // 97 * 10.0)), i)
             for i in range(n)]
    summary = summarize(pack(items, max_entries=16), UNIVERSE)
    entries = summary.size + summary.node_count - 1
    kept = summary.leaf.rects is not None
    assert kept == (entries <= KEEP_RECTS_LIMIT)
    assert all((agg.rects is not None) == kept for agg in summary.internal)


def test_index_summary_runs_no_overlap_sweep(monkeypatch):
    def sweep(_rects):
        raise AssertionError("the planner's summary ran the overlap sweep")

    monkeypatch.setattr(stats, "pairwise_intersections", sweep)
    monkeypatch.setattr(stats, "union_area", sweep)
    db = Database()
    points = db.create_relation("points", [Column("id", "int"),
                                           Column("loc", "point")])
    for i in range(500):
        points.insert({"id": i, "loc": Point(i % 25 * 40.0, i // 25 * 50.0)})
    db.create_picture("map", UNIVERSE).register(points, "loc")
    assert db.index_summary("map", "points", "loc").size == 500
