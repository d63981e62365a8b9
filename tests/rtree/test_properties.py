"""Property-based tests (hypothesis) for the R-tree core invariants."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.geometry.sweep import union_area
from repro.rtree import RTree, node_mbr
from repro.rtree.packing import pack
from repro.rtree.theory import zero_overlap_partition

coords = st.floats(min_value=-1000.0, max_value=1000.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1 = draw(coords)
    y1 = draw(coords)
    w = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    h = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    return Rect(x1, y1, x1 + w, y1 + h)


@st.composite
def points(draw):
    return Point(draw(coords), draw(coords))


item_lists = st.lists(rects(), min_size=0, max_size=60)
point_lists = st.lists(points(), min_size=1, max_size=40, unique=True)


@given(item_lists)
@settings(max_examples=60, deadline=None)
def test_insert_preserves_invariants(rect_list):
    t = RTree(max_entries=4)
    for i, r in enumerate(rect_list):
        t.insert(r, i)
    t.validate()
    assert len(t) == len(rect_list)


@given(item_lists, rects())
@settings(max_examples=60, deadline=None)
def test_search_complete_and_sound(rect_list, window):
    """Window search returns exactly the brute-force answer."""
    t = RTree(max_entries=4)
    for i, r in enumerate(rect_list):
        t.insert(r, i)
    got = sorted(t.search(window))
    expect = sorted(i for i, r in enumerate(rect_list)
                    if r.intersects(window))
    assert got == expect


@given(item_lists, rects())
@settings(max_examples=40, deadline=None)
def test_packed_search_equals_dynamic_search(rect_list, window):
    items = [(r, i) for i, r in enumerate(rect_list)]
    dynamic = RTree(max_entries=4)
    dynamic.insert_all(items)
    packed = pack(items, max_entries=4)
    assert sorted(dynamic.search(window)) == sorted(packed.search(window))


@given(item_lists)
@settings(max_examples=40, deadline=None)
def test_parent_mbr_containment(rect_list):
    """Every child MBR lies within its parent entry's MBR."""
    t = pack([(r, i) for i, r in enumerate(rect_list)], max_entries=4)
    for _level, _ref, is_leaf, entries in t.walk():
        if is_leaf:
            continue
        for e in entries:
            child = t.store.fetch(e[4])[1]
            assert e[:4] == node_mbr(child)
            for sub in child:
                assert Rect(*e[:4]).contains(Rect(*sub[:4]))


@given(item_lists, st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_delete_removes_exactly_one(rect_list, data):
    if not rect_list:
        return
    t = RTree(max_entries=4)
    for i, r in enumerate(rect_list):
        t.insert(r, i)
    victim = data.draw(st.integers(min_value=0,
                                   max_value=len(rect_list) - 1))
    assert t.delete(rect_list[victim], victim)
    t.validate()
    everything = Rect(-5000, -5000, 5000, 5000)
    assert sorted(t.search(everything)) == sorted(
        i for i in range(len(rect_list)) if i != victim)


@given(point_lists)
@settings(max_examples=60, deadline=None)
def test_theorem32_partition_always_disjoint(pts):
    part = zero_overlap_partition(pts, group_size=4)
    assert part.is_disjoint()
    assert sum(len(g) for g in part.groups) == len(pts)
    assert len(part.groups) == math.ceil(len(pts) / 4)


@given(st.lists(rects(), min_size=0, max_size=30))
@settings(max_examples=60, deadline=None)
def test_union_area_bounds(rect_list):
    """0 <= union <= sum of areas, with equality when disjoint."""
    total = sum(r.area() for r in rect_list)
    union = union_area(rect_list)
    assert -1e-6 <= union <= total + 1e-6


@given(st.lists(rects(), min_size=1, max_size=25), rects())
@settings(max_examples=40, deadline=None)
def test_union_area_monotone(rect_list, extra):
    assert union_area(rect_list + [extra]) >= union_area(rect_list) - 1e-9


@given(item_lists)
@settings(max_examples=30, deadline=None)
def test_pack_then_knn_agrees_with_brute_force(rect_list):
    from repro.rtree import knn_search
    items = [(r, i) for i, r in enumerate(rect_list)]
    t = pack(items, max_entries=4)
    query = Point(0.0, 0.0)
    got = knn_search(t, query, k=3)
    qrect = Rect.from_point(query)
    brute = sorted((r.min_distance_to(qrect), i) for r, i in items)[:3]
    assert [round(d, 6) for d, _ in got] == [round(d, 6) for d, _ in brute]
