"""kNN's distance bound against an unpruned best-first reference.

``Tree.knn`` skips every entry whose MINDIST is strictly greater than
the k-th smallest object distance pushed so far.  That must change
nothing a caller can see: on both tree forms, the pruned search returns
the same ``(distance, oid)`` list, in the same order, and the same
:class:`SearchStats` as the search that pushes every entry.  Grid points
and grid query points make many distances tie exactly, which is where a
bound that cuts one entry too many shows.
"""

import heapq
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.rtree import RTree
from repro.rtree.packing import pack
from repro.rtree.tree import SearchStats
from repro.storage.disk_rtree import DiskRTree

grid = st.integers(min_value=0, max_value=6)
# Half-integer query coordinates tie with points on both sides.
query_coord = st.integers(min_value=-2, max_value=14).map(lambda v: v / 2)
FORMS = ("memory-insert", "memory-pack", "disk-insert", "disk-pack")


def unpruned_knn(tree, point, k):
    """Best-first kNN that pushes every entry: ``Tree.knn``'s loop
    without the bound."""
    px, py = point.x, point.y
    stats = SearchStats()
    heap = [(0.0, 0, False, tree.root)]
    out = []
    counter = 0
    while heap and len(out) < k:
        dist, _tb, is_object, ref = heapq.heappop(heap)
        if is_object:
            out.append((dist, ref))
            continue
        is_leaf, entries = tree.store.fetch(ref)
        stats.nodes_visited += 1
        stats.leaves_visited += is_leaf
        stats.entries_tested += len(entries)
        for x1, y1, x2, y2, child in entries:
            counter += 1
            dx = max(x1 - px, px - x2, 0.0)
            dy = max(y1 - py, py - y2, 0.0)
            heapq.heappush(heap, (math.hypot(dx, dy), counter, is_leaf,
                                  child))
    return out, stats


def build(form, items, max_entries, tmp):
    if form == "memory-insert":
        tree = RTree(max_entries=max_entries)
        tree.insert_all(items)
        return tree
    if form == "memory-pack":
        return pack(items, max_entries=max_entries, method="str")
    tree = DiskRTree(str(tmp / "knn.db"), max_entries=max_entries,
                     buffer_capacity=4)
    if form == "disk-pack":
        tree.bulk_load(items, method="hilbert")
    else:
        for rect, oid in items:
            tree.insert(rect, oid)
    return tree


@given(cells=st.lists(st.tuples(grid, grid), min_size=1, max_size=80),
       form=st.sampled_from(FORMS),
       max_entries=st.sampled_from([2, 3, 4, 8]),
       query=st.tuples(query_coord, query_coord),
       k_offset=st.integers(min_value=0, max_value=81))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_pruned_knn_equals_unpruned(tmp_path, cells, form, max_entries,
                                    query, k_offset):
    items = [(Rect(x, y, x, y), oid) for oid, (x, y) in enumerate(cells)]
    k = 1 + k_offset % (len(items) + 1)      # 1 .. n+1
    point = Point(*query)
    tree = build(form, items, max_entries, tmp_path)
    try:
        stats = SearchStats()
        got = tree.knn(point, k, stats)
        want, want_stats = unpruned_knn(tree, point, k)
        assert got == want
        assert stats == want_stats
    finally:
        if isinstance(tree, DiskRTree):
            tree.close()
            (tmp_path / "knn.db").unlink()
