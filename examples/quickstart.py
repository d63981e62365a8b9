"""Quickstart: pack an R-tree and run direct spatial searches.

Run with::

    python examples/quickstart.py

Covers the library's core loop: generate spatial objects, bulk-load them
with the paper's PACK algorithm, query, and compare against a
dynamically built (Guttman INSERT) tree.
"""

from repro import Point, Rect, RTree, pack
from repro.rtree import SearchStats, knn_search, node_mbr, window_search
from repro.rtree.stats import coverage, overlap
from repro.viz import ascii_rects
from repro.workloads import uniform_points


def main() -> None:
    # 1. Five hundred random points stand in for cities on a map.
    points = uniform_points(500, seed=42)
    items = [(Rect.from_point(p), idx) for idx, p in enumerate(points)]

    # 2. Bulk-load with PACK (Section 3.3 of the paper) ...
    packed = pack(items, max_entries=4, method="nn")

    # ... and build the same data dynamically with Guttman INSERT.
    dynamic = RTree(max_entries=4, split="linear")
    dynamic.insert_all(items)

    print("packed :", packed)
    print("dynamic:", dynamic)
    print(f"coverage  packed={coverage(packed):,.0f}  "
          f"dynamic={coverage(dynamic):,.0f}")
    print(f"overlap   packed={overlap(packed):,.0f}  "
          f"dynamic={overlap(dynamic):,.0f}")

    # 3. Direct spatial search: everything in a window.
    window = Rect.from_center(Point(500, 500), 100, 100)
    stats = SearchStats()
    hits = window_search(packed, window, stats)
    print(f"\nwindow {window} -> {len(hits)} objects "
          f"({stats.nodes_visited} of {packed.node_count} nodes visited)")

    # 4. The same search on the dynamic tree touches more nodes.
    stats_dyn = SearchStats()
    window_search(dynamic, window, stats_dyn)
    print(f"dynamic tree visited {stats_dyn.nodes_visited} of "
          f"{dynamic.node_count} nodes for the same answer")

    # 5. Nearest neighbours (the follow-up work to this paper).
    query = Point(321, 654)
    nearest = knn_search(packed, query, k=3)
    print(f"\n3 nearest objects to {query}:")
    for dist, oid in nearest:
        print(f"  object {oid} at distance {dist:.1f}")

    # 6. A terminal picture of the packed leaf MBRs.
    leaf_rects = [Rect(*node_mbr(entries))
                  for _level, _ref, is_leaf, entries in packed.walk()
                  if is_leaf]
    print("\npacked leaf MBRs over the universe:")
    print(ascii_rects(leaf_rects[:40], Rect(0, 0, 1000, 1000),
                      cols=72, rows=20))


if __name__ == "__main__":
    main()
