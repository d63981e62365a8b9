"""A disk-resident packed R-tree with buffer-pool I/O accounting.

Run with::

    python examples/persistent_index.py

Demonstrates the storage substrate: bulk-load a spatial index onto
4 KiB pages, close it, reopen it cold and watch the buffer pool turn
repeated searches into memory hits — the "paging and disk I/O
buffering" advantage the paper claims for R-trees in Section 1.
"""

import os
import tempfile

from repro.geometry import Point, Rect
from repro.storage import DiskRTree
from repro.workloads import uniform_points


def main() -> None:
    points = uniform_points(5000, seed=7)
    items = [(Rect.from_point(p), i) for i, p in enumerate(points)]
    window = Rect.from_center(Point(500, 500), 60, 60)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cities.rdb")

        # Build: PACK the objects straight onto pages.
        with DiskRTree(path, page_size=4096) as tree:
            print(f"page capacity -> branching factor {tree.max_entries}")
            tree.bulk_load(items, method="nn")
            print(f"bulk-loaded {len(tree)} objects: depth {tree.depth}, "
                  f"{tree.node_count} nodes, "
                  f"{tree.pager.page_count} pages on disk")

        size = os.path.getsize(path)
        print(f"index file: {size:,} bytes\n")

        # Reopen cold and measure I/O per query.
        with DiskRTree(path, buffer_capacity=32) as tree:
            reads0 = tree.pager.reads
            hits = tree.search(window)
            cold_reads = tree.pager.reads - reads0
            print(f"cold search: {len(hits)} hits, "
                  f"{cold_reads} physical page reads")

            reads1 = tree.pager.reads
            tree.search(window)
            warm_reads = tree.pager.reads - reads1
            print(f"warm search: {warm_reads} physical page reads "
                  f"(buffer pool hit rate "
                  f"{tree.pool.stats.hit_rate:.1%})")

            # The tree stays dynamic on disk: insert and search again.
            tree.insert(Rect(500, 500, 500, 500), 999_999)
            assert 999_999 in tree.search(window)
            print("\ninserted one object into the packed on-disk tree; "
                  "it is immediately searchable")


if __name__ == "__main__":
    main()
