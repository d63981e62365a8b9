"""A fully disk-resident pictorial archive.

Run with::

    python examples/pictorial_archive.py

The paper's target workload is a large, mostly static pictorial archive.
This example stores the synthetic map's relations in slotted-page heap
files, PACKs a page-resident R-tree over the city locations, closes
everything — then reopens the archive cold and answers a direct spatial
search, reporting exactly how many disk pages the whole operation
touched.
"""

import os
import tempfile

from repro.geometry import Point, Rect
from repro.relational import Column, PersistentRelation
from repro.storage import DiskRTree
from repro.workloads import build_us_map

CITY_SCHEMA = [Column("city", "str"), Column("state", "str"),
               Column("population", "int"), Column("loc", "point")]


def build_archive(directory: str) -> tuple[str, str]:
    """Write the map into heap files + a packed disk R-tree."""
    the_map = build_us_map(seed=42, cities_per_state=25)
    cities_path = os.path.join(directory, "cities.heap")
    index_path = os.path.join(directory, "cities.rtree")

    with PersistentRelation("cities", CITY_SCHEMA, cities_path) as cities:
        addresses = []
        for c in the_map.cities:
            addr = cities.insert({"city": c.name, "state": c.state,
                                  "population": c.population, "loc": c.loc})
            addresses.append((c.loc, addr))
        print(f"stored {len(cities)} city tuples in "
              f"{cities._heap.pager.page_count} heap pages")

        # The R-tree stores (MBR, heap address) pairs: the paper's
        # backward identifiers from picture space into tuples.  Heap
        # addresses are (page, slot); encode them into one integer.
        with DiskRTree(index_path, max_entries=32) as tree:
            items = [(Rect.from_point(loc), (addr.page << 16) | addr.slot)
                     for loc, addr in addresses]
            tree.bulk_load(items, method="nn")
            print(f"packed spatial index: {tree.node_count} nodes on "
                  f"{tree.pager.page_count} pages, depth {tree.depth}")
    return cities_path, index_path


def query_archive(cities_path: str, index_path: str) -> None:
    """Reopen cold and run a direct spatial search."""
    window = Rect.from_center(Point(500, 500), 150, 150)
    with PersistentRelation("cities", CITY_SCHEMA, cities_path) as cities, \
            DiskRTree(index_path, buffer_capacity=16) as tree:
        index_reads0 = tree.pager.reads
        heap_reads0 = cities._heap.pager.reads
        encoded = tree.search(window)
        rows = []
        for code in encoded:
            from repro.storage import RowAddress
            addr = RowAddress(page=code >> 16, slot=code & 0xFFFF)
            rows.append(cities.get(addr))
        index_reads = tree.pager.reads - index_reads0
        heap_reads = cities._heap.pager.reads - heap_reads0

        rows.sort(key=lambda r: -r["population"])
        print(f"\ndirect spatial search in {window}:")
        for row in rows[:8]:
            print(f"  {row['city']:<14} {row['state']:<10} "
                  f"pop {row['population']:>9,}")
        if len(rows) > 8:
            print(f"  ... and {len(rows) - 8} more")
        print(f"\nI/O: {index_reads} index page reads + "
              f"{heap_reads} heap page reads for {len(rows)} tuples")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cities_path, index_path = build_archive(tmp)
        query_archive(cities_path, index_path)


if __name__ == "__main__":
    main()
