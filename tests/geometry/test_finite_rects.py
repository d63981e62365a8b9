"""Infinite coordinates never get into a tree, whatever the entry point.

``Rect.is_valid`` requires finite coordinates, so every path that stores
a rectangle — dynamic insert on either tree form, both disk loaders in
every order, named locations and the cluster's placement — refuses an
infinite one with ``invalid rectangle`` before writing anything.  A
PSQL window is not stored, so an infinite window still answers.
"""

import math
import os

import pytest

from repro.cluster.partition import ShardMap
from repro.geometry import Rect
from repro.psql import Session
from repro.relational.catalog import Database
from repro.rtree import RTree
from repro.rtree.bulkload import SORT_KEYS, bulk_load_stream
from repro.rtree.packing import PACK_METHODS
from repro.storage.disk_rtree import DiskRTree

INF = math.inf
BAD = [Rect(0, 0, INF, 1), Rect(-INF, 0, 1, 1), Rect(0, -INF, 1, INF)]


def _items(bad):
    return [(Rect(i, i, i + 1, i + 1), i) for i in range(40)] + [(bad, 40)]


@pytest.fixture()
def disk_tree(tmp_path):
    tree = DiskRTree(os.path.join(str(tmp_path), "t.db"), max_entries=4)
    yield tree
    tree.close()


@pytest.mark.parametrize("bad", BAD)
def test_is_valid_rejects_infinity(bad):
    assert not bad.is_valid()
    assert Rect(-1e300, -1e300, 1e300, 1e300).is_valid()


@pytest.mark.parametrize("bad", BAD)
def test_memory_insert_rejects(bad):
    tree = RTree(max_entries=4)
    with pytest.raises(ValueError, match="invalid rectangle"):
        tree.insert(bad, 1)
    assert len(tree) == 0


@pytest.mark.parametrize("bad", BAD)
def test_disk_insert_rejects(disk_tree, bad):
    with pytest.raises(ValueError, match="invalid rectangle"):
        disk_tree.insert(bad, 1)
    assert len(disk_tree) == 0


@pytest.mark.parametrize("method", SORT_KEYS)
def test_stream_loader_rejects(disk_tree, method):
    pages = disk_tree.pager.page_count
    with pytest.raises(ValueError, match="invalid rectangle"):
        bulk_load_stream(disk_tree, iter(_items(BAD[0])), method=method,
                         run_size=16)
    assert len(disk_tree) == 0 and disk_tree.pager.page_count == pages


@pytest.mark.parametrize("method", sorted(PACK_METHODS))
def test_memory_loader_rejects(disk_tree, method):
    pages = disk_tree.pager.page_count
    with pytest.raises(ValueError, match="invalid rectangle"):
        disk_tree.bulk_load(_items(BAD[1]), method=method)
    assert len(disk_tree) == 0 and disk_tree.pager.page_count == pages


def test_define_location_rejects():
    db = Database()
    with pytest.raises(ValueError, match="invalid location rectangle"):
        db.define_location("everywhere", Rect(-INF, -INF, INF, INF))
    assert not db.has_location("everywhere")


def test_cluster_placement_rejects():
    shards = ShardMap(Rect(0, 0, 1000, 1000), 4)
    with pytest.raises(ValueError, match="invalid rectangle"):
        shards.shards_storing(Rect(0, 0, INF, 10))
    # A query window is routed, not stored: it may reach infinity.
    assert shards.shards_for_rect(Rect(-INF, -INF, INF, INF)) == \
        shards.all_shards()


def test_infinite_psql_window_still_answers(map_database, us_map):
    result = Session(map_database).execute(
        "select city from cities on us-map "
        "at loc covered-by {500+-1e999, 500+-1e999}")
    assert len(result) == len(us_map.cities)
