"""The disk tree's read path against brute force, and meta checks.

The traversals iterate raw struct-packed entries straight off buffered
page payloads; these tests pin every query to a scan over the loaded
items: same answers, kNN distances equal to ``Rect.min_distance_to``
bit for bit, and page-access counts equal to what the page walk finds.
"""

import struct

import pytest

from repro.geometry import Point, Rect
from repro.rtree.search import SearchStats
from repro.storage import DiskRTree, Pager
from repro.storage.disk_rtree import (_META_FMT, _META_PAGE,
                                      TreeMetaError)
from repro.workloads import uniform_points, uniform_rects

WINDOWS = [
    Rect(0, 0, 1000, 1000),       # everything
    Rect(200, 200, 600, 600),     # partial
    Rect(401.5, 398.25, 402.5, 402.75),   # tiny
    Rect(2000, 2000, 3000, 3000),  # empty
]

POINTS = [Point(500, 500), Point(123.25, 456.75), Point(-10, -10)]


@pytest.fixture(scope="module", params=["points", "rects"])
def items(request):
    if request.param == "points":
        return [(Rect.from_point(p), i)
                for i, p in enumerate(uniform_points(600, seed=31))]
    return [(r, i)
            for i, r in enumerate(uniform_rects(600, seed=32, max_side=40))]


@pytest.fixture(scope="module")
def tree(items, tmp_path_factory):
    t = DiskRTree(str(tmp_path_factory.mktemp("zc") / "t.db"),
                  max_entries=16)
    t.bulk_load(items)
    yield t
    t.close()


def brute(items, keep):
    return sorted(oid for rect, oid in items if keep(rect))


class TestEquivalence:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_search(self, tree, items, window):
        assert sorted(tree.search(window)) == brute(items, window.intersects)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_search_within(self, tree, items, window):
        assert sorted(tree.search_within(window)) == \
            brute(items, window.contains)

    @pytest.mark.parametrize("point", POINTS)
    def test_point_query(self, tree, items, point):
        assert sorted(tree.point_query(point)) == \
            brute(items, lambda r: r.contains_point(point))

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_knn_bit_identical(self, tree, items, point, k):
        got = tree.knn(point, k=k)
        qrect = Rect.from_point(point)
        rects = {oid: rect for rect, oid in items}
        assert len(got) == min(k, len(tree))
        # The inlined MINDIST must equal Rect.min_distance_to of the
        # degenerate query rectangle, bit for bit, for every result ...
        assert all(d == rects[oid].min_distance_to(qrect) for d, oid in got)
        # ... and the k distances are the k smallest of the scan.
        assert [d for d, _ in got] == sorted(
            r.min_distance_to(qrect) for r in rects.values())[:k]

    def test_stats_counts_pages(self, tree):
        stats = SearchStats()
        tree.search(Rect(0, 0, 1000, 1000), stats=stats)
        nodes = list(tree.walk())
        assert stats.nodes_visited == tree.node_count == len(nodes) > 1
        assert stats.leaves_visited == sum(leaf for _, _, leaf, _ in nodes)
        assert stats.entries_tested == sum(len(e) for _, _, _, e in nodes)

    def test_after_mutations(self, tree, tmp_path):
        # Nodes written by inserts and deletes read back like bulk-loaded
        # ones.
        path = str(tmp_path / "mut.db")
        t = DiskRTree(path, max_entries=8)
        points = list(uniform_points(150, seed=77))
        live = {i: Rect.from_point(p) for i, p in enumerate(points)}
        for i, rect in live.items():
            t.insert(rect, i)
        for i in range(0, 150, 7):
            assert t.delete(live.pop(i), i)
        items = [(rect, i) for i, rect in live.items()]
        for window in WINDOWS:
            assert sorted(t.search(window)) == \
                brute(items, window.intersects)
        t.close()


class TestMetaValidation:
    def _build(self, tmp_path, **kwargs):
        path = str(tmp_path / "t.db")
        t = DiskRTree(path, max_entries=8, **kwargs)
        t.bulk_load([(Rect.from_point(p), i)
                     for i, p in enumerate(uniform_points(100, seed=5))])
        t.close()
        return path

    def _rewrite_meta(self, path, root=None, size=None, max_e=None,
                      min_e=None):
        """Overwrite meta fields through the pager (valid checksum)."""
        pager = Pager(path)
        stored = struct.unpack_from(_META_FMT,
                                    pager.read_page(_META_PAGE).data)
        fields = [root, size, max_e, min_e]
        values = [s if f is None else f for s, f in zip(stored, fields)]
        pager.write_page(_META_PAGE, struct.pack(_META_FMT, *values))
        pager.sync()
        pager.close()

    def test_valid_meta_reopens(self, tmp_path):
        path = self._build(tmp_path)
        with DiskRTree(path) as t:
            assert len(t) == 100

    def test_oversized_branching_factor_rejected(self, tmp_path):
        # A branching factor that cannot fit this page size means the
        # file was built with different geometry; the next node write
        # would overflow a page.  Must fail typed, on open.
        path = self._build(tmp_path)
        self._rewrite_meta(path, max_e=10_000)
        with pytest.raises(TreeMetaError, match="branching factor"):
            DiskRTree(path)

    def test_undersized_branching_factor_rejected(self, tmp_path):
        path = self._build(tmp_path)
        self._rewrite_meta(path, max_e=1)
        with pytest.raises(TreeMetaError, match="branching factor"):
            DiskRTree(path)

    def test_inconsistent_min_entries_rejected(self, tmp_path):
        path = self._build(tmp_path)
        self._rewrite_meta(path, min_e=9)     # > max_entries of 8
        with pytest.raises(TreeMetaError, match="minimum fill"):
            DiskRTree(path)

    def test_out_of_file_root_rejected(self, tmp_path):
        path = self._build(tmp_path)
        self._rewrite_meta(path, root=10_000)
        with pytest.raises(TreeMetaError, match="root page"):
            DiskRTree(path)

    def test_meta_error_is_a_pager_error(self, tmp_path):
        from repro.storage.pager import PagerError

        path = self._build(tmp_path)
        self._rewrite_meta(path, max_e=10_000)
        with pytest.raises(PagerError):
            DiskRTree(path)
