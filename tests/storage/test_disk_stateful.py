"""Twin-form differential testing of the R-tree.

One Hypothesis rule stream drives an in-memory :class:`RTree` and a
WAL-backed :class:`DiskRTree` side by side against a plain-dict model:
insert, delete, search, search-within, point query, kNN, local repack of
a random region, vacuum, and flush + reopen.  After every step both
trees must answer exactly as the model does, and both must pass
``validate()`` — on disk that includes the page census.  Any divergence
is a bug with a minimised reproduction.
"""

import os
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.geometry import Point, Rect
from repro.rtree import RTree, knn_search, local_repack, local_repack_disk
from repro.storage import DiskRTree

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)


def make_rect(x, y, w, h):
    return Rect(x, y, x + w, y + h)


rect_strategy = st.builds(
    make_rect, coords, coords,
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
region_strategy = st.builds(
    make_rect, coords, coords,
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False))


class TwinTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.tmp.name, "state.db")
        self.wal = os.path.join(self.tmp.name, "state.wal")
        self.memory = RTree(max_entries=4)
        self.disk = self.open_disk()
        self.model: dict[int, Rect] = {}
        self.next_id = 0

    def open_disk(self) -> DiskRTree:
        return DiskRTree(self.path, max_entries=4, page_size=512,
                         buffer_capacity=8, wal_path=self.wal,
                         wal_sync="none")

    def both(self):
        return self.memory, self.disk

    def expect(self, keep) -> list[int]:
        return sorted(oid for oid, r in self.model.items() if keep(r))

    @initialize()
    def start(self):
        pass

    @rule(rect=rect_strategy)
    def insert(self, rect):
        oid = self.next_id
        self.next_id += 1
        for tree in self.both():
            tree.insert(rect, oid)
        self.model[oid] = rect

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        oid = data.draw(st.sampled_from(sorted(self.model)))
        rect = self.model.pop(oid)
        for tree in self.both():
            assert tree.delete(rect, oid)

    @rule(window=rect_strategy)
    def search_matches_model(self, window):
        expect = self.expect(window.intersects)
        for tree in self.both():
            assert sorted(tree.search(window)) == expect

    @rule(window=region_strategy)
    def search_within_matches_model(self, window):
        expect = self.expect(window.contains)
        for tree in self.both():
            assert sorted(tree.search_within(window)) == expect

    @rule(x=coords, y=coords)
    def point_query_matches_model(self, x, y):
        p = Point(x, y)
        expect = self.expect(lambda r: r.contains_point(p))
        for tree in self.both():
            assert sorted(tree.point_query(p)) == expect

    @rule(x=coords, y=coords, k=st.integers(min_value=1, max_value=6))
    def knn_matches_model(self, x, y, k):
        q = Rect(x, y, x, y)
        expect = sorted(r.min_distance_to(q) for r in self.model.values())
        for got in (knn_search(self.memory, Point(x, y), k),
                    self.disk.knn(Point(x, y), k)):
            # Distances bit-equal to Rect.min_distance_to, per result and
            # as the k smallest of the model's.
            assert [d for d, _oid in got] == expect[:k]
            assert all(d == self.model[oid].min_distance_to(q)
                       for d, oid in got)

    @rule(region=region_strategy)
    def local_repack_keeps_contents(self, region):
        local_repack(self.memory, region)
        local_repack_disk(self.disk, region)
        self.disk.flush()

    @rule()
    def vacuum(self):
        self.disk.vacuum()

    @rule()
    def flush_and_reopen(self):
        self.disk.flush()
        self.disk.close()
        self.disk = self.open_disk()

    @invariant()
    def size_matches_model(self):
        for tree in self.both():
            assert len(tree) == len(self.model)

    @invariant()
    def both_trees_validate(self):
        self.memory.validate(check_fill=False)
        self.disk.validate(check_fill=False)

    def teardown(self):
        self.disk.close()
        self.tmp.cleanup()


TwinTreeMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)

TestDiskRTreeStateful = TwinTreeMachine.TestCase
