"""One relation over two row stores: memory and a heap file agree.

:class:`Relation` and :class:`PersistentRelation` share every operation
above the row-storage primitives.  These tests hold the two stores to
the same answers: a random stream of inserts, deletes, index builds,
lookups, scans and row fetches against both, and the PSQL where-only
query over the demo dataset built in memory and on disk.
"""

import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.dataset import build_database
from repro.cluster.demo import demo_dataset
from repro.geometry import Point
from repro.psql.executor import Session
from repro.relational import Column, Relation, SchemaError
from repro.relational.persistent import PersistentRelation

SCHEMA = [Column("name", "str"), Column("v", "int"), Column("w", "float"),
          Column("loc", "point")]
ALPHANUMERIC = ("name", "v", "w")

values = st.integers(min_value=0, max_value=6)
rows = st.builds(
    lambda name, v, w, x, y: {"name": f"n{name}", "v": v, "w": w / 2,
                              "loc": Point(x, y)},
    values, values, values, values, values)
bad_rows = st.sampled_from([
    {"name": "x", "v": "many", "w": 1.0, "loc": Point(0, 0)},
    {"name": "x", "v": 1, "w": 1.0},
    {"name": "x", "v": 1, "w": 1.0, "loc": Point(0, 0), "extra": 1},
    {"name": 7, "v": 1, "w": 1.0, "loc": Point(0, 0)},
    {"name": "x", "v": 1, "w": 1.0, "loc": (0, 0)},
])


class TwinRelationMachine(RuleBasedStateMachine):
    """The same rule stream on an in-memory and a heap-file relation.

    Row ids differ in type (list position vs. ``RowAddress``), so the
    machine maps each in-memory id to the heap address its twin insert
    returned.  The heap reuses a deleted slot for a later row while the
    list never reuses a position, so a deleted id is probed only while
    its heap address names no live row.
    """

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.memory = Relation("twin", SCHEMA)
        self.disk = PersistentRelation(
            "twin", SCHEMA, os.path.join(self.tmp.name, "twin.heap"),
            page_size=512, buffer_capacity=4, wal_sync="none")
        self.addr: dict[int, object] = {}   # live in-memory id -> address
        self.dead: dict[int, object] = {}   # deleted in-memory id -> address

    def stale_ids(self) -> list[int]:
        live = set(self.addr.values())
        return sorted(rid for rid, a in self.dead.items() if a not in live)

    @initialize()
    def start(self):
        pass

    @rule(row=rows)
    def insert(self, row):
        rid = self.memory.insert(row)
        self.addr[rid] = self.disk.insert(row)

    def same_schema_error(self, call):
        messages = []
        for relation in (self.memory, self.disk):
            with pytest.raises(SchemaError) as info:
                call(relation)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @rule(row=bad_rows)
    def insert_bad_row(self, row):
        self.same_schema_error(lambda relation: relation.insert(row))

    @precondition(lambda self: self.addr)
    @rule(pick=st.integers(min_value=0))
    def delete(self, pick):
        rid = sorted(self.addr)[pick % len(self.addr)]
        self.memory.delete(rid)
        self.disk.delete(self.addr[rid])
        self.dead[rid] = self.addr.pop(rid)

    @precondition(lambda self: self.stale_ids())
    @rule(pick=st.integers(min_value=0))
    def deleted_id_is_missing(self, pick):
        stale = self.stale_ids()
        rid = stale[pick % len(stale)]
        for relation, key in ((self.memory, rid),
                              (self.disk, self.dead[rid])):
            with pytest.raises(KeyError):
                relation.get(key)
            with pytest.raises(KeyError):
                relation.get_many([key])
            with pytest.raises(KeyError):
                relation.delete(key)

    @rule(column=st.sampled_from(ALPHANUMERIC + ("loc",)))
    def create_index(self, column):
        if column == "loc":
            self.same_schema_error(
                lambda relation: relation.create_index(column))
            return
        self.memory.create_index(column, order=4)
        self.disk.create_index(column, order=4)

    @rule(column=st.sampled_from(ALPHANUMERIC), value=values)
    def lookup(self, column, value):
        if column == "name":
            value = f"n{value}"
        elif column == "w":
            value = value / 2
        got_memory = sorted(self.addr[rid] for rid, _row
                            in self.memory.lookup(column, value))
        got_disk = sorted(addr for addr, _row
                          in self.disk.lookup(column, value))
        assert got_memory == got_disk
        assert (self.memory.index_on(column) is None) == \
            (self.disk.index_on(column) is None)

    @rule()
    def lookup_unknown_column(self):
        self.same_schema_error(lambda relation: relation.lookup("mayor", 1))

    @rule(threshold=values)
    def scan(self, threshold):
        def keep(row):
            return row["v"] > threshold
        got_memory = sorted(self.addr[rid] for rid, _row
                            in self.memory.scan(keep))
        assert got_memory == sorted(addr for addr, _row
                                    in self.disk.scan(keep))

    @precondition(lambda self: self.addr)
    @rule(picks=st.lists(st.integers(min_value=0), max_size=6))
    def get_many(self, picks):
        live = sorted(self.addr)
        rids = [live[p % len(live)] for p in picks]
        assert self.memory.get_many(rids) == \
            self.disk.get_many([self.addr[r] for r in rids])

    @invariant()
    def same_live_rows(self):
        assert len(self.memory) == len(self.disk) == len(self.addr)
        # Addresses are unique, so the sorts never compare two rows.
        assert sorted((self.addr[rid], row)
                      for rid, row in self.memory.rows()) == \
            sorted(self.disk.rows())

    def teardown(self):
        self.disk.close()
        self.tmp.cleanup()


TwinRelationMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=40, deadline=None)

TestRelationStoresStateful = TwinRelationMachine.TestCase


@pytest.mark.parametrize("indexed", [False, True])
def test_where_only_query_matches_in_memory(tmp_path, indexed):
    memory = build_database(demo_dataset())
    disk = build_database(demo_dataset(), data_dir=str(tmp_path))
    if indexed:
        for db in (memory, disk):
            db.relation("cities").create_index("population")
    for n in (0, 300_000, 622_921, 1_000_000, 5_000_000):
        text = ("select city , population from cities "
                f"where population > {n}")
        expect = sorted(Session(memory).execute(text).rows)
        assert sorted(Session(disk).execute(text).rows) == expect, text
    for relation in disk.relations():
        relation.close()
