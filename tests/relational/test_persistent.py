"""Tests for disk-backed relations and the row codec."""

import pytest

from repro.geometry import Point, Rect, Region, Segment
from repro.relational import Column, SchemaError
from repro.relational.persistent import PersistentRelation
from repro.relational.rowcodec import decode_row, encode_row

CITY_SCHEMA = [Column("city", "str"), Column("population", "int"),
               Column("loc", "point")]


class TestRowCodec:
    def test_alphanumeric_roundtrip(self):
        row = {"name": "Springfield", "pop": 450_000, "density": 12.5,
               "flag": True, "note": None}
        assert decode_row(encode_row(row)) == row

    def test_point_roundtrip(self):
        row = {"loc": Point(3.25, -7.5)}
        assert decode_row(encode_row(row)) == row

    def test_segment_roundtrip(self):
        row = {"loc": Segment(Point(0, 1), Point(2, 3))}
        assert decode_row(encode_row(row)) == row

    def test_region_roundtrip(self):
        row = {"loc": Region([Point(0, 0), Point(4, 0), Point(2, 3)])}
        assert decode_row(encode_row(row)) == row

    def test_rect_roundtrip(self):
        row = {"area": Rect(0, 1, 2, 3)}
        assert decode_row(encode_row(row)) == row

    def test_mixed_row(self):
        row = {"city": "X", "population": 5, "loc": Point(1, 2)}
        assert decode_row(encode_row(row)) == row

    def test_malformed_payload(self):
        with pytest.raises(ValueError):
            decode_row(b"not json at all {")
        with pytest.raises(ValueError):
            decode_row(b"[1, 2]")

    def test_untagged_dict_passes_through(self):
        row = {"meta": {"a": 1, "b": 2}}
        assert decode_row(encode_row(row)) == row


class TestPersistentRelation:
    @pytest.fixture()
    def cities(self, tmp_path):
        rel = PersistentRelation("cities", CITY_SCHEMA,
                                 str(tmp_path / "cities.db"))
        yield rel
        rel.close()

    def test_insert_get(self, cities):
        addr = cities.insert({"city": "Springfield", "population": 450_000,
                              "loc": Point(10, 20)})
        row = cities.get(addr)
        assert row["city"] == "Springfield"
        assert row["loc"] == Point(10, 20)

    def test_get_many(self, cities):
        addrs = [cities.insert({"city": name, "population": 1,
                                "loc": Point(0, 0)}) for name in "ABC"]
        rows = cities.get_many([addrs[2], addrs[0]])
        assert [row["city"] for row in rows] == ["C", "A"]
        cities.delete(addrs[1])
        with pytest.raises(KeyError):
            cities.get_many(addrs)

    def test_schema_enforced(self, cities):
        with pytest.raises(SchemaError):
            cities.insert({"city": "X", "population": "many",
                           "loc": Point(0, 0)})
        with pytest.raises(SchemaError):
            cities.insert({"city": "X"})

    def test_delete(self, cities):
        addr = cities.insert({"city": "D", "population": 1,
                              "loc": Point(0, 0)})
        cities.delete(addr)
        with pytest.raises(KeyError):
            cities.get(addr)
        assert len(cities) == 0

    def test_rows_and_scan(self, cities):
        for i in range(10):
            cities.insert({"city": f"C{i}", "population": i * 100,
                           "loc": Point(float(i), float(i))})
        assert len(list(cities.rows())) == 10
        big = list(cities.scan(lambda r: r["population"] >= 500))
        assert len(big) == 5

    def test_btree_index(self, cities):
        for i in range(10):
            cities.insert({"city": f"C{i}", "population": i,
                           "loc": Point(float(i), 0.0)})
        cities.create_index("population")
        [(addr, row)] = cities.lookup("population", 7)
        assert row["city"] == "C7"

    def test_spatial_index(self, cities):
        for i in range(20):
            cities.insert({"city": f"C{i}", "population": i,
                           "loc": Point(i * 10.0, i * 10.0)})
        tree = cities.build_spatial_index("loc", max_entries=4)
        hits = tree.search(Rect(0, 0, 45, 45))
        rows = [cities.get(addr) for addr in hits]
        assert sorted(r["city"] for r in rows) == ["C0", "C1", "C2", "C3",
                                                   "C4"]

    def test_spatial_index_requires_pictorial(self, cities):
        with pytest.raises(SchemaError):
            cities.build_spatial_index("city")

    def test_index_rejects_pictorial(self, cities):
        with pytest.raises(SchemaError):
            cities.create_index("loc")

    def test_persistence(self, tmp_path):
        path = str(tmp_path / "durable.db")
        with PersistentRelation("cities", CITY_SCHEMA, path) as rel:
            addr = rel.insert({"city": "Keeper", "population": 9,
                               "loc": Point(5, 5)})
        with PersistentRelation("cities", CITY_SCHEMA, path) as rel:
            assert rel.get(addr)["city"] == "Keeper"
            assert len(rel) == 1
            # Index rebuilt on demand still sees the old row.
            rel.create_index("population")
            assert len(rel.lookup("population", 9)) == 1

    def test_region_valued_relation(self, tmp_path):
        lakes = PersistentRelation("lakes", [
            Column("lake", "str"), Column("loc", "region")],
            str(tmp_path / "lakes.db"))
        region = Region([Point(0, 0), Point(10, 0), Point(5, 8)])
        addr = lakes.insert({"lake": "Tri", "loc": region})
        assert lakes.get(addr)["loc"].area() == pytest.approx(region.area())
        lakes.close()


class TestDurability:
    """Crash-safety at the relation level: acknowledged means durable."""

    def _open(self, tmp_path, **kw):
        kw.setdefault("wal_sync", "none")
        return PersistentRelation("cities", CITY_SCHEMA,
                                  str(tmp_path / "cities.db"), **kw)

    def test_acknowledged_insert_survives_crash(self, tmp_path):
        rel = self._open(tmp_path)
        addr = rel.insert({"city": "Keeper", "population": 1,
                           "loc": Point(1, 1)})
        del rel  # crash: handles abandoned, never closed
        reopened = self._open(tmp_path)
        assert reopened.get(addr)["city"] == "Keeper"
        reopened.close()

    def test_acknowledged_delete_survives_crash(self, tmp_path):
        rel = self._open(tmp_path)
        addr = rel.insert({"city": "Goner", "population": 2,
                           "loc": Point(2, 2)})
        rel.delete(addr)
        del rel
        reopened = self._open(tmp_path)
        assert len(reopened) == 0
        reopened.close()

    def test_crash_mid_commit_recovers_and_flags(self, tmp_path):
        from repro.storage import failpoints
        from repro.storage.failpoints import SimulatedCrash
        failpoints.reset()
        rel = self._open(tmp_path)
        failpoints.arm("wal.commit.after-sync", "crash")
        with pytest.raises(SimulatedCrash):
            rel.insert({"city": "InFlight", "population": 3,
                        "loc": Point(3, 3)})
        failpoints.reset()
        del rel
        reopened = self._open(tmp_path)
        assert reopened.recovered  # replayed the committed WAL tail
        assert [r["city"] for _a, r in reopened.rows()] == ["InFlight"]
        reopened.close()

    def test_recovered_relation_bumps_database_generation(self, tmp_path):
        from repro.relational.catalog import Database
        from repro.storage import failpoints
        from repro.storage.failpoints import SimulatedCrash
        failpoints.reset()
        rel = self._open(tmp_path)
        failpoints.arm("wal.commit.after-sync", "crash")
        with pytest.raises(SimulatedCrash):
            rel.insert({"city": "X", "population": 4, "loc": Point(4, 4)})
        failpoints.reset()
        del rel
        db = Database()
        before = db.generation
        db.attach_relation(self._open(tmp_path))
        assert db.generation == before + 1  # cached results are now stale
        db.relation("cities").close()

    def test_non_durable_mode_has_no_wal(self, tmp_path):
        import os
        rel = self._open(tmp_path, durable=False)
        rel.insert({"city": "Fast", "population": 5, "loc": Point(5, 5)})
        assert not os.path.exists(str(tmp_path / "cities.db.wal"))
        rel.close()
        reopened = self._open(tmp_path, durable=False)
        assert len(reopened) == 1  # clean close still persists
        reopened.close()
