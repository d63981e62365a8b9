"""Unit tests for relations, schemas and secondary indexes."""

import pytest

from repro.geometry import Point, Rect, Region, Segment
from repro.relational import Column, Relation, SchemaError


@pytest.fixture()
def cities() -> Relation:
    rel = Relation("cities", [
        Column("city", "str"), Column("state", "str"),
        Column("population", "int"), Column("loc", "point")])
    rel.insert({"city": "Springfield", "state": "Avalon",
                "population": 450_000, "loc": Point(10, 20)})
    rel.insert({"city": "Rivertown", "state": "Bergen",
                "population": 1_200_000, "loc": Point(30, 40)})
    rel.insert({"city": "Lakeview", "state": "Avalon",
                "population": 80_000, "loc": Point(50, 60)})
    return rel


class TestSchema:
    def test_unknown_column_type(self):
        with pytest.raises(SchemaError):
            Column("x", "varchar")

    def test_duplicate_column_names(self):
        with pytest.raises(SchemaError):
            Relation("r", [Column("a", "int"), Column("a", "str")])

    def test_empty_schema(self):
        with pytest.raises(SchemaError):
            Relation("r", [])

    def test_pictorial_flag(self):
        assert Column("loc", "point").is_pictorial
        assert Column("loc", "region").is_pictorial
        assert Column("loc", "segment").is_pictorial
        assert not Column("name", "str").is_pictorial

    def test_column_lookup(self, cities):
        assert cities.column("city").type == "str"
        with pytest.raises(SchemaError):
            cities.column("elevation")

    def test_pictorial_columns(self, cities):
        assert [c.name for c in cities.pictorial_columns()] == ["loc"]


class TestRows:
    def test_insert_returns_stable_ids(self, cities):
        assert len(cities) == 3
        assert cities.get(0)["city"] == "Springfield"

    def test_insert_missing_column(self, cities):
        with pytest.raises(SchemaError, match="missing column"):
            cities.insert({"city": "X", "state": "Y", "population": 1})

    def test_insert_extra_column(self, cities):
        with pytest.raises(SchemaError, match="not in"):
            cities.insert({"city": "X", "state": "Y", "population": 1,
                           "loc": Point(0, 0), "mayor": "Quimby"})

    def test_insert_wrong_type(self, cities):
        with pytest.raises(SchemaError, match="expects int"):
            cities.insert({"city": "X", "state": "Y",
                           "population": "a lot", "loc": Point(0, 0)})

    def test_float_column_accepts_int(self):
        rel = Relation("m", [Column("v", "float")])
        rel.insert({"v": 3})
        assert rel.get(0)["v"] == 3

    def test_delete_tombstones(self, cities):
        cities.delete(1)
        assert len(cities) == 2
        with pytest.raises(KeyError):
            cities.get(1)
        # Row ids of surviving rows are unchanged.
        assert cities.get(2)["city"] == "Lakeview"

    def test_get_many_is_get_for_each_id(self, cities):
        ids = [2, 0, 2, 1]
        assert cities.get_many(ids) == [cities.get(rid) for rid in ids]
        assert cities.get_many(set()) == []
        cities.delete(1)
        for bad in ([0, 1], [3], [0, -1]):
            with pytest.raises(KeyError):
                cities.get_many(bad)

    def test_delete_twice_raises(self, cities):
        cities.delete(0)
        with pytest.raises(KeyError):
            cities.delete(0)

    def test_new_rows_after_delete_get_fresh_ids(self, cities):
        cities.delete(2)
        rid = cities.insert({"city": "Newhaven", "state": "Erie",
                             "population": 5, "loc": Point(1, 1)})
        assert rid == 3

    def test_update(self, cities):
        cities.update(0, {"population": 500_000})
        assert cities.get(0)["population"] == 500_000
        assert cities.get(0)["city"] == "Springfield"

    def test_update_rejects_bad_type(self, cities):
        with pytest.raises(SchemaError):
            cities.update(0, {"population": None})

    def test_rows_iterates_live_only(self, cities):
        cities.delete(1)
        assert [rid for rid, _ in cities.rows()] == [0, 2]

    def test_scan(self, cities):
        big = list(cities.scan(lambda r: r["population"] > 100_000))
        assert [row["city"] for _rid, row in big] == ["Springfield",
                                                      "Rivertown"]


class TestIndexes:
    def test_create_index_and_lookup(self, cities):
        cities.create_index("state")
        got = cities.lookup("state", "Avalon")
        assert sorted(row["city"] for _rid, row in got) == [
            "Lakeview", "Springfield"]

    def test_lookup_without_index_scans(self, cities):
        got = cities.lookup("city", "Rivertown")
        assert len(got) == 1
        assert cities.index_on("city") is None

    def test_lookup_unknown_column(self, cities):
        with pytest.raises(SchemaError):
            cities.lookup("mayor", "Quimby")

    def test_index_tracks_inserts(self, cities):
        cities.create_index("state")
        cities.insert({"city": "Hilldale", "state": "Avalon",
                       "population": 10, "loc": Point(2, 2)})
        assert len(cities.lookup("state", "Avalon")) == 3

    def test_index_tracks_deletes(self, cities):
        cities.create_index("state")
        cities.delete(0)
        assert [row["city"] for _r, row in cities.lookup("state", "Avalon")
                ] == ["Lakeview"]

    def test_index_tracks_updates(self, cities):
        cities.create_index("state")
        cities.update(0, {"state": "Cascadia"})
        assert len(cities.lookup("state", "Avalon")) == 1
        assert len(cities.lookup("state", "Cascadia")) == 1

    def test_pictorial_index_rejected(self, cities):
        with pytest.raises(SchemaError, match="pictorial"):
            cities.create_index("loc")

    def test_index_on_existing_rows(self, cities):
        idx = cities.create_index("population")
        assert [k for k, _ in idx.items()] == [80_000, 450_000, 1_200_000]


class TestPictorialTypes:
    def test_segment_column(self):
        rel = Relation("highways", [
            Column("name", "str"), Column("loc", "segment")])
        rel.insert({"name": "I-5",
                    "loc": Segment(Point(0, 0), Point(10, 10))})
        assert rel.get(0)["loc"].length() == pytest.approx(14.142135, rel=1e-5)

    def test_region_column(self):
        rel = Relation("lakes", [
            Column("name", "str"), Column("loc", "region")])
        rel.insert({"name": "Lake X",
                    "loc": Region.from_rect(Rect(0, 0, 4, 4))})
        assert rel.get(0)["loc"].area() == 16.0

    def test_region_column_rejects_rect(self):
        rel = Relation("lakes", [Column("loc", "region")])
        with pytest.raises(SchemaError):
            rel.insert({"loc": Rect(0, 0, 1, 1)})
