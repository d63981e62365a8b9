"""Disk-backed picture indexes and the offline rebuild path."""

import random
import sys
import threading

import pytest

from repro.geometry import Point, Rect
from repro.psql.executor import Session, _Execution
from repro.psql.parser import parse
from repro.psql.planner import plan_query
from repro.relational import Column, Database
from repro.server.demo import demo_database
from repro.storage import disk_rtree, failpoints
from repro.storage.disk_rtree import DiskRTree


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


def _make_db(n=200, seed=3):
    db = Database()
    rel = db.create_relation("cities", [
        Column("city", "str"), Column("loc", "point")])
    rng = random.Random(seed)
    for i in range(n):
        rel.insert({"city": f"c{i}",
                    "loc": Point(rng.uniform(0, 1000),
                                 rng.uniform(0, 1000))})
    pic = db.create_picture("map", Rect(0, 0, 1000, 1000))
    return db, rel, pic


class TestRegisterDisk:
    def test_matches_in_memory_index(self, tmp_path):
        db, rel, pic = _make_db()
        mem = pic.register(rel, "loc", max_entries=8)
        pic2 = db.create_picture("map2", Rect(0, 0, 1000, 1000))
        disk = pic2.register_disk(rel, "loc", str(tmp_path / "i.db"),
                                  max_entries=8)
        assert len(disk) == len(mem) == 200
        for seed in range(20):
            rng = random.Random(seed)
            x, y = rng.uniform(0, 900), rng.uniform(0, 900)
            w = Rect(x, y, x + 120, y + 120)
            assert sorted(disk.search(w)) == sorted(mem.search(w))
            assert sorted(disk.search_within(w)) == \
                sorted(mem.search_within(w))
        disk.close()

    def test_non_pictorial_column_rejected(self, tmp_path):
        from repro.relational.relation import SchemaError

        db, rel, pic = _make_db(n=5)
        with pytest.raises(SchemaError, match="not pictorial"):
            pic.register_disk(rel, "city", str(tmp_path / "i.db"))

    def test_update_path_through_database(self, tmp_path):
        db, rel, pic = _make_db(n=50)
        disk = pic.register_disk(rel, "loc", str(tmp_path / "i.db"),
                                 max_entries=8)
        rid = db.insert("cities", {"city": "new",
                                   "loc": Point(500.5, 500.5)})
        assert rid in disk.point_query(Point(500.5, 500.5))
        db.delete("cities", rid)
        assert rid not in disk.point_query(Point(500.5, 500.5))
        assert len(disk) == 50
        disk.close()

    def test_spatial_search_goes_through_disk_index(self, tmp_path):
        db, rel, pic = _make_db(n=80)
        disk = pic.register_disk(rel, "loc", str(tmp_path / "i.db"),
                                 max_entries=8)
        rids = db.spatial_search("map", "cities", Rect(0, 0, 1000, 1000))
        assert sorted(rids) == sorted(rid for rid, _ in rel.rows())
        disk.close()


class TestRebuildIndex:
    def test_disk_rebuild_refreshes_contents_and_generation(self, tmp_path):
        db, rel, pic = _make_db(n=100)
        disk = pic.register_disk(rel, "loc", str(tmp_path / "i.db"),
                                 max_entries=8)
        # Mutate the relation behind the index's back, then rebuild.
        for i in range(40):
            rel.insert({"city": f"late{i}",
                        "loc": Point(1 + i * 0.1, 2.0)})
        gen0 = db.generation
        count = db.rebuild_index("map", "cities")
        assert count == len(disk) == 140
        assert db.generation == gen0 + 1
        expect = sorted(rid for rid, row in rel.rows())
        assert sorted(disk.search(Rect(0, 0, 1001, 1001))) == expect
        disk.close()

    def test_in_memory_rebuild(self):
        db, rel, pic = _make_db(n=60)
        pic.register(rel, "loc", max_entries=8)
        gen0 = db.generation
        assert db.rebuild_index("map", "cities") == 60
        assert db.generation == gen0 + 1
        assert len(db.spatial_search("map", "cities",
                                     Rect(0, 0, 1000, 1000))) == 60

    def test_unknown_picture_raises(self):
        db, rel, pic = _make_db(n=5)
        pic.register(rel, "loc")
        with pytest.raises(KeyError):
            db.rebuild_index("nope", "cities")

    def test_crash_at_swap_keeps_old_index_readable(self, tmp_path):
        db, rel, pic = _make_db(n=100)
        path = str(tmp_path / "i.db")
        disk = pic.register_disk(rel, "loc", path, max_entries=8)
        old = sorted(disk.search(Rect(0, 0, 1000, 1000)))
        failpoints.arm(disk_rtree.FP_SWAP_BEFORE, "crash")
        with pytest.raises(failpoints.SimulatedCrash):
            db.rebuild_index("map", "cities")
        # A restarted process reopens the untouched old file.
        recovered = DiskRTree(path, max_entries=8)
        assert sorted(recovered.search(Rect(0, 0, 1000, 1000))) == old
        recovered.close()

    def test_rebuild_serialises_against_searches(self, tmp_path):
        """Concurrent searches during a rebuild see old or new tree,
        never a half-swapped pager."""
        db, rel, pic = _make_db(n=300)
        disk = pic.register_disk(rel, "loc", str(tmp_path / "i.db"),
                                 max_entries=8)
        _rebuild_under_searches(db, disk)
        disk.close()

    def test_in_memory_rebuild_serialises_against_searches(self):
        """The same on an in-memory index, which REPACK rebuilds in
        place: never a store from one tree and a root from another."""
        db, rel, pic = _make_db(n=300)
        _rebuild_under_searches(db, pic.register(rel, "loc", max_entries=8))


def _rebuild_under_searches(db, index):
    """Three searcher threads run whole-window searches while REPACK
    rebuilds *index* three times; each must see all 300 rows."""
    stop = threading.Event()
    failures: list[BaseException] = []

    def searcher() -> None:
        try:
            while not stop.is_set():
                got = index.search(Rect(0, 0, 1000, 1000))
                assert len(got) == 300
        except BaseException as exc:  # noqa: BLE001 - fail the test below
            failures.append(exc)

    threads = [threading.Thread(target=searcher) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    for t in threads:
        t.start()
    try:
        for _ in range(3):
            db.rebuild_index("map", "cities")
    finally:
        stop.set()
        for t in threads:
            t.join(10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures
    assert db.picture("map").index("cities") is index
    assert sorted(index.search(Rect(0, 0, 1000, 1000))) == list(range(300))


class TestJuxtapositionOverDisk:
    """A juxtaposition whose pictures live on disk runs the join kernel
    under each index's lock, and finds what the in-memory trees find."""

    @pytest.mark.parametrize("op", ["intersecting", "overlapping"])
    @pytest.mark.parametrize("on_disk", [("lakes",),
                                         ("lakes", "time-zones")])
    def test_matches_in_memory_pictures(self, tmp_path, op, on_disk):
        query = ("select lake, zone from lakes, time-zones "
                 "on lake-map, time-zone-map "
                 f"at lakes.loc {op} time-zones.loc")
        db = demo_database(scale=2)
        want = sorted(Session(db).execute(query).rows)
        assert want
        pictures = {"lakes": "lake-map", "time-zones": "time-zone-map"}
        indexes = [db.picture(pictures[name]).register_disk(
                       db.relation(name), "loc", str(tmp_path / name))
                   for name in on_disk]
        try:
            session = Session(db)
            plan = "\n".join(row[0] for row in
                              session.execute("explain " + query).rows)
            assert "spatial-join" in plan
            assert sorted(session.execute(query).rows) == want
        finally:
            for index in indexes:
                index.close()

    @pytest.mark.parametrize("force", ["nested-left", "nested-right"])
    def test_nested_plans_over_disk_pictures(self, tmp_path, force):
        """The planner offers the nested strategy on every tree form;
        forced over two disk pictures, it finds what lockstep finds."""
        query = parse(
            "select lake, zone from lakes, time-zones "
            "on lake-map, time-zone-map "
            "at lakes.loc intersecting time-zones.loc")
        db = demo_database(scale=2)
        session = Session(db)
        want = sorted(session.run(query).rows)
        indexes = [db.picture(picture).register_disk(
                       db.relation(name), "loc", str(tmp_path / name))
                   for name, picture in (("lakes", "lake-map"),
                                         ("time-zones", "time-zone-map"))]
        try:
            plan = plan_query(db, query, force=force)
            assert plan.access.props["strategy"] == "nested"
            got = _Execution(Session(db), query, plan=plan).run().rows
            assert sorted(got) == want
        finally:
            for index in indexes:
                index.close()
