"""Executor tests over the synthetic US map (end-to-end PSQL)."""

import pytest

from repro.geometry import Point, Rect
from repro.psql import PsqlSemanticError, Session, execute


@pytest.fixture()
def session(map_database) -> Session:
    return Session(map_database)


class TestDirectSpatialSearch:
    def test_covered_by_window(self, session, us_map):
        r = session.execute(
            "select city, loc from cities on us-map "
            "at loc covered-by {500 ± 250, 500 ± 250}")
        window = Rect(250, 250, 750, 750)
        expect = sorted(c.name for c in us_map.cities
                        if window.contains_point(c.loc))
        assert sorted(r.column("city")) == expect
        assert r.window == window

    def test_where_filter_composes(self, session, us_map):
        r = session.execute(
            "select city, population from cities on us-map "
            "at loc covered-by {500 ± 500, 500 ± 500} "
            "where population > 450_000")
        assert all(p > 450_000 for p in r.column("population"))
        expect = sum(1 for c in us_map.cities if c.population > 450_000)
        assert len(r) == expect

    def test_disjoined_complements_covered_by(self, session, us_map):
        inside = session.execute(
            "select city from cities on us-map "
            "at loc covered-by {300 ± 100, 300 ± 100}")
        outside = session.execute(
            "select city from cities on us-map "
            "at loc disjoined {300 ± 100, 300 ± 100}")
        assert len(inside) + len(outside) == len(us_map.cities)

    def test_overlapping_regions(self, session, us_map):
        r = session.execute(
            "select state from states on us-map "
            "at loc overlapping {500 ± 50, 500 ± 50}")
        assert 1 <= len(r) <= len(us_map.states)

    def test_covering_window(self, session):
        """States whose MBR covers a pinpoint window at a state centre."""
        r = session.execute(
            "select state from states on us-map "
            "at loc covering {125 ± 1, 166 ± 1}")
        assert len(r) >= 1

    def test_window_on_left_flips_operator(self, session, us_map):
        a = session.execute("select city from cities on us-map "
                            "at loc covered-by {500 ± 250, 500 ± 250}")
        b = session.execute("select city from cities on us-map "
                            "at {500 ± 250, 500 ± 250} covering loc")
        assert sorted(a.column("city")) == sorted(b.column("city"))

    def test_segments_in_window(self, session, us_map):
        r = session.execute(
            "select hwy-name from highways on us-map "
            "at loc intersecting {500 ± 500, 500 ± 500}")
        assert len(r) == len(us_map.highways)


class TestJuxtaposition:
    def test_cities_by_time_zone(self, session, us_map):
        r = session.execute(
            "select city, zone from cities, time-zones "
            "on us-map, time-zone-map "
            "at cities.loc covered-by time-zones.loc")
        # Every city lies in at least one zone; boundary cities may be in 2.
        assert len(r) >= len(us_map.cities)
        cities_seen = set(r.column("city"))
        assert len(cities_seen) == len(us_map.cities)

    def test_zone_assignment_is_geometrically_correct(self, session,
                                                      us_map):
        r = session.execute(
            "select city, zone from cities, time-zones "
            "on us-map, time-zone-map "
            "at cities.loc covered-by time-zones.loc")
        zone_by_name = {z.zone: z.loc for z in us_map.time_zones}
        loc_by_city = {c.name: c.loc for c in us_map.cities}
        for city, zone in r.rows:
            assert zone_by_name[zone].contains_point(loc_by_city[city])

    def test_disjoined_juxtaposition_is_complement(self, session, us_map):
        """cities disjoined zones + cities intersecting zones = all pairs."""
        inter = session.execute(
            "select city, zone from cities, time-zones "
            "on us-map, time-zone-map "
            "at cities.loc intersecting time-zones.loc")
        disj = session.execute(
            "select city, zone from cities, time-zones "
            "on us-map, time-zone-map "
            "at cities.loc disjoined time-zones.loc")
        total = len(us_map.cities) * len(us_map.time_zones)
        assert len(inter) + len(disj) == total
        assert not set(inter.rows) & set(disj.rows)

    def test_juxtaposition_requires_two_relations(self, session):
        with pytest.raises(PsqlSemanticError, match="two distinct"):
            session.execute(
                "select city from cities on us-map "
                "at cities.loc covered-by cities.loc")


class TestNestedMappings:
    def test_lakes_in_eastern_states(self, session, us_map):
        r = session.execute("""
            select lake, area, lakes.loc
            from lakes
            on lake-map
            at lakes.loc covered-by
                select states.loc from states on us-map
                at states.loc covered-by {750 ± 250, 500 ± 500}
        """)
        east = Rect(500, 0, 1000, 1000)
        expect = sorted(l.name for l in us_map.lakes
                        if east.contains(l.loc.mbr()))
        assert sorted(r.column("lake")) == expect

    def test_nested_mapping_needs_pictorial_column(self, session):
        with pytest.raises(PsqlSemanticError, match="no pictorial column"):
            session.execute(
                "select city from cities on us-map "
                "at loc covered-by "
                "   select state from states on us-map "
                "   at loc covered-by {500 ± 500, 500 ± 500}")


class TestProjectionAndFunctions:
    def test_star_expands_columns(self, session):
        r = session.execute("select * from cities")
        assert r.columns == ("city", "state", "population", "loc")

    def test_function_in_select(self, session, us_map):
        r = session.execute("select lake, area(loc) from lakes")
        areas = dict(zip(r.column("lake"), r.column("area(loc)")))
        for l in us_map.lakes:
            assert areas[l.name] == pytest.approx(l.loc.area())

    def test_function_in_where(self, session):
        r = session.execute(
            "select lake from lakes where area(loc) > 900")
        r_all = session.execute("select lake from lakes")
        assert len(r) < len(r_all)

    def test_custom_function(self, session):
        session.functions.register("is-north", lambda v: float(v.y > 500))
        r = session.execute(
            "select city from cities where is-north(loc) = 1")
        total = session.execute("select city from cities")
        assert 0 < len(r) < len(total)

    def test_pictorial_output_channel(self, session):
        r = session.execute(
            "select city, loc from cities on us-map "
            "at loc covered-by {500 ± 500, 500 ± 500}")
        assert len(r.pictorial) == len(r)
        labels = {p.label for p in r.pictorial}
        assert labels == set(r.column("city"))


class TestErrors:
    def test_unknown_relation(self, session):
        with pytest.raises(PsqlSemanticError, match="unknown relation"):
            session.execute("select a from rivers")

    def test_unknown_picture(self, session):
        with pytest.raises(PsqlSemanticError, match="unknown picture"):
            session.execute("select city from cities on mars-map "
                            "at loc covered-by {0 ± 1, 0 ± 1}")

    def test_at_without_on(self, session):
        with pytest.raises(PsqlSemanticError, match="requires an on-clause"):
            session.execute("select city from cities "
                            "at loc covered-by {0 ± 1, 0 ± 1}")

    def test_unknown_column_in_where(self, session):
        with pytest.raises(PsqlSemanticError, match="unknown column"):
            session.execute("select city from cities where altitude > 3")

    def test_ambiguous_column(self, session):
        with pytest.raises(PsqlSemanticError, match="ambiguous"):
            session.execute(
                "select city from cities, states where loc = loc")

    def test_picture_without_index(self, session):
        with pytest.raises(PsqlSemanticError, match="no picture"):
            session.execute("select lake from lakes on us-map "
                            "at loc covered-by {0 ± 1, 0 ± 1}")

    def test_incomparable_types(self, session):
        with pytest.raises(PsqlSemanticError, match="cannot compare"):
            session.execute("select city from cities where city > 5")

    def test_window_vs_window_at_clause_rejected(self, session):
        with pytest.raises(PsqlSemanticError, match="unsupported"):
            session.execute(
                "select city from cities on us-map "
                "at {0 ± 1, 0 ± 1} covered-by {0 ± 2, 0 ± 2}")

    def test_window_vs_subquery_rejected(self, session):
        with pytest.raises(PsqlSemanticError, match="unsupported"):
            session.execute(
                "select city from cities on us-map "
                "at {0 ± 1, 0 ± 1} covered-by "
                "   select states.loc from states on us-map "
                "   at loc covered-by {0 ± 1, 0 ± 1}")

    def test_one_shot_execute_helper(self, map_database):
        r = execute(map_database, "select city from cities")
        assert len(r) > 0


class TestNamesResolveWhetherOrNotRowsQualify:
    """Regression: a bad name used to be reported only once some row
    reached the select list or the where clause, so the same text was
    ``OK`` on an empty window and an error on a wider one."""

    #: a window no city lies in
    EMPTY = "on us-map at loc covered-by {0 ± 0.0001, 0 ± 0.0001}"

    def test_the_window_really_is_empty(self, session):
        assert len(session.execute(
            f"select city from cities {self.EMPTY}")) == 0

    @pytest.mark.parametrize("query, message", [
        ("select nosuch from cities {empty}", "unknown column 'nosuch'"),
        ("select cities.nosuch from cities {empty}",
         "'cities' has no column 'nosuch'"),
        ("select states.state from cities {empty}",
         "'states' is not in the from-clause"),
        ("select city from cities {empty} where nosuch > 3",
         "unknown column 'nosuch'"),
        ("select city from cities {empty} where area(nosuch) > 3",
         "unknown column 'nosuch'"),
        ("select nosuch(loc) from cities {empty}",
         "unknown function 'nosuch'"),
        # aggregate forms: the argument and the group key
        ("select count(nosuch) from cities {empty}",
         "unknown column 'nosuch'"),
        ("select nosuch, count(city) from cities {empty}",
         "unknown column 'nosuch'"),
    ])
    def test_single_relation(self, session, query, message):
        with pytest.raises(PsqlSemanticError, match=message):
            session.execute(query.format(empty=self.EMPTY))

    @pytest.mark.parametrize("select, where, message", [
        ("nosuch", "", "unknown column 'nosuch'"),
        ("loc", "", "ambiguous between cities and time-zones"),
        ("city", "where loc = loc", "ambiguous"),
        ("city", "where zone = nosuch", "unknown column 'nosuch'"),
        ("count(loc)", "", "ambiguous"),
    ])
    def test_two_relations(self, session, map_database, select, where,
                           message):
        # No city is inside a zone once the zones are gone.
        zones = map_database.relation("time-zones")
        for rid, _row in list(zones.rows()):
            map_database.delete("time-zones", rid)

        def juxtaposition(select, where=""):
            return (f"select {select} from cities, time-zones "
                    f"on us-map, time-zone-map "
                    f"at cities.loc covered-by time-zones.loc {where}")

        assert len(session.execute(juxtaposition("city"))) == 0
        with pytest.raises(PsqlSemanticError, match=message):
            session.execute(juxtaposition(select, where))

    def test_explain_still_plans_without_resolving(self, session):
        # EXPLAIN (without ANALYZE) never executes, so it keeps planning
        # texts whose select list would not resolve.
        plan = session.execute(f"explain select nosuch from cities "
                               f"{self.EMPTY}")
        assert plan.columns == ("plan",)
