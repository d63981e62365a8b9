"""Property-based tests: the PSQL executor vs a brute-force reference."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.geometry import Point, Rect, Region
from repro.geometry.predicates import OPERATORS
from repro.psql import Session, ast
from repro.relational import Column, Database

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)
points = st.builds(Point, coords, coords)
populations = st.integers(min_value=0, max_value=10_000_000)

city_lists = st.lists(st.tuples(points, populations), min_size=0,
                      max_size=40)


def build_db(cities):
    db = Database()
    rel = db.create_relation("cities", [
        Column("city", "str"), Column("kind", "str"),
        Column("population", "int"), Column("loc", "point")])
    for i, (p, pop) in enumerate(cities):
        rel.insert({"city": f"C{i}", "kind": f"K{pop % 3}",
                    "population": pop, "loc": p})
    pic = db.create_picture("map", Rect(0, 0, 100, 100))
    pic.register(rel, "loc", max_entries=4)
    return db


@st.composite
def windows(draw):
    cx = draw(coords)
    cy = draw(coords)
    dx = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    dy = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    return cx, cy, dx, dy


@given(city_lists, windows())
@settings(max_examples=50, deadline=None)
def test_covered_by_window_matches_brute_force(cities, window):
    cx, cy, dx, dy = window
    db = build_db(cities)
    result = Session(db).execute(
        f"select city from cities on map "
        f"at loc covered-by {{{cx!r} ± {dx!r}, {cy!r} ± {dy!r}}}")
    rect = Rect.from_center(Point(cx, cy), dx, dy)
    expect = sorted(f"C{i}" for i, (p, _pop) in enumerate(cities)
                    if rect.contains_point(p))
    assert sorted(result.column("city")) == expect


@given(city_lists, windows())
@settings(max_examples=50, deadline=None)
def test_disjoined_window_is_complement(cities, window):
    cx, cy, dx, dy = window
    db = build_db(cities)
    session = Session(db)
    spec = f"{{{cx!r} ± {dx!r}, {cy!r} ± {dy!r}}}"
    inside = session.execute(
        f"select city from cities on map at loc intersecting {spec}")
    outside = session.execute(
        f"select city from cities on map at loc disjoined {spec}")
    assert len(inside) + len(outside) == len(cities)
    assert not set(inside.column("city")) & set(outside.column("city"))


@given(city_lists, populations)
@settings(max_examples=50, deadline=None)
def test_where_filter_matches_brute_force(cities, threshold):
    db = build_db(cities)
    result = Session(db).execute(
        f"select city from cities where population > {threshold}")
    expect = sorted(f"C{i}" for i, (_p, pop) in enumerate(cities)
                    if pop > threshold)
    assert sorted(result.column("city")) == expect


@given(city_lists, populations)
@settings(max_examples=30, deadline=None)
def test_index_path_equals_scan_path(cities, threshold):
    """The same query with and without a B-tree index agrees exactly."""
    db = build_db(cities)
    query = f"select city from cities where population >= {threshold}"
    without = sorted(Session(db).execute(query).column("city"))
    db.relation("cities").create_index("population")
    with_index = sorted(Session(db).execute(query).column("city"))
    assert without == with_index


QUADRANTS = {
    "SW": Rect(0, 0, 50, 50), "SE": Rect(50, 0, 100, 50),
    "NW": Rect(0, 50, 50, 100), "NE": Rect(50, 50, 100, 100),
}


def add_zones(db):
    zones = db.create_relation("zones", [
        Column("zone", "str"), Column("loc", "region")])
    for name, rect in QUADRANTS.items():
        zones.insert({"zone": name, "loc": Region.from_rect(rect)})
    db.create_picture("zone-map", Rect(0, 0, 100, 100)).register(
        zones, "loc", max_entries=4)


@given(city_lists)
@settings(max_examples=30, deadline=None)
def test_juxtaposition_matches_nested_loop(cities):
    """R-tree join vs brute force over two relations."""
    db = build_db(cities)
    add_zones(db)
    quadrants = QUADRANTS

    result = Session(db).execute(
        "select city, zone from cities, zones on map, zone-map "
        "at cities.loc covered-by zones.loc")
    got = sorted(result.rows)
    expect = sorted(
        (f"C{i}", name)
        for i, (p, _pop) in enumerate(cities)
        for name, rect in quadrants.items()
        if rect.contains_point(p))
    assert got == expect


# -- the projection: every select-item form against brute force ---------------


def measured(session, text):
    """(result, psql.* counters, EXPLAIN ANALYZE actual rows by node).

    The planner may pick either access path for a window; whichever it
    was, the deepest node is reported as ``access``."""
    with obs.scope(enable=True) as registry:
        result = session.execute(text)
    counters = registry.snapshot()
    nodes = [(found.group(1), int(found.group(2)))
             for (line,) in session.execute("explain analyze " + text).rows
             if (found := re.match(
                 r"\s*(?:-> )?([\w-]+) .*actual rows=(\d+)", line))]
    actual = dict(nodes[:-1], access=nodes[-1][1])
    return result, counters, actual


def pictorial_of(result):
    return [(p.label, p.geometry) for p in result.pictorial]


@given(city_lists, windows(), populations)
@settings(max_examples=40, deadline=None)
def test_select_item_forms_match_brute_force(cities, window, threshold):
    cx, cy, dx, dy = window
    db = build_db(cities)
    session = Session(db)
    session.functions.register("scale", lambda v, k: v * k)
    rect = Rect.from_center(Point(cx, cy), dx, dy)
    at = (f"from cities on map at loc covered-by "
          f"{{{cx!r} ± {dx!r}, {cy!r} ± {dy!r}}}")
    inside = sorted((f"C{i}", f"K{pop % 3}", pop, p)
                    for i, (p, pop) in enumerate(cities)
                    if rect.contains_point(p))
    passing = [row for row in inside if row[2] > threshold]

    star, counters, actual = measured(session, f"select * {at}")
    assert star.columns == ("city", "kind", "population", "loc")
    assert sorted(star.rows) == inside
    # One geometry per row, labelled by the row's first string, in row
    # order.
    assert pictorial_of(star) == [(row[0], row[3]) for row in star.rows]
    assert counters["psql.at.rows_out"] == len(inside)
    assert counters["psql.rows_returned"] == len(inside)
    assert "psql.where.rows_in" not in counters
    assert actual == {"project": len(inside), "access": len(inside)}

    mixed, counters, actual = measured(
        session,
        f"select cities.city, population, x(loc), scale(population, 2), "
        f"distance(loc, cities.loc) {at} where population > {threshold}")
    assert mixed.columns[:3] == ("cities.city", "population", "x(loc)")
    assert mixed.columns[4] == "distance(loc, cities.loc)"
    assert sorted(mixed.rows) == [(city, pop, p.x, pop * 2, 0.0)
                                  for city, _kind, pop, p in passing]
    assert mixed.pictorial == []
    assert counters["psql.at.rows_out"] == len(inside)
    assert counters["psql.where.rows_in"] == len(inside)
    assert counters["psql.where.rows_out"] == len(passing)
    assert counters["psql.rows_returned"] == len(passing)
    assert actual == {"project": len(passing), "filter": len(passing),
                      "access": len(inside)}

    # A constant select item only exists as a hand-built AST.
    constant = session.run(ast.Query(
        select=(ast.Literal(7), ast.ColumnRef("loc", "cities"),
                ast.Literal("seven")),
        relations=("cities",)))
    assert constant.rows == [(7, p, "seven") for p, _pop in cities]
    assert pictorial_of(constant) == [("seven", p) for p, _pop in cities]


@given(city_lists, populations)
@settings(max_examples=40, deadline=None)
def test_aggregates_with_group_keys_match_brute_force(cities, threshold):
    db = build_db(cities)
    result, counters, actual = measured(
        Session(db),
        f"select kind, count(city), max(population), northest(loc), "
        f"mbr(loc) from cities where population > {threshold}")
    groups = {}                       # first-seen order, as a heap scan
    for i, (p, pop) in enumerate(cities):
        if pop > threshold:
            groups.setdefault(f"K{pop % 3}", []).append((pop, p))
    expect = []
    for kind, members in groups.items():
        box = Rect.from_point(members[0][1])
        for _pop, p in members[1:]:
            box = box.union(Rect.from_point(p))
        expect.append((kind, len(members), max(pop for pop, _p in members),
                       max(p.y for _pop, p in members), box))
    assert result.rows == expect
    # northest() folds to a float; only mbr() reaches the graphics device.
    assert pictorial_of(result) == [(row[0], row[4]) for row in expect]
    assert counters["psql.where.rows_in"] == len(cities)
    assert counters["psql.rows_returned"] == len(expect)
    assert actual["project"] == len(expect)
    assert actual["filter"] == sum(len(m) for m in groups.values())


@given(city_lists)
@settings(max_examples=30, deadline=None)
def test_juxtaposition_projects_a_pictorial_column_from_each_side(cities):
    db = build_db(cities)
    add_zones(db)
    session = Session(db)
    select = "select city, cities.loc, zone, zones.loc"
    tail = "on map, zone-map at cities.loc covered-by zones.loc"
    result, counters, actual = measured(
        session, f"{select} from cities, zones {tail}")
    pairs = sorted(
        (f"C{i}", name)
        for i, (p, _pop) in enumerate(cities)
        for name, rect in QUADRANTS.items() if rect.contains_point(p))
    where = {f"C{i}": p for i, (p, _pop) in enumerate(cities)}
    region = {name: Region.from_rect(rect)
              for name, rect in QUADRANTS.items()}
    expect = [(city, where[city], zone, region[zone])
              for city, zone in pairs]

    def by_names(rows, city=0, zone=2):
        return sorted(rows, key=lambda row: (row[city], row[zone]))

    assert result.columns == ("city", "cities.loc", "zone", "zones.loc")
    assert by_names(result.rows) == expect
    # Per row: the city's point, then the zone's region, both labelled
    # with the row's first string.
    assert pictorial_of(result) == [
        (row[0], geometry) for row in result.rows
        for geometry in (row[1], row[3])]
    assert counters["psql.at.rows_out"] == len(expect)
    assert counters["psql.rows_returned"] == len(expect)
    assert actual == {"project": len(expect), "access": len(expect)}
    # Binding slots follow the from-clause, whichever side the at-clause
    # names first; * expands in from-clause order too.
    flipped = session.execute(f"{select} from zones, cities {tail}")
    assert by_names(flipped.rows) == expect
    star = session.execute(f"select * from zones, cities {tail}")
    assert star.columns == ("zones.zone", "zones.loc", "cities.city",
                            "cities.kind", "cities.population",
                            "cities.loc")
    assert [(row[2], row[5], row[0], row[1])
            for row in by_names(star.rows, city=2, zone=0)] == expect
