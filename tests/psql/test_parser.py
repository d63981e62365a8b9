"""Unit tests for the PSQL parser."""

import pytest

from repro.psql import PsqlSyntaxError, parse
from repro.psql import ast


def test_minimal_query():
    q = parse("select city from cities")
    assert q.select == (ast.ColumnRef(column="city"),)
    assert q.relations == ("cities",)
    assert q.pictures == ()
    assert q.at is None
    assert q.where is None


def test_star_select():
    q = parse("select * from cities")
    assert isinstance(q.select[0], ast.Star)


def test_qualified_columns():
    q = parse("select cities.loc, state from cities")
    assert q.select[0] == ast.ColumnRef(column="loc", relation="cities")
    assert q.select[1] == ast.ColumnRef(column="state")


def test_multiple_relations_and_pictures():
    q = parse("select city, zone from cities, time-zones "
              "on us-map, time-zone-map "
              "at cities.loc covered-by time-zones.loc")
    assert q.relations == ("cities", "time-zones")
    assert q.pictures == ("us-map", "time-zone-map")
    assert q.at == ast.AtClause(
        left=ast.LocRef(column="loc", relation="cities"),
        op="covered-by",
        right=ast.LocRef(column="loc", relation="time-zones"))


def test_window_literal():
    q = parse("select loc from cities on us-map "
              "at loc covered-by {4±4, 11±9}")
    assert q.at.right == ast.WindowLiteral(cx=4, dx=4, cy=11, dy=9)


def test_window_ascii_plus_minus():
    q = parse("select loc from cities on us-map "
              "at loc covered-by {4+-4, 11+-9}")
    assert q.at.right == ast.WindowLiteral(cx=4, dx=4, cy=11, dy=9)


def test_negative_window_center():
    q = parse("select loc from r on p at loc covered-by {-10±5, 0±2}")
    assert q.at.right.cx == -10


def test_all_spatial_operators():
    for op in ("covering", "covered-by", "overlapping", "disjoined",
               "intersecting"):
        q = parse(f"select a from r on p at loc {op} {{0±1, 0±1}}")
        assert q.at.op == op


def test_bad_spatial_operator():
    with pytest.raises(PsqlSyntaxError, match="spatial operator"):
        parse("select a from r on p at loc touches {0±1, 0±1}")


def test_nested_mapping():
    q = parse("""
        select lake, area, lakes.loc
        from lakes
        on lake-map
        at lakes.loc covered-by
            select states.loc from states on state-map
            at states.loc covered-by {4±4, 11±9}
    """)
    assert isinstance(q.at.right, ast.SubquerySpec)
    inner = q.at.right.query
    assert inner.relations == ("states",)
    assert isinstance(inner.at.right, ast.WindowLiteral)


def test_parenthesised_subquery():
    q = parse("select a from r on p at loc covered-by "
              "(select s.loc from s on p at loc covering {0±1, 0±1})")
    assert isinstance(q.at.right, ast.SubquerySpec)


def test_where_comparisons():
    q = parse("select a from r where population > 450_000")
    assert q.where == ast.Comparison(
        left=ast.ColumnRef(column="population"), op=">",
        right=ast.Literal(value=450_000))


def test_where_boolean_structure():
    q = parse("select a from r where x > 1 and y < 2 or not z = 3")
    assert isinstance(q.where, ast.Or)
    assert isinstance(q.where.left, ast.And)
    assert isinstance(q.where.right, ast.Not)


def test_where_parentheses_override_precedence():
    q = parse("select a from r where x > 1 and (y < 2 or z = 3)")
    assert isinstance(q.where, ast.And)
    assert isinstance(q.where.right, ast.Or)


def test_where_string_literal():
    q = parse("select a from r where state = 'Avalon'")
    assert q.where.right == ast.Literal(value="Avalon")


def test_function_call_in_select_and_where():
    q = parse("select area(loc), state from states where area(loc) > 100")
    assert q.select[0] == ast.FunctionCall(
        name="area", args=(ast.ColumnRef(column="loc"),))
    assert q.where.left.name == "area"


def test_function_with_multiple_args():
    q = parse("select distance(a.loc, b.loc) from a, b")
    fn = q.select[0]
    assert fn.name == "distance"
    assert len(fn.args) == 2


def test_missing_from_clause():
    with pytest.raises(PsqlSyntaxError, match="expected 'from'"):
        parse("select a")


def test_missing_select():
    with pytest.raises(PsqlSyntaxError):
        parse("from cities")


def test_trailing_garbage():
    with pytest.raises(PsqlSyntaxError, match="trailing"):
        parse("select a from r extra")


def test_negative_extent_rejected():
    with pytest.raises(PsqlSyntaxError):
        parse("select a from r on p at loc covered-by {0±1, 0±-1}")


def test_incomplete_window():
    with pytest.raises(PsqlSyntaxError):
        parse("select a from r on p at loc covered-by {0±1}")


def test_clause_order_enforced():
    # "on" must come before "at"; "at ... on ..." is trailing garbage.
    with pytest.raises(PsqlSyntaxError):
        parse("select a from r at loc covered-by {0±1,0±1} on p")


@pytest.mark.parametrize("query", [
    "select a from r on p at loc covered-by {5±1e400, 5±1e400}",
    "select a from r on p at loc covered-by {1e400±1e400, 5±1}",
    "select a from r on p at loc covered-by {-1e400±1, 5±1}",
    "select a from r where b > 1e400",
])
def test_non_finite_number_rejected(query):
    # float("1e400") is inf; a window or literal built on it matches
    # everything (or, as inf - inf, nothing).
    with pytest.raises(PsqlSyntaxError, match="out of range"):
        parse(query)


@pytest.mark.parametrize("word", ["inf", "nan"])
def test_non_finite_words_are_not_numbers(word):
    with pytest.raises(PsqlSyntaxError):
        parse(f"select a from r on p at loc covered-by {{{word}±1, 5±1}}")


def test_large_finite_number_accepted():
    q = parse("select a from r where b > 1e300")
    assert q.where.right.value == 1e300
