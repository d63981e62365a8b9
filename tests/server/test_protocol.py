"""Framing, escaping and the canonical result encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.psql.result import QueryResult
from repro.server import binproto, protocol
from repro.server.protocol import ProtocolError

#: Everything :func:`protocol.escape` rewrites, the empty string's
#: neighbours, and the characters ``str.splitlines()`` would split on
#: but ``escape`` leaves alone: only "\n" is ever a frame separator.
CELL_ALPHABET = "ab \\\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029±"
cells = st.one_of(
    st.text(alphabet=st.sampled_from(CELL_ALPHABET), max_size=6),
    st.integers(-5, 5), st.floats(allow_nan=False, width=16),
    st.builds(Point, st.integers(0, 9), st.integers(0, 9)))


@st.composite
def results(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[cells] * width), max_size=8))
    return QueryResult(tuple(f"c{i}" for i in range(width)), rows)


def reference_lines(result):
    """The per-cell rendering :func:`protocol.encode_result` replaced."""
    lines = ["COLS " + "\t".join(protocol.escape(c)
                                 for c in result.columns)]
    for row in result.rows:
        lines.append("ROW " + "\t".join(
            protocol.escape(protocol.format_value(v)) for v in row))
    return lines + ["END"]


class TestEscaping:
    @pytest.mark.parametrize("text", [
        "", "plain", "tab\there", "line\nbreak", "cr\rlf\n",
        "back\\slash", "\\t literal", "mixed\t\\\n\r end", "±{}'\"",
    ])
    def test_roundtrip(self, text):
        assert protocol.unescape(protocol.escape(text)) == text

    def test_escaped_text_is_single_line_single_field(self):
        escaped = protocol.escape("a\tb\nc")
        assert "\t" not in escaped and "\n" not in escaped

    def test_split_fields(self):
        fields = ["a", "with\ttab", "with\nnewline", ""]
        joined = "\t".join(protocol.escape(f) for f in fields)
        assert protocol.split_fields(joined) == fields

    @pytest.mark.parametrize("bad", [
        "\\",                  # lone trailing backslash
        "text\\",              # trailing backslash after content
        "\\\\\\",              # odd backslash run: one pair, one dangling
        "\\x41",               # unknown escape letter
        "\\ ",                 # escaped space is not a thing
        "a\\qb",               # unknown pair mid-field
    ])
    def test_malformed_escapes_raise(self, bad):
        # A truncated or unknown escape is a framing error, not data:
        # silently passing it through would let a corrupted frame decode
        # to a *different* string than was sent.
        with pytest.raises(ProtocolError):
            protocol.unescape(bad)

    @pytest.mark.parametrize("ok", ["\\\\", "\\t", "\\n", "\\r", "\\\\\\t"])
    def test_wellformed_escapes_accepted(self, ok):
        protocol.unescape(ok)

    @given(st.text(alphabet=st.sampled_from("ab\\\t\n\r\x00\x1f±"),
                   max_size=40))
    def test_roundtrip_property(self, text):
        # Adversarial alphabet: backslash runs, the escaped control
        # chars, a NUL and a non-ASCII char.  escape() then unescape()
        # must be the identity, and the escaped form must never raise.
        assert protocol.unescape(protocol.escape(text)) == text

    @given(st.text(max_size=60))
    def test_roundtrip_property_general(self, text):
        assert protocol.unescape(protocol.escape(text)) == text


class TestEncodeResult:
    def test_shape_and_determinism(self):
        result = QueryResult(columns=("city", "loc"))
        result.rows.append(("Boston", Point(1.5, 2.0)))
        result.rows.append(("Tab\tCity", 42))
        lines = protocol.encode_result(result)
        assert lines[0] == "COLS city\tloc"
        assert lines[1] == "ROW Boston\tPoint(x=1.5, y=2.0)"
        assert lines[-1] == "END"
        assert lines == protocol.encode_result(result)

    def test_empty_result(self):
        lines = protocol.encode_result(QueryResult(columns=("a",)))
        assert lines == ["COLS a", "END"]

    @given(results())
    def test_bulk_rendering_equals_per_cell_reference(self, result):
        lines = protocol.encode_result(result)
        assert lines == reference_lines(result)
        # One frame per line: nothing but "\n" may separate frames once
        # the lines are joined for the socket.
        assert "\n".join(lines).split("\n") == lines

    @given(results())
    def test_decodes_to_the_original_cells(self, result):
        lines = protocol.encode_result(result)
        cells = [tuple(protocol.format_value(v) for v in row)
                 for row in result.rows]
        assert protocol.decode_result(lines) == (result.columns, cells)
        r = protocol.parse_response(
            [f"OK fresh 0 {len(cells)}", *lines])
        assert (r.columns, r.rows) == (result.columns, cells)
        assert r.payload == ("\n".join(lines) + "\n").encode()
        # ...which is what the binary codec decodes to as well.
        assert binproto.decode_result_body(
            binproto.encode_result_body(result)) == (result.columns, cells)

    def test_only_rows_that_need_it_are_escaped(self):
        result = QueryResult(("a", "b"), [("plain", 1), ("tab\t", 2),
                                          ("", ""), ("x", "\\")])
        assert protocol.encode_result(result) == [
            "COLS a\tb", "ROW plain\t1", "ROW tab\\t\t2", "ROW \t",
            "ROW x\t\\\\", "END"]

    def test_ragged_rows_are_refused(self):
        with pytest.raises(ValueError):
            protocol.encode_result(
                QueryResult(("a", "b"), [("x", "y"), ("z",)]))

    def test_format_value(self):
        assert protocol.format_value("s") == "s"
        assert protocol.format_value(3) == "3"
        assert protocol.format_value(2.5) == "2.5"
        assert protocol.format_value(Rect(0, 0, 1, 1)) == \
            repr(Rect(0, 0, 1, 1))


class TestParseResponse:
    def test_ok_roundtrip(self):
        result = QueryResult(columns=("city",))
        result.rows.append(("Boston",))
        payload = protocol.encode_result(result)
        r = protocol.parse_response(["OK fresh 3 1", *payload])
        assert r.ok and not r.cached and r.generation == 3
        assert r.columns == ("city",)
        assert r.rows == [("Boston",)]
        assert r.payload == ("\n".join(payload) + "\n").encode()

    def test_cached_header(self):
        r = protocol.parse_response(["OK cached 7 0", "COLS a", "END"])
        assert r.cached and r.generation == 7

    def test_error_frames(self):
        r = protocol.parse_response(
            ["ERR PsqlSyntaxError " + protocol.escape("bad\nquery"),
             "END"])
        assert r.status == "error"
        assert r.error_kind == "PsqlSyntaxError"
        assert r.error_message == "bad\nquery"
        with pytest.raises(protocol.ServerError):
            r.raise_for_status()

    def test_busy_and_timeout(self):
        busy = protocol.parse_response(["BUSY overloaded", "END"])
        assert busy.status == "busy"
        with pytest.raises(protocol.ServerBusyError):
            busy.raise_for_status()
        to = protocol.parse_response(["TIMEOUT too slow", "END"])
        assert to.status == "timeout"
        with pytest.raises(protocol.ServerTimeoutError):
            to.raise_for_status()

    def test_stats(self):
        lines = protocol.encode_stats(
            {"server.qps": 12.5, "server.queries": 40.0}, generation=2)
        r = protocol.parse_response(lines)
        assert r.ok
        assert r.stats["server.qps"] == 12.5
        assert r.stats["server.queries"] == 40.0
        assert r.stats["server.generation"] == 2.0

    def test_stats_populates_generation(self):
        lines = protocol.encode_stats({"server.qps": 1.0}, generation=9)
        r = protocol.parse_response(lines)
        assert r.generation == 9

    def test_stats_keeps_integers_integral(self):
        lines = protocol.encode_stats(
            {"server.queries": 40, "server.qps": 12.5}, generation=3)
        r = protocol.parse_response(lines)
        assert r.stats["server.queries"] == 40
        assert isinstance(r.stats["server.queries"], int)
        assert isinstance(r.stats["server.qps"], float)
        assert isinstance(r.generation, int)

    @pytest.mark.parametrize("lines", [
        [],
        ["WHAT is this"],
        ["OK fresh 1 0", "COLS a"],           # missing END
        ["OK fresh 1"],                        # short header
        ["OK fresh 1 0", "NOISE x", "END"],    # foreign frame
    ])
    def test_malformed_raises(self, lines):
        with pytest.raises(ProtocolError):
            protocol.parse_response(lines)

    def test_one_column_empty_cell_keeps_its_arity(self):
        # Regression: "ROW " used to decode to () while the binary codec
        # returned ('',) for the same result.
        r = protocol.parse_response(
            ["OK fresh 0 1", "COLS name", "ROW ", "END"])
        assert r.rows == [("",)]
        result = QueryResult(("name",), [("",)])
        assert protocol.encode_result(result) == \
            ["COLS name", "ROW ", "END"]
        assert binproto.decode_result_body(
            binproto.encode_result_body(result))[1] == r.rows

    @pytest.mark.parametrize("body", [
        ["COLS a\tb", "ROW x"],               # too few fields
        ["COLS a", "ROW x\ty"],               # too many
        ["COLS a\tb", "ROW "],                # one empty field, not two
        ["ROW x"],                            # no arity announced yet
        ["COLS a", "ROW x", "COLS a"],        # COLS is the first frame only
    ])
    def test_arity_mismatch_raises(self, body):
        with pytest.raises(ProtocolError):
            protocol.parse_response(["OK fresh 0 1", *body, "END"])

    def test_payload_bytes_are_taken_as_given(self):
        lines = ["OK fresh 0 1", "COLS a", "ROW x", "END"]
        wire = b"COLS a\nROW x\nEND\n"
        assert protocol.parse_response(lines).payload == wire
        assert protocol.parse_response(lines, payload=wire).payload is wire

    def test_ok_passes_raise_for_status(self):
        r = protocol.parse_response(["OK fresh 0 0", "COLS a", "END"])
        assert r.raise_for_status() is r


def test_parse_repack_ok_header():
    from repro.server.protocol import parse_response

    r = parse_response(["OK repack 7 1234", "END"])
    assert r.status == "ok" and not r.cached
    assert r.generation == 7
    assert r.nrows == 1234
    assert r.rows == []


def test_parse_ok_header_carries_nrows():
    from repro.server.protocol import parse_response

    r = parse_response(["OK fresh 2 1", "COLS city", "ROW Boston", "END"])
    assert r.nrows == 1 and len(r.rows) == 1


def test_parse_ok_rejects_bad_nrows():
    import pytest as _pytest

    from repro.server.protocol import ProtocolError, parse_response

    with _pytest.raises(ProtocolError):
        parse_response(["OK fresh 2 lots", "END"])
