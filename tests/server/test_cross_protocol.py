"""Cross-protocol equivalence: text and binary must decode identically.

One server, both framings.  Every Table-1 workload query (the smoke
set), escape-heavy string rows, prepared statements and the stats
snapshot are compared between a text connection, a binary connection
and a direct in-process execution.  A deliberately garbled frame must
fail with a framed error *without* desynchronising the connection.
"""

import socket
import struct

import pytest

from repro.psql.executor import Session
from repro.relational.catalog import Database
from repro.relational.relation import Column
from repro.server import binproto, protocol
from repro.server.client import Client
from repro.server.demo import demo_database
from repro.server.server import PsqlServer, ServerConfig
from repro.server.smoke import SMOKE_QUERIES

#: Strings chosen to stress the text protocol's escaping: tabs,
#: newlines, carriage returns, backslash runs, literal "\t" spellings,
#: empties and non-ASCII.  The binary protocol carries them verbatim.
TRICKY = [
    ("plain", "nothing special"),
    ("tab\there", "and\tthere"),
    ("line\nbreak", "cr\rlf\n"),
    ("back\\slash", "run\\\\of\\\\\\backslashes"),
    ("literal \\t not a tab", "trailing backslash\\"),
    ("", "empty label above"),
    ("±unicode°", "quotes '\" and braces {}"),
]


def escape_heavy_database() -> Database:
    db = Database()
    pois = db.create_relation("pois", [
        Column("label", "str"), Column("note", "str")])
    for label, note in TRICKY:
        pois.insert({"label": label, "note": note})
    return db


ESCAPE_QUERY = "select label, note from pois"


@pytest.fixture(scope="module")
def served():
    """(host, port, direct session) over demo + escape-heavy relations."""
    db = demo_database()
    escape_db = escape_heavy_database()
    db.attach_relation(escape_db.relation("pois"))
    server = PsqlServer(ServerConfig(port=0, workers=2), db=db)
    host, port = server.start_background()
    yield host, port, Session(db)
    server.stop_background()


ALL_QUERIES = SMOKE_QUERIES + [ESCAPE_QUERY]


class TestEquivalence:
    @pytest.mark.parametrize("query", ALL_QUERIES)
    def test_text_binary_direct_agree(self, served, query):
        host, port, direct = served
        result = direct.execute(query)
        text_expected = ("\n".join(protocol.encode_result(result))
                         + "\n").encode("utf-8")
        binary_expected = binproto.encode_result_body(result)
        with Client(host, port) as tc, \
                Client(host, port, binary=True) as bc:
            assert bc.binary
            tr = tc.query(query)
            br = bc.query(query)
        assert tr.ok and br.ok
        # Byte identity per framing...
        assert tr.payload == text_expected
        assert br.payload == binary_expected
        # ...and decoded identity across framings.
        assert tr.columns == br.columns == result.columns
        assert tr.rows == br.rows
        assert tr.nrows == br.nrows == len(result.rows)

    def test_escape_heavy_rows_survive_both_framings(self, served):
        host, port, _ = served
        with Client(host, port) as tc, \
                Client(host, port, binary=True) as bc:
            tr, br = tc.query(ESCAPE_QUERY), bc.query(ESCAPE_QUERY)
        assert tr.rows == br.rows == TRICKY

    def test_one_column_empty_cell_over_the_socket(self, served):
        # Regression: the text client decoded a lone empty cell ("ROW ")
        # to (), the binary client to ('',).
        host, port, direct = served
        query = "select label from pois"
        expected = [(label,) for label, _note in TRICKY]
        assert ("",) in expected
        assert direct.execute(query).rows == expected
        with Client(host, port) as tc, \
                Client(host, port, binary=True) as bc:
            for _fresh_then_cached in range(2):
                assert tc.query(query).rows == expected
                assert bc.query(query).rows == expected

    def test_stats_agree(self, served):
        host, port, _ = served
        with Client(host, port) as tc, \
                Client(host, port, binary=True) as bc:
            ts, bs = tc.stats(), bc.stats()
        assert ts["server.generation"] == bs["server.generation"]
        assert isinstance(ts["server.queries"], int)
        assert isinstance(bs["server.queries"], int)
        assert isinstance(ts["server.qps"], float)
        assert isinstance(bs["server.qps"], float)

    def test_command_verbs_over_binary(self, served):
        host, port, _ = served
        with Client(host, port, binary=True) as bc:
            assert bc.ping()
            h = bc.health()
            e = bc.explain(SMOKE_QUERIES[0])
        assert h.ok and h.rows
        assert e.ok and e.columns == ("plan",)

    def test_errors_carry_kind_over_binary(self, served):
        host, port, _ = served
        with Client(host, port, binary=True) as bc:
            r = bc.query("selcet nonsense")
            assert r.status == "error"
            assert r.error_kind
            # The connection survives the error.
            assert bc.query(SMOKE_QUERIES[0]).ok


class TestPrepared:
    TEMPLATE = ("select city from cities on us-map "
                "at loc covered-by {?, ?}")
    PARAMS = ("400+-150", "300+-150")
    PLAIN = ("select city from cities on us-map "
             "at loc covered-by {400+-150, 300+-150}")

    @pytest.mark.parametrize("binary", [False, True])
    def test_prepared_matches_plain(self, served, binary):
        host, port, _ = served
        with Client(host, port, binary=binary) as c:
            stmt = c.prepare(self.TEMPLATE)
            assert stmt.nparams == 2
            plain = c.query(self.PLAIN)
            executed = c.execute(stmt, self.PARAMS)
            assert executed.ok
            assert executed.rows == plain.rows
            again = c.execute(stmt, self.PARAMS)
            assert again.cached          # result cache keyed on params
            assert again.rows == executed.rows

    @pytest.mark.parametrize("binary", [False, True])
    def test_prepared_cross_protocol_rows_agree(self, served, binary):
        host, port, direct = served
        expected = [tuple(protocol.format_value(v) for v in row)
                    for row in direct.execute(self.PLAIN).rows]
        with Client(host, port, binary=binary) as c:
            stmt = c.prepare(self.TEMPLATE)
            assert c.execute(stmt, self.PARAMS).rows == expected

    @pytest.mark.parametrize("binary", [False, True])
    def test_arity_error(self, served, binary):
        host, port, _ = served
        with Client(host, port, binary=binary) as c:
            stmt = c.prepare(self.TEMPLATE)
            r = c.execute(stmt, ("just-one",))
            assert r.status == "error"
            assert "parameter" in r.error_message
            assert c.execute(stmt, self.PARAMS).ok     # still in sync

    @pytest.mark.parametrize("binary", [False, True])
    def test_unknown_statement(self, served, binary):
        host, port, _ = served
        with Client(host, port, binary=binary) as c:
            r = c.execute(999, ())
            assert r.status == "error"
            assert "unknown prepared statement" in r.error_message


class TestNonFiniteNumbers:
    """``1e400`` overflows to inf: refused with a framed error, never a
    window that returns every row (or none)."""

    @pytest.mark.parametrize("binary", [False, True])
    def test_query_text_refused(self, served, binary):
        host, port, _ = served
        with Client(host, port, binary=binary) as c:
            r = c.query("select city from cities on us-map "
                        "at loc covered-by {5+-1e400, 5+-1e400}")
            assert r.status == "error"
            assert r.error_kind == "PsqlSyntaxError"
            assert "out of range" in r.error_message
            assert c.ping()

    @pytest.mark.parametrize("binary", [False, True])
    def test_execute_parameter_refused(self, served, binary):
        host, port, _ = served
        with Client(host, port, binary=binary) as c:
            stmt = c.prepare(TestPrepared.TEMPLATE)
            r = c.execute(stmt, ("1e400+-1e400", "5+-1"))
            assert r.status == "error"
            assert r.error_kind == "PsqlSyntaxError"
            assert "out of range" in r.error_message
            assert c.execute(stmt, TestPrepared.PARAMS).ok


class TestFraming:
    def _negotiate_raw(self, host, port):
        sock = socket.create_connection((host, port), timeout=30.0)
        f = sock.makefile("rwb")
        f.write(b"HELLO bin\n")
        f.flush()
        while True:
            line = f.readline()
            assert line, "server closed during negotiation"
            if line.strip() == b"END":
                break
        return sock, f

    def _read_frame(self, f):
        prefix = f.read(4)
        assert len(prefix) == 4
        (length,) = struct.unpack("<I", prefix)
        body = f.read(length)
        assert len(body) == length
        return body

    def test_garbage_frame_then_recovery(self, served):
        host, port, direct = served
        sock, f = self._negotiate_raw(host, port)
        try:
            # A plausible length prefix over a garbage body: unknown
            # opcode, random bytes.  The server must answer a framed
            # error and keep the stream in sync.
            garbage = b"\xfe\xde\xad\xbe\xef\x00\x17"
            f.write(struct.pack("<I", len(garbage)) + garbage)
            f.flush()
            err = binproto.parse_response_body(self._read_frame(f))
            assert err.status == "error"
            assert err.error_kind == "ProtocolError"
            # The very next frame round-trips a real query.
            f.write(binproto.encode_query(SMOKE_QUERIES[0]))
            f.flush()
            ok = binproto.parse_response_body(self._read_frame(f))
            assert ok.ok
            expected = binproto.encode_result_body(
                direct.execute(SMOKE_QUERIES[0]))
            assert ok.payload == expected
        finally:
            f.close()
            sock.close()

    def test_truncated_execute_body_then_recovery(self, served):
        host, port, _ = served
        sock, f = self._negotiate_raw(host, port)
        try:
            # OP_EXECUTE promising a param it does not carry: the body
            # decode fails, the framing does not.
            bad = bytes([binproto.OP_EXECUTE]) + struct.pack("<IH", 1, 3)
            f.write(struct.pack("<I", len(bad)) + bad)
            f.flush()
            err = binproto.parse_response_body(self._read_frame(f))
            assert err.status == "error"
            f.write(binproto.encode_simple(binproto.OP_PING))
            f.flush()
            pong = binproto.parse_response_body(self._read_frame(f))
            assert pong.status == "pong"
        finally:
            f.close()
            sock.close()

    def test_implausible_length_closes(self, served):
        host, port, _ = served
        sock, f = self._negotiate_raw(host, port)
        try:
            f.write(struct.pack("<I", binproto.MAX_FRAME + 1))
            f.flush()
            err = binproto.parse_response_body(self._read_frame(f))
            assert err.status == "error"
            assert "implausible" in err.error_message
            # The server hangs up: the stream position is untrustable.
            assert f.read(1) == b""
        finally:
            f.close()
            sock.close()

    def test_hello_rejected_once_binary(self, served):
        host, port, _ = served
        with Client(host, port, binary=True) as c:
            r = c._roundtrip("HELLO bin")
            assert r.status == "error"
            assert "already negotiated" in r.error_message
            assert c.ping()
