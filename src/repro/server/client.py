"""Blocking TCP client for the PSQL query server.

Synchronous by design — benchmarks drive many of these from plain
threads, applications get the obvious call-and-response shape::

    from repro.server.client import Client

    with Client("127.0.0.1", 7751) as c:
        r = c.query("select city from cities on us-map "
                    "at loc covered-by {400+-150, 300+-150}")
        for row in r.rows:
            print(row)
        print(c.stats()["server.qps"])

``query()`` returns a :class:`~repro.server.protocol.Response`; callers
that prefer exceptions over status checks can chain
``.raise_for_status()``.

Pass ``binary=True`` to negotiate the length-prefixed binary protocol
(``HELLO bin``) at connect time — same :class:`Response` objects, same
cell strings, a fraction of the encode/decode cost.  A server that does
not know ``HELLO`` answers ``ERR`` and the client silently stays on the
text protocol (check :attr:`Client.binary` for the outcome).

Prepared statements work over both framings::

    stmt = c.prepare("select city from cities on us-map "
                     "at loc covered-by {?, ?}")
    r = c.execute(stmt, ("400+-150", "300+-150"))
"""

from __future__ import annotations

import socket
from types import TracebackType
from typing import Optional, Sequence, Union

from repro.server import binproto, protocol
from repro.server.protocol import ProtocolError, Response

__all__ = ["Client", "ClientStatement"]

#: What ends every text response: a frame that is exactly ``END``.
#: Newlines inside cells travel escaped, so the first match is the end.
TEXT_END = b"\n" + protocol.END.encode("ascii") + b"\n"

#: Binary request frames, from a text line's argument, for the verbs
#: with an opcode of their own; the others travel as ``OP_COMMAND``.
_OPCODE_FRAMES = {
    "QUERY": binproto.encode_query,
    "PREPARE": binproto.encode_prepare,
    "STATS": lambda _rest: binproto.encode_simple(binproto.OP_STATS),
    "PING": lambda _rest: binproto.encode_simple(binproto.OP_PING),
    "QUIT": lambda _rest: binproto.encode_simple(binproto.OP_QUIT),
}


class ClientStatement:
    """A server-side prepared statement, as the client sees it."""

    __slots__ = ("statement_id", "text", "nparams", "_frames")

    def __init__(self, statement_id: int, text: str, nparams: int):
        self.statement_id = statement_id
        self.text = text
        self.nparams = nparams
        #: memoized request frames per params tuple (binary mode) — a
        #: hot loop re-executing the same binding sends cached bytes
        self._frames: dict = {}

    def _frame(self, params: tuple) -> bytes:
        frame = self._frames.get(params)
        if frame is None:
            frame = binproto.encode_execute(self.statement_id, params)
            if len(self._frames) < 64:
                self._frames[params] = frame
        return frame


class Client:
    """One blocking connection to a :class:`~repro.server.server.PsqlServer`.

    Args:
        host, port: where the server listens.
        timeout: socket timeout in seconds for connect and reads
            (``None`` blocks indefinitely).  Note this is the *client's*
            patience; the server applies its own per-query timeout and
            answers with a ``TIMEOUT`` frame.
        binary: negotiate the binary protocol at connect time.  Falls
            back to text (without error) when the server predates
            ``HELLO``.
    """

    def __init__(self, host: str = "127.0.0.1",
                 port: int = protocol.DEFAULT_PORT,
                 timeout: Optional[float] = 30.0,
                 binary: bool = False):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        #: bytes received but not yet consumed (both framings)
        self._inbuf = bytearray()
        #: True once the binary protocol is live on this connection.
        self.binary = False
        if binary:
            # An ERR means a pre-HELLO server: keep talking text.
            self.binary = self._roundtrip("HELLO bin").ok

    # -- commands -----------------------------------------------------------

    def query(self, text: str) -> Response:
        """Execute one PSQL query.

        The text wire protocol is line-based, so embedded newlines in
        *text* are replaced with spaces — whitespace is insignificant
        to PSQL.
        """
        return self._roundtrip("QUERY " + " ".join(text.splitlines()))

    def explain(self, text: str, analyze: bool = False) -> Response:
        """Fetch the query plan (``EXPLAIN``) as a one-column result.

        With ``analyze=True`` the server also executes the query and
        annotates every plan node with actual row counts and index-node
        accesses.  Each response row is one plan line.
        """
        one_line = " ".join(text.splitlines())
        prefix = "ANALYZE " if analyze else ""
        return self._roundtrip(f"EXPLAIN {prefix}{one_line}")

    def prepare(self, template: str) -> ClientStatement:
        """Prepare a ``?``-placeholder query template (``PREPARE``).

        Returns a :class:`ClientStatement` handle for :meth:`execute`.

        Raises:
            ServerError: when the server rejects the template.
        """
        one_line = " ".join(template.splitlines())
        response = self._roundtrip(f"PREPARE {one_line}").raise_for_status()
        # Text acks carry the id in the count field; the placeholder
        # count is recomputed locally (the splitter is shared code).
        nparams = int(response.stats.get("statement.nparams", -1))
        if nparams < 0:
            from repro.psql.prepare import count_placeholders
            nparams = count_placeholders(one_line)
        return ClientStatement(response.nrows, one_line, nparams)

    def execute(self, statement: Union[ClientStatement, int],
                params: Sequence[str] = ()) -> Response:
        """Execute a prepared statement with *params* (``EXECUTE``)."""
        params = tuple(params)
        if not isinstance(statement, ClientStatement):
            statement = ClientStatement(int(statement), "", len(params))
        if self.binary:
            return self._exchange(statement._frame(params))
        command = f"EXECUTE {statement.statement_id}"
        if params:
            command += " " + "\t".join(protocol.escape(p) for p in params)
        return self._roundtrip(command)

    def repack(self, picture: str, relation: str,
               column: str = "loc") -> Response:
        """Ask the server for an offline index rebuild (``REPACK``).

        On success ``response.generation`` is the post-rebuild data
        generation and ``response.nrows`` the rebuilt index's entry
        count.  Blocks until the rebuild (and its atomic swap) is done.
        """
        return self._roundtrip(f"REPACK {picture} {relation} {column}")

    def maintain(self, action: str = "status") -> Response:
        """Control or inspect the background repack daemon (``MAINTAIN``).

        ``on``/``off`` toggle the daemon and return an ack whose
        ``nrows`` is the resulting enabled state; ``status`` and ``run``
        (one synchronous maintenance cycle) return one report line per
        response row.
        """
        return self._roundtrip(f"MAINTAIN {action}")

    def advise(self, top: Optional[int] = None) -> Response:
        """Workload analysis and tuning recommendations (``ADVISE``).

        Each response row is one report line: the TOP captured queries
        by accumulated estimated cost, then ranked ``CREATE INDEX`` /
        ``REPACK`` recommendations with predicted workload-cost deltas.
        *top* bounds how many fingerprints are analysed (server default
        when omitted).
        """
        return self._roundtrip("ADVISE" if top is None else f"ADVISE {top}")

    def health(self) -> Response:
        """Graded OK/WARN/FAIL health checks (``HEALTH``).

        Each response row is one report line; the first summarises the
        worst status.
        """
        return self._roundtrip("HEALTH")

    def stats(self) -> dict[str, float]:
        """The server's metrics snapshot (the ``STATS`` command)."""
        return self._roundtrip("STATS").stats

    def ping(self) -> bool:
        """Liveness check; True when the server answers ``PONG``."""
        return self._roundtrip("PING").status == "pong"

    def close(self) -> None:
        """Say QUIT (best effort) and close the socket (idempotent)."""
        if self._sock is None:
            return
        try:
            self._roundtrip("QUIT")
        except (OSError, ProtocolError):
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None  # type: ignore[assignment]

    # -- plumbing -----------------------------------------------------------

    def _roundtrip(self, line: str) -> Response:
        """One text-protocol command line, sent in this connection's
        codec: as itself, or as its verb's binary frame."""
        if not self.binary:
            return self._exchange(line.encode("utf-8") + b"\n")
        verb, _, rest = line.partition(" ")
        encode = _OPCODE_FRAMES.get(verb)
        return self._exchange(encode(rest) if encode is not None
                              else binproto.encode_command(line))

    def _exchange(self, request: bytes) -> Response:
        """The one send path: write one encoded request, then read its
        reply in this connection's codec."""
        if self._sock is None:
            raise ProtocolError("client is closed")
        self._sock.sendall(request)
        if self.binary:
            return self._read_binary_response()
        return self._read_text_response()

    def _receive(self, closed: str) -> None:
        """Append whatever the socket has to the input buffer."""
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ProtocolError(closed)
        self._inbuf += chunk

    def _read_text_response(self) -> Response:
        """Read up to the ``END`` frame, then decode and split once."""
        buf = self._inbuf
        searched = 0
        while (end := buf.find(TEXT_END, searched)) < 0:
            searched = max(len(buf) - len(TEXT_END) + 1, 0)
            self._receive("connection closed mid-response" if buf
                          else "connection closed by server")
        end += len(TEXT_END)
        raw = bytes(buf[:end])
        del buf[:end]
        # Only "\n" separates frames (str.splitlines() would also split
        # on \x0b, \x85, \u2028 ... which cells carry unescaped).
        return protocol.parse_response(
            raw[:-1].decode("utf-8").split("\n"),
            payload=raw[raw.index(b"\n") + 1:])

    def _read_exactly(self, n: int) -> bytes:
        buf = self._inbuf
        while len(buf) < n:
            self._receive("connection closed mid-frame")
        data = bytes(buf[:n])
        del buf[:n]
        return data

    def _read_binary_response(self) -> Response:
        prefix = self._read_exactly(4)
        length = int.from_bytes(prefix, "little")
        if length == 0 or length > binproto.MAX_FRAME:
            raise ProtocolError(f"implausible frame length {length}")
        return binproto.parse_response_body(self._read_exactly(length))

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type: Optional[type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.close()
