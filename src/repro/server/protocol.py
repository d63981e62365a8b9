"""Wire protocol for the PSQL query server.

A deliberately simple, debuggable **line protocol** (UTF-8, ``\\n``
terminated) in the tradition of redis' inline commands and memcached's
text protocol — you can drive the server with ``nc`` and read every
frame.  Requests are single lines::

    QUERY select city from cities on us-map at loc covered-by {4+-4, 11+-9}
    EXPLAIN ANALYZE select city from cities where population > 1000000
    REPACK us-map cities loc
    STATS
    PING
    QUIT

``EXPLAIN [ANALYZE] <query>`` rides the QUERY pipeline end to end: the
plan comes back as an ordinary result with a single ``plan`` column,
one row per plan line, and is cached under the same
``(normalized text, generation)`` key as query results.

Responses are sequences of frames terminated by an ``END`` line.  For a
successful query::

    OK fresh 0 12        <- status, cache disposition, generation, rows
    COLS city
    ROW Boston
    ...
    END

Failure frames (``ERR``, ``BUSY``, ``TIMEOUT``) are likewise
``END``-terminated, so a client always reads until ``END`` and a bad
query never desynchronises the connection.

Row payloads embed tabs and newlines via backslash escapes
(:func:`escape` / :func:`unescape`); fields within ``COLS``/``ROW``
frames are tab-separated.  :func:`encode_result` is the **single**
rendering of a :class:`~repro.psql.result.QueryResult` into payload
lines — both the server and any test that wants to compare server
output against a direct in-process execution must call it, which is
what makes "byte-identical to ``executor.execute``" checkable at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.psql.result import QueryResult

#: Default TCP port ("PSQL" on a phone keypad is 7775; we keep it short).
DEFAULT_PORT = 7751

# Frame tags.
OK = "OK"
COLS = "COLS"
ROW = "ROW"
STAT = "STAT"
ERR = "ERR"
BUSY = "BUSY"
TIMEOUT = "TIMEOUT"
PONG = "PONG"
BYE = "BYE"
END = "END"

#: Terminal tags a client may see instead of a normal OK response.
_TERMINAL = frozenset({ERR, BUSY, TIMEOUT})


def escape(text: str) -> str:
    """Make *text* safe for a single tab-separated protocol field."""
    return (text.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n").replace("\r", "\\r"))


#: The only escape pairs :func:`escape` emits; :func:`unescape` accepts
#: nothing else.
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def unescape(text: str) -> str:
    """Invert :func:`escape`.

    Strict by design: a lone trailing backslash or an unknown escape
    pair (``\\x``) can only come from a corrupted or non-conforming
    frame, and silently passing it through as a literal would let the
    corruption masquerade as data.

    Raises:
        ProtocolError: on a malformed escape sequence.
    """
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\":
            if i + 1 >= n:
                raise ProtocolError(
                    f"truncated escape at end of field {text!r}")
            nxt = text[i + 1]
            try:
                out.append(_UNESCAPES[nxt])
            except KeyError:
                pair = "\\" + nxt
                raise ProtocolError(
                    f"unknown escape sequence {pair!r} in field "
                    f"{text!r}") from None
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def format_value(value: Any) -> str:
    """Deterministic text rendering of one result cell.

    Strings travel as themselves; every other domain value (ints,
    floats, geometry objects) travels as its ``repr``, which is stable
    for all the types PSQL can return.  The client does not re-parse
    values — rows come back as strings, which is exactly what the
    byte-identity guarantee is stated over.
    """
    if isinstance(value, str):
        return value
    return repr(value)


def _plain(text: str, newlines: int, tabs: int) -> bool:
    """True when *text* holds nothing :func:`escape` would rewrite beyond
    the *newlines* and *tabs* its caller joined it with."""
    return ("\\" not in text and "\r" not in text
            and text.count("\n") == newlines and text.count("\t") == tabs)


def encode_result(result: QueryResult) -> list[str]:
    """Render a query result as payload lines (``COLS``/``ROW``*/``END``).

    This is the canonical serialisation: the server streams these lines
    verbatim (and caches them verbatim), so comparing a client's payload
    against ``encode_result(session.execute(text))`` is a byte-level
    equivalence check.

    Cells are formatted a column at a time and each row is joined once,
    unescaped.  Counting separators over the whole body then proves in
    four scans that no cell needed :func:`escape` (the usual case); when
    the proof fails, only the rows that break it are rendered cell by
    cell.
    """
    lines = [COLS + " " + "\t".join(escape(c) for c in result.columns)]
    rows = result.rows
    if rows:
        # format_value, inlined: this is the per-cell loop.
        cells = [[v if isinstance(v, str) else repr(v) for v in column]
                 for column in zip(*rows, strict=True)]
        tabs = max(len(cells) - 1, 0)
        # (zero-width rows leave zip() nothing to transpose)
        texts = (list(map("\t".join, zip(*cells))) if cells
                 else [""] * len(rows))
        if not _plain("\n".join(texts), len(texts) - 1, len(texts) * tabs):
            texts = [text if _plain(text, 0, tabs)
                     else "\t".join(map(escape, row))
                     for text, row in zip(texts, zip(*cells))]
        lines += [ROW + " " + text for text in texts]
    lines.append(END)
    return lines


def split_fields(payload: str) -> list[str]:
    """Unescaped fields of one ``COLS``/``ROW`` frame body."""
    if payload == "":
        return []
    fields = payload.split("\t")
    if "\\" in payload:
        fields = [unescape(f) for f in fields]
    return fields


def decode_result(lines: Sequence[str],
                  ) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """Invert :func:`encode_result`: ``(columns, rows)`` of payload lines.

    A bare ``END`` (an acknowledgement's body) decodes to no columns and
    no rows.  ``ROW`` frames are split by the arity ``COLS`` announced,
    so a one-column row holding the empty string comes back as ``('',)``
    exactly as the binary codec returns it.

    Raises:
        ProtocolError: on a missing ``END``, a foreign frame, a frame
            out of order, a malformed escape or a row of the wrong
            arity.
    """
    if not lines or lines[-1] != END:
        raise ProtocolError("OK response not END-terminated")
    if len(lines) == 1:
        return (), []
    tag, _, payload = lines[0].partition(" ")
    if tag != COLS:
        raise ProtocolError(
            f"expected a COLS frame, found {lines[0]!r} in OK body")
    columns = tuple(split_fields(payload))
    arity = len(columns)
    rows: list[tuple[str, ...]] = []
    for line in lines[1:-1]:
        tag, _, payload = line.partition(" ")
        if tag != ROW:
            raise ProtocolError(f"unexpected frame {line!r} in OK body")
        # "".split() is one empty field: right for every arity but 0.
        fields = payload.split("\t") if payload or arity else []
        if len(fields) != arity:
            raise ProtocolError(
                f"ROW frame {line!r} has {len(fields)} field(s), "
                f"COLS announced {arity}")
        if "\\" in payload:
            fields = [unescape(f) for f in fields]
        rows.append(tuple(fields))
    return columns, rows


@dataclass
class Response:
    """One parsed server response, as the blocking client returns it."""

    status: str                      #: "ok", "error", "busy", "timeout",
                                     #: "pong" or "bye"
    cached: bool = False             #: served from the result cache?
    generation: int = -1             #: database generation that produced it
    #: header row/entry count: result rows for a query, index entries
    #: for a ``REPACK`` acknowledgement (whose body is just ``END``)
    nrows: int = 0
    columns: tuple[str, ...] = ()
    rows: list[tuple[str, ...]] = field(default_factory=list)
    #: raw COLS/ROW/END payload bytes, byte-identical to
    #: ``"\n".join(encode_result(...)) + "\n"`` for OK responses
    payload: bytes = b""
    error_kind: str = ""
    error_message: str = ""
    #: STAT name/value pairs; integer-rendered counters parse back to
    #: ``int``, everything else to ``float``
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def raise_for_status(self) -> "Response":
        """Return self, raising :class:`ServerError` on failure frames."""
        if self.status == "error":
            raise ServerError(f"{self.error_kind}: {self.error_message}")
        if self.status == "busy":
            raise ServerBusyError(self.error_message or "server busy")
        if self.status == "timeout":
            raise ServerTimeoutError(self.error_message or "query timed out")
        return self


class ServerError(Exception):
    """The server answered with an ``ERR`` frame."""


class ServerBusyError(ServerError):
    """The admission gate shed this query (``BUSY`` frame)."""


class ServerTimeoutError(ServerError):
    """The query exceeded the per-query timeout (``TIMEOUT`` frame)."""


class ProtocolError(Exception):
    """The byte stream violated the framing rules."""


def parse_response(lines: list[str],
                   payload: Optional[bytes] = None) -> Response:
    """Parse the frames of one response (without trailing newlines).

    *payload* is the bytes the frames after the header arrived as, for
    a caller that still holds them; :attr:`Response.payload` is encoded
    from *lines* otherwise.

    Raises:
        ProtocolError: on malformed frames.
    """
    if not lines:
        raise ProtocolError("empty response")
    head = lines[0]
    tag, _, rest = head.partition(" ")
    if tag == OK and rest.startswith("stats"):
        return _parse_stats(lines)
    if tag == OK:
        return _parse_ok(rest, lines, payload)
    if tag == ERR:
        kind, _, message = rest.partition(" ")
        return Response(status="error", error_kind=kind or "Error",
                        error_message=unescape(message))
    if tag == BUSY:
        return Response(status="busy", error_message=unescape(rest))
    if tag == TIMEOUT:
        return Response(status="timeout", error_message=unescape(rest))
    if tag == PONG:
        return Response(status="pong")
    if tag == BYE:
        return Response(status="bye")
    raise ProtocolError(f"unknown response frame {head!r}")


def _parse_ok(rest: str, lines: list[str],
              payload: Optional[bytes]) -> Response:
    parts = rest.split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed OK header {rest!r}")
    disposition, gen_text, nrows_text = parts
    # "cached"/"fresh" mark query results by cache disposition; the
    # acknowledgement dispositions name the verb they answer (REPACK,
    # HELLO/PREPARE negotiation, and the cluster tier's INSERT/DELETE
    # routing verbs).
    if disposition not in ("cached", "fresh", "repack", "maintain",
                           "insert", "delete", "replay", "hello",
                           "prepare"):
        raise ProtocolError(f"unknown cache disposition {disposition!r}")
    try:
        nrows = int(nrows_text)
    except ValueError as exc:
        raise ProtocolError(f"malformed OK header {rest!r}") from exc
    response = Response(status="ok", cached=(disposition == "cached"),
                        generation=int(gen_text), nrows=nrows)
    body = lines[1:]
    response.columns, response.rows = decode_result(body)
    response.payload = (payload if payload is not None
                        else ("\n".join(body) + "\n").encode("utf-8"))
    return response


def _parse_stats(lines: list[str]) -> Response:
    response = Response(status="ok")
    if lines[-1] != END:
        raise ProtocolError("STATS response not END-terminated")
    for line in lines[1:-1]:
        tag, _, payload = line.partition(" ")
        if tag != STAT:
            raise ProtocolError(f"unexpected frame {line!r} in STATS body")
        name, _, value = payload.partition(" ")
        # Integer-valued counters stay integral through a round trip:
        # the server renders ints via str() and floats via repr(), so
        # the rendering itself tells us which type to restore.
        try:
            response.stats[unescape(name)] = int(value)
        except ValueError:
            try:
                response.stats[unescape(name)] = float(value)
            except ValueError as exc:
                raise ProtocolError(f"bad STAT value in {line!r}") from exc
    generation = response.stats.get("server.generation")
    if generation is not None:
        response.generation = int(generation)
    return response


def encode_stats(stats: dict[str, float],
                 generation: Optional[int] = None) -> list[str]:
    """Render a stats mapping as ``OK stats`` + ``STAT`` frames."""
    lines = [OK + " stats"]
    if generation is not None:
        lines.append(f"{STAT} server.generation {generation}")
    for name in sorted(stats):
        value = stats[name]
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{STAT} {escape(name)} {rendered}")
    lines.append(END)
    return lines
