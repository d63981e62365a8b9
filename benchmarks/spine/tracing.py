"""In-memory span recording, installed from outside the program.

The spine measures every layer without touching ``src/``: the traced
pass wraps public methods of the instances the benchmark itself
constructed (``tree.search``, ``tree.pool.get``, ``session.plan`` ...)
and brackets its own calls into each layer with :meth:`Tracer.span`.
A span is ``(name, start, end, parent, op)``; *parent* is the index of
the span that caused it (-1 for a root) and *op* the id of the
benchmark op it belongs to.  Spans stay in memory until the run ends.

Single-threaded by design: the traced pass replays ops on one thread,
so one stack is enough to know each span's parent.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Optional

Span = tuple[str, float, float, int, int]

#: Name of the root span the runner opens around every op.
ROOT = "op"


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._index = self._tracer._open()

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._index, self._name)


class Tracer:
    """Records spans; wraps and later restores instance attributes."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.op = -1
        self._stack: list[int] = []
        self._starts: list[float] = []
        self._installed: list[tuple[Any, str, bool, Any]] = []

    # -- recording ----------------------------------------------------------

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._starts.append(time.perf_counter())
        return index

    def _close(self, index: int, name: str) -> None:
        end = time.perf_counter()
        start = self._starts.pop()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.op)

    def span(self, name: str) -> _SpanContext:
        """``with tracer.span("psql.parse"): ...`` around a direct call."""
        return _SpanContext(self, name)

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Replace ``obj.attr`` with a span-recording wrapper.

        Works on instances (the wrapper shadows the class's method) and
        on modules (for functions a layer imported by name).  Undone by
        :meth:`unwrap_all`.
        """
        inner: Callable[..., Any] = getattr(obj, attr)
        had_own = attr in vars(obj)
        open_, close = self._open, self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_()
            try:
                return inner(*args, **kwargs)
            finally:
                close(index, name)

        setattr(obj, attr, traced)
        self._installed.append((obj, attr, had_own, inner))

    def unwrap_all(self) -> None:
        while self._installed:
            obj, attr, had_own, inner = self._installed.pop()
            if had_own:
                setattr(obj, attr, inner)
            else:
                delattr(obj, attr)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: ``(calls, self seconds)``.

        Self time is a span's duration minus the part of it its direct
        children cover, so the values sum to the total root time.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            assert span is not None, "span still open"
            _name, start, end, parent, _op = span
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for index, span in enumerate(self.spans):
            name, start, end = span[0], span[1], span[2]
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - covered[index])
        return out

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def split_by_child(self, name: str,
                       child: str) -> tuple[list[float], list[float]]:
        """Durations of the *name* spans with and without a direct
        *child* span — a buffer ``get`` that caused a ``read_page`` is
        a miss, one that did not is a hit."""
        parents = {s[3] for s in self.spans if s[0] == child}
        with_child: list[float] = []
        without: list[float] = []
        for index, span in enumerate(self.spans):
            if span[0] == name:
                (with_child if index in parents else without).append(
                    span[2] - span[1])
        return with_child, without

    def dump(self, path: str, workload: str) -> None:
        """Write the spans as JSON; times become seconds since the
        first span so the file does not depend on the clock's epoch."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "workload": workload,
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [[n, round(s - origin, 9), round(e - origin, 9),
                           p, o] for n, s, e, p, o in self.spans],
            }, f, separators=(",", ":"))
