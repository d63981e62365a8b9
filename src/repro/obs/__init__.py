"""repro.obs — unified observability: counters, timers, trace events.

Every paper metric is ultimately an *observability* claim — Table 1's
"average nodes visited per query" (A), the buffer experiments' hit
rates, PSQL's access-path decisions.  This package gives the whole
library one lightweight substrate for those numbers instead of ad-hoc
per-module counters:

- **Counters** — hierarchical dotted names (``rtree.search.nodes_visited``,
  ``storage.buffer.hits``) accumulated in a plain dict.
- **Timers** — wall-clock accumulation per name, used as context managers.
- **Trace events** — an optional fixed-capacity ring buffer of structured
  ``(seq, name, fields)`` records for after-the-fact inspection.

All three live in a :class:`Registry`.  A process-global default registry
always exists; :func:`scope` pushes an injectable per-query registry that
(optionally) forwards everything to its parent, so a single query can be
measured in isolation while global totals keep accumulating — this is how
the PSQL REPL's ``EXPLAIN STATS`` works.

Cost discipline: instrumented call sites guard on the module-level
:data:`ENABLED` flag (read it as ``obs.ENABLED``, never ``from repro.obs
import ENABLED`` — the latter snapshots the value).  With the flag off the
entire subsystem reduces to one local boolean test per query and records
nothing; ``benchmarks/bench_obs_overhead.py`` keeps that overhead under
10% of search throughput.

Typical use::

    from repro import obs

    obs.enable()
    tree.search(window)
    print(obs.report(prefix="rtree"))

    with obs.scope(enable=True) as reg:     # one query, isolated
        tree.search(window)
    print(reg.counters.get("rtree.search.nodes_visited"))

The scope stack is **thread-local**: every thread sees the process-global
default registry at the bottom of its own stack, and a scope pushed in
one thread is invisible to every other.  This is what lets a server
worker thread run each query under ``scope(forward=False, enable=True)``
without interleaving its counters with concurrently executing queries
(see :mod:`repro.server`).  The :data:`ENABLED` flag itself stays
process-global — long-running concurrent workloads should enable it once
for their lifetime rather than toggling it per query from many threads.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

__all__ = [
    "ENABLED",
    "Counters",
    "Registry",
    "TimerStat",
    "TraceBuffer",
    "TraceEvent",
    "active",
    "bump",
    "default_registry",
    "disable",
    "enable",
    "get",
    "is_enabled",
    "report",
    "reset",
    "scope",
    "snapshot",
    "timer",
    "trace",
]

#: Module-level fast-path flag.  Hot paths read this once per query; when
#: it is False no counter, timer or trace event is recorded anywhere.
ENABLED = False


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


class Counters:
    """A bag of named integer counters with hierarchical dotted names.

    Deliberately dependency-free and always usable on its own: a
    component that must count unconditionally can hold a private
    ``Counters`` regardless of the global enable flag.

    Thread-safe: every public method takes the internal lock exactly once,
    so :meth:`snapshot` / :meth:`as_dict` return a consistent copy even
    while other threads are bumping — the same single-acquisition
    discipline as :meth:`repro.server.cache.QueryCache.stats`.  Without it
    a ``dict()`` copy racing a first-time bump (dict resize) can raise
    ``RuntimeError: dictionary changed size during iteration`` under a
    concurrent HEALTH read.
    """

    __slots__ = ("_values", "_lock")

    def __init__(self) -> None:
        self._values: dict[str, int | float] = {}
        self._lock = threading.Lock()

    def bump(self, name: str, n: int | float = 1) -> None:
        """Add *n* (default 1) to counter *name*, creating it at zero."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + n

    def get(self, name: str, default: int | float = 0) -> int | float:
        """Current value of *name* (*default* when never bumped)."""
        with self._lock:
            return self._values.get(name, default)

    def set(self, name: str, value: int | float) -> None:
        """Overwrite counter *name* (used by stats facades, not hot paths)."""
        with self._lock:
            self._values[name] = value

    def merge(self, values: dict[str, int | float]) -> None:
        """Add every counter in *values* onto this bag atomically.

        The export/import path for cross-thread (or cross-process) metric
        aggregation: a worker snapshots its scoped registry with
        :meth:`as_dict` and a single owner thread merges the snapshots.
        A reader never observes a half-applied merge.
        """
        with self._lock:
            for name, value in values.items():
                self._values[name] = self._values.get(name, 0) + value

    def _as_dict_locked(self,
                        prefix: Optional[str]) -> dict[str, int | float]:
        # Caller holds self._lock.
        if prefix is None:
            return dict(self._values)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {k: v for k, v in self._values.items()
                if k == prefix or k.startswith(dotted)}

    def as_dict(self, prefix: Optional[str] = None) -> dict[str, int | float]:
        """A copy of all counters, optionally restricted to a dotted prefix."""
        with self._lock:
            return self._as_dict_locked(prefix)

    #: Alias matching :meth:`Registry.snapshot` — an atomic point-in-time
    #: copy taken under a single lock acquisition.
    snapshot = as_dict

    def reset(self, prefix: Optional[str] = None) -> None:
        """Drop all counters (or only those under a dotted prefix)."""
        with self._lock:
            if prefix is None:
                self._values.clear()
                return
            for k in list(self._as_dict_locked(prefix)):
                del self._values[k]

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._values))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counters({self._values!r})"


# ---------------------------------------------------------------------------
# Timers
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TimerStat:
    """Accumulated wall-clock time for one named timer."""

    count: int = 0
    total: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _Timer:
    """Context manager recording one timed interval into a registry."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "Registry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._registry.record_time(self._name,
                                   time.perf_counter() - self._start)


class _NullTimer:
    """Do-nothing timer returned while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


# ---------------------------------------------------------------------------
# Trace events
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record."""

    seq: int
    name: str
    fields: dict[str, Any]


class TraceBuffer:
    """Fixed-capacity ring buffer of trace events (oldest dropped first)."""

    __slots__ = ("_events", "_seq", "capacity")

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("trace buffer capacity must be positive")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0

    def record(self, name: str, **fields: Any) -> None:
        self._seq += 1
        self._events.append(TraceEvent(seq=self._seq, name=name,
                                       fields=fields))

    def events(self) -> list[TraceEvent]:
        """All buffered events, oldest first."""
        return list(self._events)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (>= len(events()) once wrapped)."""
        return self._seq

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class Registry:
    """Counters + timers + trace buffer, with optional parent forwarding.

    A registry created with a *parent* forwards every record to it, so a
    per-query scope sees only its own query while enclosing registries
    (ultimately the process-global default) keep cumulative totals.
    """

    __slots__ = ("counters", "timers", "trace_buffer", "parent")

    def __init__(self, parent: Optional["Registry"] = None,
                 trace_capacity: int = 1024):
        self.counters = Counters()
        self.timers: dict[str, TimerStat] = {}
        self.trace_buffer = TraceBuffer(capacity=trace_capacity)
        self.parent = parent

    # -- recording ---------------------------------------------------------

    def bump(self, name: str, n: int | float = 1) -> None:
        reg: Optional[Registry] = self
        while reg is not None:
            reg.counters.bump(name, n)
            reg = reg.parent

    def record_time(self, name: str, seconds: float) -> None:
        reg: Optional[Registry] = self
        while reg is not None:
            stat = reg.timers.get(name)
            if stat is None:
                stat = reg.timers[name] = TimerStat()
            stat.count += 1
            stat.total += seconds
            reg = reg.parent

    def timer(self, name: str) -> _Timer:
        return _Timer(self, name)

    def trace(self, name: str, **fields: Any) -> None:
        reg: Optional[Registry] = self
        while reg is not None:
            reg.trace_buffer.record(name, **fields)
            reg = reg.parent

    # -- inspection ---------------------------------------------------------

    def snapshot(self, prefix: Optional[str] = None) -> dict[str, int | float]:
        return self.counters.as_dict(prefix)

    def reset(self) -> None:
        """Clear this registry's counters, timers and trace buffer.

        Does not touch the parent chain: a scoped reset must not erase
        global totals.
        """
        self.counters.reset()
        self.timers.clear()
        self.trace_buffer.clear()

    def report(self, prefix: Optional[str] = None,
               trace_tail: int = 0) -> str:
        """Human-readable stats listing (the ``EXPLAIN STATS`` payload).

        Args:
            prefix: restrict counters to one dotted subtree.
            trace_tail: include the last N trace events (0 = none).
        """
        from repro.obs.reportfmt import format_report
        return format_report(self, prefix=prefix, trace_tail=trace_tail)


# ---------------------------------------------------------------------------
# Global default registry and the active-scope stack
# ---------------------------------------------------------------------------

_default = Registry()


class _ScopeStack(threading.local):
    """Per-thread registry stack, bottoming out at the global default."""

    def __init__(self) -> None:
        self.regs: list[Registry] = [_default]


_tls = _ScopeStack()


def default_registry() -> Registry:
    """The process-global registry (bottom of every thread's stack)."""
    return _default


def active() -> Registry:
    """The registry currently receiving records in **this thread**."""
    return _tls.regs[-1]


@contextmanager
def scope(forward: bool = True, enable: bool = False,
          trace_capacity: int = 1024) -> Iterator[Registry]:
    """Push a fresh registry for the duration of a ``with`` block.

    Args:
        forward: when True (default) records also propagate to the
            enclosing registry chain, so global totals keep accumulating.
        enable: temporarily force :data:`ENABLED` on inside the block —
            how a single query is measured without globally enabling
            instrumentation (``EXPLAIN STATS`` does exactly this).
        trace_capacity: ring-buffer size for the scoped registry.

    Yields:
        The scoped :class:`Registry`; read its counters after the block.

    The scope affects only the calling thread's stack.  ``enable`` still
    toggles the process-global :data:`ENABLED` flag, so concurrent
    threads should not race ``enable=True`` scopes against each other —
    enable instrumentation once for the workload instead (the query
    server does exactly this).
    """
    global ENABLED
    stack = _tls.regs
    reg = Registry(parent=stack[-1] if forward else None,
                   trace_capacity=trace_capacity)
    stack.append(reg)
    previous = ENABLED
    if enable:
        ENABLED = True
    try:
        yield reg
    finally:
        ENABLED = previous
        stack.pop()


# ---------------------------------------------------------------------------
# Module-level conveniences (all no-ops while disabled)
# ---------------------------------------------------------------------------


def enable() -> None:
    """Turn instrumentation on process-wide."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn instrumentation off process-wide."""
    global ENABLED
    ENABLED = False


def is_enabled() -> bool:
    return ENABLED


def bump(name: str, n: int | float = 1) -> None:
    """Bump a counter on the active registry (no-op while disabled)."""
    if ENABLED:
        _tls.regs[-1].bump(name, n)


def get(name: str, default: int | float = 0) -> int | float:
    """Read a counter from the active registry."""
    return _tls.regs[-1].counters.get(name, default)


def timer(name: str) -> _Timer | _NullTimer:
    """A wall-clock timer context manager (null object while disabled)."""
    if ENABLED:
        return _tls.regs[-1].timer(name)
    return _NULL_TIMER


def trace(name: str, **fields: Any) -> None:
    """Record a structured trace event (no-op while disabled)."""
    if ENABLED:
        _tls.regs[-1].trace(name, **fields)


def snapshot(prefix: Optional[str] = None) -> dict[str, int | float]:
    """Counters of the active registry (optionally one dotted subtree)."""
    return _tls.regs[-1].snapshot(prefix)


def reset() -> None:
    """Clear the active registry (scoped resets leave global totals alone)."""
    _tls.regs[-1].reset()


def report(prefix: Optional[str] = None, trace_tail: int = 0) -> str:
    """Formatted stats listing for the active registry."""
    return _tls.regs[-1].report(prefix=prefix, trace_tail=trace_tail)
