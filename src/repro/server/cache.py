"""LRU result cache for the query server.

The paper's premise is a *static, packed* database: queries vastly
outnumber updates, so identical queries recur and their encoded results
can be replayed without touching the tree at all.  Entries are keyed on
``(normalized query text, database generation)``; because every
insert/delete/repack bumps the generation
(:attr:`repro.relational.catalog.Database.generation`), a stale entry
can never be *served* — it simply stops being addressable and ages out
of the LRU.

The cache stores **encoded renderings** (see
:func:`repro.server.protocol.encode_result` and
:func:`repro.server.binproto.encode_result_body`), not live
``QueryResult`` objects: replaying a hit is a straight write of
immutable strings or bytes, safe to share between connections and
threads.  An entry starts with the one rendering its producer's
connection spoke; the other is derived from it the first time a
connection of the other codec hits the entry, and kept.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.psql.result import QueryResult
from repro.server import binproto, protocol

__all__ = ["CachedResult", "QueryCache"]


class CachedResult:
    """One cached, encoded query result.

    ``payload`` holds the text-protocol lines, ``bbody`` the binary
    result body; whichever the producer did not render is empty until
    :meth:`text` or :meth:`binary` derives it from the other.  Both
    codecs carry the same cell strings, so a derived rendering is
    byte-identical to one rendered from the ``QueryResult`` itself.
    """

    __slots__ = ("payload", "nrows", "generation", "bbody")

    def __init__(self, payload: tuple[str, ...], nrows: int,
                 generation: int, bbody: bytes = b""):
        self.payload = payload
        self.nrows = nrows
        self.generation = generation
        self.bbody = bbody

    def text(self) -> tuple[str, ...]:
        """The ``COLS``/``ROW``*/``END`` lines."""
        if not self.payload:
            self.payload = tuple(protocol.encode_result(QueryResult(
                *binproto.decode_result_body(self.bbody))))
        return self.payload

    def binary(self) -> bytes:
        """The binary result body."""
        if not self.bbody:
            self.bbody = binproto.encode_result_body(QueryResult(
                *protocol.decode_result(self.payload)))
        return self.bbody


class QueryCache:
    """A bounded LRU of encoded query results, generation-checked.

    Args:
        capacity: maximum number of cached results.  ``0`` disables the
            cache entirely (every lookup misses, every store is a no-op)
            — the throughput benchmark uses this to measure raw query
            execution.

    Thread-safe: the server consults it from the event-loop thread, but
    nothing stops tests or embedding applications from sharing one
    across threads.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self._entries: OrderedDict[tuple[str, int], CachedResult] = \
            OrderedDict()
        self._lock = threading.Lock()

    def get(self, normalized: str, generation: int,
            ) -> Optional[CachedResult]:
        """The cached result for this query at this generation, if any."""
        if self.capacity == 0:
            return None
        with self._lock:
            entry = self._entries.get((normalized, generation))
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end((normalized, generation))
            self.hits += 1
            return entry

    def put(self, normalized: str, generation: int,
            payload: tuple[str, ...], nrows: int,
            bbody: bytes = b"") -> None:
        """Store an encoded result (evicting the LRU entry when full).

        *payload* or *bbody* may be empty: one rendering is enough."""
        if self.capacity == 0:
            return
        with self._lock:
            key = (normalized, generation)
            self._entries[key] = CachedResult(payload, nrows, generation,
                                              bbody)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def drop_stale(self, current_generation: int) -> int:
        """Proactively drop entries older than *current_generation*.

        Purely a space optimisation — stale entries are unreachable
        anyway.  Returns how many entries were dropped.
        """
        with self._lock:
            stale = [k for k, v in self._entries.items()
                     if v.generation < current_generation]
            for k in stale:
                del self._entries[k]
            self.invalidated += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _hit_rate_locked(self) -> float:
        # Callers hold self._lock (a plain Lock — re-acquiring would
        # deadlock, hence this unlocked core shared by hit_rate/stats).
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        with self._lock:
            return self._hit_rate_locked()

    def stats(self) -> dict[str, float]:
        """Counter snapshot under ``server.cache.*`` names.

        Taken under the lock as one atomic read: concurrent get/put
        traffic can never yield a torn snapshot (e.g. hits + misses
        disagreeing with the hit rate computed from them).
        """
        with self._lock:
            return {
                "server.cache.size": float(len(self._entries)),
                "server.cache.capacity": float(self.capacity),
                "server.cache.hits": float(self.hits),
                "server.cache.misses": float(self.misses),
                "server.cache.evictions": float(self.evictions),
                "server.cache.invalidated": float(self.invalidated),
                "server.cache.hit_rate": self._hit_rate_locked(),
            }
