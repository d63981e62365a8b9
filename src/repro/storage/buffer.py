"""LRU buffer pool over a :class:`~repro.storage.pager.Pager`.

The experiments in E16 measure how much a packed R-tree benefits from
"paging and disk I/O buffering" (Section 1 of the paper).  The pool is a
classic steal/no-force LRU cache: dirty pages are written back on
eviction or flush, and every hit/miss/eviction is counted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import obs
from repro.obs import Counters
from repro.storage.pager import Pager

_STATS_PREFIX = "storage.buffer"
_STATS_FIELDS = ("hits", "misses", "evictions", "writebacks")


class BufferStats:
    """Access accounting for one buffer pool.

    Historically a plain dataclass of four ints; the numbers now live in
    a per-pool :class:`repro.obs.Counters` bag under ``storage.buffer.*``
    so the same values feed the observability layer.  The original API is
    preserved exactly: the four fields read and write like attributes
    (``stats.hits += 1`` still works), and ``accesses`` / ``hit_rate``
    behave as before.  The per-pool bag is always maintained — it does not
    depend on the global :data:`repro.obs.ENABLED` flag.
    """

    __slots__ = ("counters",)

    def __init__(self, hits: int = 0, misses: int = 0, evictions: int = 0,
                 writebacks: int = 0,
                 counters: Optional[Counters] = None):
        self.counters = counters if counters is not None else Counters()
        for name, value in zip(_STATS_FIELDS,
                               (hits, misses, evictions, writebacks)):
            if value:
                self.counters.set(f"{_STATS_PREFIX}.{name}", value)

    # -- the four seed fields, now counter-backed --------------------------

    @property
    def hits(self) -> int:
        return int(self.counters.get(f"{_STATS_PREFIX}.hits"))

    @hits.setter
    def hits(self, value: int) -> None:
        self.counters.set(f"{_STATS_PREFIX}.hits", value)

    @property
    def misses(self) -> int:
        return int(self.counters.get(f"{_STATS_PREFIX}.misses"))

    @misses.setter
    def misses(self, value: int) -> None:
        self.counters.set(f"{_STATS_PREFIX}.misses", value)

    @property
    def evictions(self) -> int:
        return int(self.counters.get(f"{_STATS_PREFIX}.evictions"))

    @evictions.setter
    def evictions(self, value: int) -> None:
        self.counters.set(f"{_STATS_PREFIX}.evictions", value)

    @property
    def writebacks(self) -> int:
        return int(self.counters.get(f"{_STATS_PREFIX}.writebacks"))

    @writebacks.setter
    def writebacks(self, value: int) -> None:
        self.counters.set(f"{_STATS_PREFIX}.writebacks", value)

    # -- derived, unchanged from the seed ----------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of page requests served from memory (0.0 when idle)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BufferStats):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in _STATS_FIELDS)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BufferStats(hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions}, "
                f"writebacks={self.writebacks})")


@dataclass
class _Frame:
    payload: bytes
    dirty: bool = False
    pins: int = 0
    #: ``decode(payload)``, kept until the payload changes (see
    #: :meth:`BufferPool.get_decoded`)
    decoded: Any = None


class BufferPool:
    """A fixed-capacity LRU page cache.

    Args:
        pager: the underlying page store.
        capacity: maximum number of resident pages.  Must be positive.

    A frame can also hold its page's decoded image beside the bytes
    (:meth:`get_decoded`), so a page is decoded once per load rather than
    once per read.

    Pages may be *pinned* while a caller holds a reference; pinned pages
    are never evicted.  Requesting more pinned pages than the capacity
    raises :class:`BufferFullError` — the failure-injection tests depend
    on this being an error rather than silent growth.

    The pool is safe under concurrent readers (and the occasional
    writer): one re-entrant lock guards the frame table, the replacement
    state and the stats counters, so many threads may drive
    :meth:`get`/:meth:`put` against a shared :class:`DiskRTree` — the
    query server's worker pool does exactly this.  Individual page
    operations are atomic; multi-page consistency (e.g. a structural
    tree update racing a search) is the caller's concern.
    """

    def __init__(self, pager: Pager, capacity: int = 64):
        if capacity < 1:
            raise ValueError("buffer pool capacity must be positive")
        self.pager = pager
        self.capacity = capacity
        self.stats = BufferStats()
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        # Re-entrant: pin() and get_decoded() fault pages in through get().
        self._lock = threading.RLock()

    # -- reads -------------------------------------------------------------

    def get(self, page_no: int) -> bytes:
        """The payload of *page_no*, faulting it in on a miss."""
        with self._lock:
            frame = self._frames.get(page_no)
            if frame is not None:
                self.stats.hits += 1
                if obs.ENABLED:
                    obs.active().bump("storage.buffer.hits")
                self._frames.move_to_end(page_no)
                return frame.payload
            self.stats.misses += 1
            if obs.ENABLED:
                obs.active().bump("storage.buffer.misses")
            payload = self.pager.read_page(page_no).data
            self._install(page_no, _Frame(payload=payload))
            return payload

    def get_decoded(self, page_no: int, decode: Callable[[bytes], Any]):
        """``decode(payload)`` of *page_no*, decoded once per load.

        The read goes through :meth:`get`, so it counts as a hit or a
        miss like any other; the decoded image is kept in the frame until
        the page is written, invalidated or evicted.
        """
        with self._lock:
            payload = self.get(page_no)
            frame = self._frames[page_no]
            if frame.decoded is None:
                frame.decoded = decode(payload)
            return frame.decoded

    # -- writes -------------------------------------------------------------

    def put(self, page_no: int, payload: bytes, decoded: Any = None) -> None:
        """Stage *payload* for *page_no*; written back on eviction/flush.

        *decoded*, when given, is the payload's decoded image, so the
        next :meth:`get_decoded` need not decode what was just written.
        """
        with self._lock:
            frame = self._frames.get(page_no)
            if frame is not None:
                frame.payload = payload
                frame.decoded = decoded
                frame.dirty = True
                self._frames.move_to_end(page_no)
                return
            self._install(page_no, _Frame(payload=payload, dirty=True,
                                          decoded=decoded))

    # -- pinning -------------------------------------------------------------

    def pin(self, page_no: int) -> None:
        """Protect a resident page from eviction (faulting it in if absent)."""
        with self._lock:
            if page_no not in self._frames:
                self.get(page_no)
            self._frames[page_no].pins += 1

    def unpin(self, page_no: int) -> None:
        """Release one pin on *page_no*.

        Raises:
            KeyError: when the page is not resident.
            ValueError: when the page is not pinned.
        """
        with self._lock:
            frame = self._frames[page_no]
            if frame.pins <= 0:
                raise ValueError(f"page {page_no} is not pinned")
            frame.pins -= 1

    # -- maintenance -------------------------------------------------------------

    def flush(self) -> None:
        """Write every dirty page back to the pager."""
        with self._lock:
            for page_no, frame in self._frames.items():
                if frame.dirty:
                    self.pager.write_page(page_no, frame.payload)
                    frame.dirty = False
                    self.stats.writebacks += 1
                    if obs.ENABLED:
                        obs.active().bump("storage.buffer.writebacks")

    def invalidate(self, page_no: int) -> None:
        """Drop *page_no* without writing it back (used after free())."""
        with self._lock:
            self._frames.pop(page_no, None)

    def clear(self) -> None:
        """Flush and drop every frame (cold-cache the pool)."""
        with self._lock:
            self.flush()
            self._frames.clear()

    @property
    def resident(self) -> int:
        return len(self._frames)

    # -- internals -----------------------------------------------------------

    def _install(self, page_no: int, frame: _Frame) -> None:
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page_no] = frame

    def _evict_one(self) -> None:
        """Evict the least recently used unpinned page."""
        victim_no = next((page_no for page_no, frame in self._frames.items()
                          if frame.pins == 0), None)
        if victim_no is None:
            raise BufferFullError(
                f"all {self.capacity} buffer frames are pinned")
        victim = self._frames[victim_no]
        if victim.dirty:
            self.pager.write_page(victim_no, victim.payload)
            self.stats.writebacks += 1
            if obs.ENABLED:
                obs.active().bump("storage.buffer.writebacks")
        del self._frames[victim_no]
        self.stats.evictions += 1
        if obs.ENABLED:
            obs.active().bump("storage.buffer.evictions")


class BufferFullError(Exception):
    """Every frame is pinned; nothing can be evicted."""
