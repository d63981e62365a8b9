"""LRU buffer pool over a :class:`~repro.storage.pager.Pager`.

The experiments in E16 measure how much a packed R-tree benefits from
"paging and disk I/O buffering" (Section 1 of the paper).  The pool is a
steal/no-force LRU cache that evicts leaves before internal nodes:
dirty pages are written back on eviction or flush, and every
hit/miss/eviction is counted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import obs
from repro.storage.pager import Pager


@dataclass(slots=True)
class BufferStats:
    """Access accounting for one buffer pool: four plain ints.

    ``stats.hits += 1`` is a slot add, so the hit path pays nothing for
    it.  Under :data:`repro.obs.ENABLED` the pool also bumps the same
    names under ``storage.buffer.*`` in the active registry; these four
    count whether or not it is enabled.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of page requests served from memory (0.0 when idle)."""
        total = self.accesses
        return self.hits / total if total else 0.0


@dataclass(slots=True)
class _Frame:
    payload: bytes
    dirty: bool = False
    pins: int = 0
    #: ``decode(payload)``, kept until the payload changes (see
    #: :meth:`BufferPool.get_decoded`)
    decoded: Any = None
    #: the replacement list the frame is filed in (see ``_place``)
    lru: Optional[OrderedDict] = None


class BufferPool:
    """A fixed-capacity LRU page cache that evicts leaves first.

    Args:
        pager: the underlying page store.
        capacity: maximum number of resident pages.  Must be positive.

    A frame can also hold its page's decoded image beside the bytes
    (:meth:`get_decoded`), so a page is decoded once per load rather than
    once per read.  A decoded image is a node, ``(is_leaf, entries)``:
    frames that hold a decoded internal node are filed apart from the
    rest, and the victim is the least recently used unpinned frame that
    is not one of them.  Only when every unpinned frame holds an internal
    node does the least recently used of those go.  A tree query reads
    the root and the upper levels every time and a given leaf rarely, so
    the upper levels stay resident in a pool far smaller than the tree.

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
        self._frames: dict[int, _Frame] = {}
        # Replacement order, least recent first.  Every resident frame is
        # in exactly one: ``_cold`` (raw pages and leaves) is drawn from
        # before ``_hot`` (decoded internal nodes).
        self._cold: OrderedDict[int, _Frame] = OrderedDict()
        self._hot: OrderedDict[int, _Frame] = OrderedDict()
        # Re-entrant: pin() faults pages in through get().
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
                frame.lru.move_to_end(page_no)
                return frame.payload
            self.stats.misses += 1
            if obs.ENABLED:
                obs.active().bump("storage.buffer.misses")
            payload = self.pager.read_page(page_no).data
            self._install(page_no, _Frame(payload=payload))
            return payload

    def get_decoded(self, page_no: int, decode: Callable[[bytes], Any]):
        """``decode(payload)`` of *page_no*, decoded once per load.

        The read goes through ``self.get``, once per call, so it counts
        as a hit or a miss like any other, and a wrapper installed on the
        instance's ``get`` sees every fetch.  The decoded image is kept
        in the frame until the page is written, invalidated or evicted.
        A page evicted or rewritten between the read and the decode is
        decoded from the bytes read and not kept.
        """
        payload = self.get(page_no)
        with self._lock:
            frame = self._frames.get(page_no)
            if frame is None or frame.payload is not payload:
                return decode(payload)
            if frame.decoded is None:
                frame.decoded = decode(payload)
                self._place(page_no, frame)
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
                self._place(page_no, frame)
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
                    self._write_back(page_no, frame)

    def invalidate(self, page_no: int) -> None:
        """Drop *page_no* without writing it back (used after free())."""
        with self._lock:
            frame = self._frames.pop(page_no, None)
            if frame is not None:
                del frame.lru[page_no]

    def clear(self) -> None:
        """Flush and drop every frame (cold-cache the pool)."""
        with self._lock:
            self.flush()
            self._frames.clear()
            self._cold.clear()
            self._hot.clear()

    @property
    def resident(self) -> int:
        return len(self._frames)

    # -- internals -----------------------------------------------------------

    def _place(self, page_no: int, frame: _Frame) -> None:
        """File *frame* as the most recent of the list its image belongs
        to: ``_hot`` for a decoded internal node, else ``_cold``."""
        decoded = frame.decoded
        lru = (self._hot if decoded is not None and not decoded[0]
               else self._cold)
        if frame.lru is not None:
            del frame.lru[page_no]
        frame.lru = lru
        lru[page_no] = frame

    def _install(self, page_no: int, frame: _Frame) -> None:
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page_no] = frame
        self._place(page_no, frame)

    def _evict_one(self) -> None:
        """Evict the least recently used unpinned frame of ``_cold``,
        else of ``_hot``.  The head of the list is the victim unless it
        is pinned, so the scan past it is the rare case."""
        for lru in (self._cold, self._hot):
            victim_no = next((page_no for page_no, frame in lru.items()
                              if not frame.pins), None)
            if victim_no is not None:
                break
        else:
            raise BufferFullError(
                f"all {self.capacity} buffer frames are pinned")
        victim = self._frames[victim_no]
        if victim.dirty:
            self._write_back(victim_no, victim)
        del self._frames[victim_no], lru[victim_no]
        self.stats.evictions += 1
        if obs.ENABLED:
            obs.active().bump("storage.buffer.evictions")

    def _write_back(self, page_no: int, frame: _Frame) -> None:
        self.pager.write_page(page_no, frame.payload)
        frame.dirty = False
        self.stats.writebacks += 1
        if obs.ENABLED:
            obs.active().bump("storage.buffer.writebacks")


class BufferFullError(Exception):
    """Every frame is pinned; nothing can be evicted."""
