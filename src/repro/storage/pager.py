"""Fixed-size page storage in a single file.

A deliberately simple 1985-style pager: the file is an array of
``PAGE_SIZE``-byte pages.  Page 0 is the pager header (magic, page count,
free-list head).  Freed pages are chained into a free list and reused.
Each data page carries a CRC32 checksum so corruption is detected on
read rather than propagated into the index.

Crash safety is opt-in: constructed with ``wal_path``, the pager attaches
a :class:`~repro.storage.wal.WriteAheadLog` and switches to a no-steal /
redo-only protocol.  Page writes (including header updates) are *staged*
in memory; :meth:`commit` appends their after-images plus a COMMIT record
to the WAL, fsyncs it, and only then lets the bytes reach the data file.
Reopening a WAL-attached pager replays whatever committed work the data
file is missing, so a process killed at any instant loses nothing that
was acknowledged and keeps unacknowledged work atomic.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.storage import failpoints
from repro.storage.wal import FP_RECOVER, WriteAheadLog

#: Default page size in bytes.  Small by modern standards, faithful to the
#: "logical disk block" framing of the paper; configurable per Pager.
PAGE_SIZE = 4096

_MAGIC = b"RPRT"
_HEADER_FMT = "<4sIIQ"  # magic, page_size, page_count, free_list_head
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_PAGE_PREFIX_FMT = "<II"  # crc32, payload_length
_PAGE_PREFIX_SIZE = struct.calcsize(_PAGE_PREFIX_FMT)
_FREE_SENTINEL = 0  # page 0 is the header, so 0 terminates the free list

FP_COMMIT_BEFORE_SYNC = failpoints.declare(
    "wal.commit.before-sync",
    "COMMIT record appended, WAL not yet fsynced (op must vanish)")
FP_COMMIT_AFTER_SYNC = failpoints.declare(
    "wal.commit.after-sync",
    "WAL durable, data file untouched (op must be replayed)")
FP_APPLY = failpoints.declare(
    "wal.apply", "mid-way through writing committed pages to the data file")
FP_APPLY_TORN = failpoints.declare(
    "wal.apply.torn", "half a data page written, then crash")
FP_CHECKPOINT = failpoints.declare(
    "wal.checkpoint", "data file fsynced, WAL not yet truncated")
FP_READ = failpoints.declare(
    "pager.read", "physical page read about to be served (inject EIO here)")


class PagerError(Exception):
    """Base class for pager failures."""


class InvalidPageError(PagerError):
    """A page number is out of range, the header page, or already free."""


class CorruptPageError(PagerError):
    """A page failed its checksum or structural validation."""


@dataclass(frozen=True)
class Page:
    """An immutable snapshot of one page's payload."""

    page_no: int
    data: bytes


class Pager:
    """Page-granular storage over a single file.

    Args:
        path: backing file.  Created (with a fresh header) if absent or
            empty; otherwise the header is validated against *page_size*.
        page_size: size of every page in bytes.
        wal_path: when given, attach a write-ahead log at this path and
            run the no-steal commit protocol described in the module
            docstring.  Committed-but-unapplied work found in the log is
            replayed before the header is read (crash recovery).
        wal_sync: ``"fsync"`` (durable commits, default) or ``"none"``
            (fast; still atomic against process death).
        checkpoint_bytes: once the WAL grows past this size a commit
            triggers an automatic checkpoint (data fsync + log truncate).

    The pager tracks physical reads and writes (``reads`` / ``writes``)
    so the experiments can report I/O without a buffer pool in the way.
    After a recovery, ``recovered_pages`` / ``recovered_commits`` report
    what the replay restored.
    """

    def __init__(self, path: str | os.PathLike[str],
                 page_size: int = PAGE_SIZE,
                 wal_path: Optional[str | os.PathLike[str]] = None,
                 wal_sync: str = "fsync",
                 checkpoint_bytes: int = 4 * 1024 * 1024):
        if page_size < _PAGE_PREFIX_SIZE + 64:
            raise ValueError(f"page size {page_size} is too small to be useful")
        self.path = os.fspath(path)
        self.page_size = page_size
        self.checkpoint_bytes = checkpoint_bytes
        self.reads = 0
        self.writes = 0
        self.recovered_pages = 0
        self.recovered_commits = 0
        self.checkpoints = 0
        #: Staged page images awaiting commit (WAL mode only).
        self._pending: dict[int, bytes] = {}
        self._free_pages: set[int] = set()
        # O_CREAT without O_TRUNC: create if missing, keep existing data.
        # Unbuffered, and read with pread and written with pwrite on its
        # one descriptor: no seek, and no Python-side buffer, so a read
        # sees every write and a simulated crash (drop every handle,
        # reopen) behaves exactly like kill -9.
        self._file = os.fdopen(
            os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644), "r+b",
            buffering=0)
        self._fd = self._file.fileno()
        self._wal: Optional[WriteAheadLog] = None
        try:
            if wal_path is not None:
                self._wal = WriteAheadLog(wal_path, page_size, sync=wal_sync)
                self._recover()
            if os.fstat(self._fd).st_size == 0:
                self._page_count = 1
                self._free_head = _FREE_SENTINEL
                self._write_header()
            else:
                self._read_header()
            self._load_free_pages()
        except BaseException:
            # Not close(): it would write a header over the refused file.
            if self._wal is not None:
                self._wal.close()
            self._file.close()
            raise

    # -- header ------------------------------------------------------------

    def _write_header(self) -> None:
        header = struct.pack(_HEADER_FMT, _MAGIC, self.page_size,
                             self._page_count, self._free_head)
        self._raw_write(0, header.ljust(self.page_size, b"\0"), count=False)

    def _read_header(self) -> None:
        raw = os.pread(self._fd, self.page_size, 0)
        if len(raw) < _HEADER_SIZE:
            raise CorruptPageError("truncated pager header")
        magic, page_size, count, free_head = struct.unpack(
            _HEADER_FMT, raw[:_HEADER_SIZE])
        if magic != _MAGIC:
            raise CorruptPageError(f"bad magic {magic!r}")
        if page_size != self.page_size:
            raise PagerError(
                f"file has page size {page_size}, pager opened with "
                f"{self.page_size}")
        self._page_count = count
        self._free_head = free_head

    def _load_free_pages(self) -> None:
        """Walk the free list into a set, validating it on the way.

        The set lets :meth:`free` reject double frees (which would knot
        the list into a cycle) with a typed error instead of corrupting
        the freelist; the walk itself catches cycles and out-of-range
        links left by earlier corruption.
        """
        seen: set[int] = set()
        cur = self._free_head
        while cur != _FREE_SENTINEL:
            if cur in seen:
                raise CorruptPageError(
                    f"free list cycles back to page {cur}")
            if not 1 <= cur < self._page_count:
                raise CorruptPageError(
                    f"free list links to page {cur}, outside "
                    f"[1, {self._page_count})")
            seen.add(cur)
            raw = self._raw_read(cur, count=False)
            (cur,) = struct.unpack_from("<Q", raw, _PAGE_PREFIX_SIZE)
        self._free_pages = seen

    # -- page lifecycle ------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Number of pages in the file, including the header page."""
        return self._page_count

    def allocate(self) -> int:
        """Reserve a page number, reusing the free list when possible."""
        if self._free_head != _FREE_SENTINEL:
            page_no = self._free_head
            raw = self._raw_read(page_no)
            (next_free,) = struct.unpack_from("<Q", raw, _PAGE_PREFIX_SIZE)
            self._free_head = next_free
            self._free_pages.discard(page_no)
            self._write_header()
            return page_no
        page_no = self._page_count
        self._page_count += 1
        self._raw_write(page_no, b"\0" * self.page_size)
        self._write_header()
        return page_no

    def allocate_batch(self, n: int) -> list[int]:
        """Reserve *n* brand-new consecutive pages with one header update.

        The bulk loader allocates thousands of pages; :meth:`allocate`
        writes the header once per page, this writes it once per batch.
        The free list is deliberately not consulted (batch callers want
        sequential page numbers) and the reserved pages are *not*
        zero-filled — the caller must write every returned page before
        reading it back, or reads will fail as truncated.
        """
        if n < 0:
            raise ValueError("cannot allocate a negative number of pages")
        if n == 0:
            return []
        start = self._page_count
        self._page_count += n
        self._write_header()
        return list(range(start, start + n))

    def free(self, page_no: int) -> None:
        """Return *page_no* to the free list.

        Raises:
            InvalidPageError: for the header page, pages outside the
                file, or pages that are already free — any of which
                would silently corrupt the free list if written.
        """
        self._check_page_no(page_no)
        if page_no in self._free_pages:
            raise InvalidPageError(f"page {page_no} is already free")
        payload = struct.pack("<Q", self._free_head)
        body = struct.pack(_PAGE_PREFIX_FMT, 0, 0) + payload
        self._raw_write(page_no, body.ljust(self.page_size, b"\0"))
        self._free_head = page_no
        self._free_pages.add(page_no)
        self._write_header()

    # -- payload I/O ------------------------------------------------------------

    def write_page(self, page_no: int, payload: bytes) -> None:
        """Store *payload* (checksummed) in page *page_no*.

        Raises:
            ValueError: if the payload does not fit in one page.
        """
        self._check_page_no(page_no)
        max_payload = self.page_size - _PAGE_PREFIX_SIZE
        if len(payload) > max_payload:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds page capacity "
                f"{max_payload}")
        crc = zlib.crc32(payload)
        body = struct.pack(_PAGE_PREFIX_FMT, crc, len(payload)) + payload
        self._raw_write(page_no, body.ljust(self.page_size, b"\0"))

    def read_page(self, page_no: int) -> Page:
        """Fetch and checksum-verify page *page_no*.

        Raises:
            CorruptPageError: when the checksum or length is inconsistent.
        """
        self._check_page_no(page_no)
        if failpoints.ACTIVE:
            failpoints.hit(FP_READ)
        raw = self._raw_read(page_no)
        crc, length = struct.unpack_from(_PAGE_PREFIX_FMT, raw)
        if length > self.page_size - _PAGE_PREFIX_SIZE:
            raise CorruptPageError(
                f"page {page_no}: recorded length {length} exceeds capacity")
        payload = raw[_PAGE_PREFIX_SIZE:_PAGE_PREFIX_SIZE + length]
        if zlib.crc32(payload) != crc:
            raise CorruptPageError(f"page {page_no}: checksum mismatch")
        return Page(page_no=page_no, data=payload)

    # -- low level ------------------------------------------------------------

    def _check_page_no(self, page_no: int) -> None:
        if not 1 <= page_no < self._page_count:
            raise InvalidPageError(
                f"page {page_no} out of range [1, {self._page_count})")

    def _raw_read(self, page_no: int, count: bool = True) -> bytes:
        if self._wal is not None:
            staged = self._pending.get(page_no)
            if staged is not None:
                return staged
        if count:
            self.reads += 1
            if obs.ENABLED:
                obs.active().bump("storage.pager.reads")
        raw = os.pread(self._fd, self.page_size, page_no * self.page_size)
        if len(raw) < self.page_size:
            raise CorruptPageError(f"page {page_no} truncated on disk")
        return raw

    def _raw_write(self, page_no: int, raw: bytes, count: bool = True) -> None:
        assert len(raw) == self.page_size
        if count:
            self.writes += 1
            if obs.ENABLED:
                obs.active().bump("storage.pager.writes")
        if self._wal is not None:
            self._pending[page_no] = raw
            return
        self._write_direct(page_no, raw)

    def _write_direct(self, page_no: int, raw: bytes) -> None:
        # pwrite may stop short (a disk filling mid-page): go on from
        # there, as a buffered write does; no progress at all is an error.
        offset, rest = page_no * self.page_size, memoryview(raw)
        while rest:
            written = os.pwrite(self._fd, rest, offset)
            if not written:
                raise OSError(f"page {page_no}: write stalled")
            offset, rest = offset + written, rest[written:]

    # -- commit / recovery ---------------------------------------------------

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The attached write-ahead log, if any."""
        return self._wal

    @property
    def pending_pages(self) -> int:
        """Staged (dirty, uncommitted) page count — 0 without a WAL."""
        return len(self._pending)

    def commit(self) -> None:
        """Make every staged page durable: WAL first, then the data file.

        No-op without a WAL or without staged writes.  The fsync ordering
        is the whole durability story: after-images and the COMMIT record
        are on stable storage *before* the first data-file byte moves, so
        a crash at any point either replays the batch (WAL intact) or
        drops it whole (COMMIT never became durable).
        """
        if self._wal is None or not self._pending:
            return
        for page_no, raw in self._pending.items():
            self._wal.append_page(page_no, raw)
        self._wal.commit()
        if failpoints.ACTIVE:
            failpoints.hit(FP_COMMIT_BEFORE_SYNC)
        self._wal.sync()
        if failpoints.ACTIVE:
            failpoints.hit(FP_COMMIT_AFTER_SYNC)
        self._apply_pending()
        if self._wal.size_bytes >= self.checkpoint_bytes:
            self.checkpoint()

    def _apply_pending(self) -> None:
        for page_no in sorted(self._pending):
            raw = self._pending[page_no]
            if failpoints.ACTIVE:
                failpoints.hit(FP_APPLY)
                if failpoints.hit(FP_APPLY_TORN) == "torn":
                    self._write_direct(page_no, raw[:self.page_size // 2])
                    failpoints.crash(FP_APPLY_TORN)
            self._write_direct(page_no, raw)
        self._pending.clear()

    def checkpoint(self) -> None:
        """fsync the data file, then truncate the WAL (no-op without one)."""
        if self._wal is None:
            return
        if self._pending:
            self.commit()
            return  # commit() checkpoints when past the size threshold
        os.fsync(self._fd)
        if failpoints.ACTIVE:
            failpoints.hit(FP_CHECKPOINT)
        self._wal.reset()
        self.checkpoints += 1
        if obs.ENABLED:
            obs.active().bump("storage.wal.checkpoints")

    def _recover(self) -> None:
        """Replay committed WAL images the data file may be missing.

        Idempotent by construction — full page images, applied in page
        order, fsynced before the log is truncated.  A crash during
        recovery leaves the log intact, so the next open replays again.
        """
        assert self._wal is not None
        images, commits = self._wal.committed_pages()
        if images:
            if failpoints.ACTIVE:
                failpoints.hit(FP_RECOVER)
            for page_no in sorted(images):
                self._write_direct(page_no, images[page_no])
            os.fsync(self._fd)
            self.recovered_pages = len(images)
            self.recovered_commits = commits
            if obs.ENABLED:
                obs.active().bump("storage.wal.recoveries")
                obs.active().bump("storage.wal.recovered_pages", len(images))
                obs.active().bump("storage.wal.recovered_commits", commits)
        # Torn tails (and replayed records) are dropped either way.
        self._wal.reset()

    # -- lifecycle ------------------------------------------------------------

    def sync(self) -> None:
        """Flush buffered writes to the operating system.

        With a WAL attached this first commits staged pages (so callers
        using ``flush()``-style durability keep their guarantee), then
        pushes the data file to the OS.
        """
        self.commit()
        os.fsync(self._fd)

    @property
    def is_closed(self) -> bool:
        """True once the backing file has been closed."""
        return self._file.closed

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        if self._file.closed:
            return
        self._write_header()
        self.commit()
        if self._wal is not None:
            self.checkpoint()
            self._wal.close()
        self._file.close()
        self._fd = -1  # EBADF from here on, never a reused descriptor

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc: object) -> Optional[bool]:
        self.close()
        return None
