"""Page-level write-ahead log: redo images, commit records, recovery.

The durability contract the relational layer needs is small: an
acknowledged mutation must survive ``kill -9``, and a mutation that was
*not* acknowledged must be atomic — fully present or fully absent after
reopen.  The WAL provides it with the classic redo-only protocol:

1. every page the transaction dirtied is staged in memory by the
   :class:`~repro.storage.pager.Pager` (no-steal: uncommitted bytes
   never reach the data file);
2. at commit the full after-images are appended here, followed by a
   COMMIT record, and the log is fsynced — **before** any data-file
   write;
3. only then are the staged images written into the data file.

On reopen, :meth:`committed_pages` scans the log: page images are
collected per batch and a batch becomes visible only when its COMMIT
record is intact.  A torn tail — truncated record, bad checksum, or a
batch with no COMMIT — marks the end of the usable log; everything
before it is replayed, everything after is discarded.  Replay writes
full page images, so it is idempotent: a crash *during* recovery just
recovers again.

Record layout (little-endian)::

    u32 crc       # crc32 over the remaining header fields + payload
    u32 length    # payload bytes
    u64 lsn       # monotonically increasing sequence number
    u8  kind      # 1 = page image, 2 = commit
    u64 page_no
    payload

The file carries a small header (magic, version, page size) so a WAL
cannot be replayed into a pager with a different geometry.  The file is
opened **unbuffered**: every write reaches the OS immediately, which is
what makes the simulated-crash tests (drop all handles, reopen) faithful
to real process death.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterator, NamedTuple, Sequence

from repro import obs
from repro.storage import failpoints

__all__ = ["KIND_COMMIT", "KIND_PAGE", "WalError", "WalRecord",
           "WriteAheadLog"]

_MAGIC = b"RWAL"
_VERSION = 1
_FILE_HEADER_FMT = "<4sII"  # magic, version, page_size
_FILE_HEADER_SIZE = struct.calcsize(_FILE_HEADER_FMT)
_REC_HEADER_FMT = "<IIQBQ"  # crc, length, lsn, kind, page_no
_REC_HEADER_SIZE = struct.calcsize(_REC_HEADER_FMT)
_REC_BODY = struct.Struct("<QBQ")  # the header fields the crc covers
_IOV_MAX = 1024  # the most buffers one os.writev takes (Linux's IOV_MAX)

KIND_PAGE = 1
KIND_COMMIT = 2

FP_APPEND = failpoints.declare(
    "wal.append", "before a record is appended to the log")
FP_APPEND_TORN = failpoints.declare(
    "wal.append.torn", "write half a record, then crash")
FP_RECOVER = failpoints.declare(
    "wal.recover", "before committed images are replayed on open")


class WalError(Exception):
    """Structural misuse of the write-ahead log (geometry mismatch)."""


class WalRecord(NamedTuple):
    """One decoded log record."""

    lsn: int
    kind: int
    page_no: int
    payload: bytes


class WriteAheadLog:
    """An append-only redo log for one pager file.

    Args:
        path: log file, created when absent.  An existing log is
            validated against *page_size* and scanned lazily by the
            owning pager's recovery.
        page_size: geometry of the pager this log protects.
        sync: ``"fsync"`` (default) makes :meth:`commit` durable against
            power loss; ``"none"`` skips the fsync — still crash-safe
            against process death (writes are unbuffered), and much
            faster for tests and bulk loads.
    """

    def __init__(self, path: str | os.PathLike[str], page_size: int,
                 sync: str = "fsync"):
        if sync not in ("fsync", "none"):
            raise ValueError(f"unknown sync mode {sync!r}; "
                             f"choose 'fsync' or 'none'")
        self.path = os.fspath(path)
        self.page_size = page_size
        self.sync_mode = sync
        self.appends = 0
        self.commits = 0
        self.syncs = 0
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        self._file = os.fdopen(fd, "r+b", buffering=0)
        self._file.seek(0, os.SEEK_END)
        if self._file.tell() == 0:
            self._file.write(struct.pack(_FILE_HEADER_FMT, _MAGIC,
                                         _VERSION, page_size))
        else:
            self._check_header()
            self._file.seek(0, os.SEEK_END)
        self._lsn = 1

    def _check_header(self) -> None:
        self._file.seek(0)
        raw = self._file.read(_FILE_HEADER_SIZE)
        if len(raw) < _FILE_HEADER_SIZE:
            raise WalError("truncated WAL header")
        magic, version, page_size = struct.unpack(_FILE_HEADER_FMT, raw)
        if magic != _MAGIC:
            raise WalError(f"bad WAL magic {magic!r}")
        if version != _VERSION:
            raise WalError(f"unsupported WAL version {version}")
        if page_size != self.page_size:
            raise WalError(f"WAL written for page size {page_size}, "
                           f"pager uses {self.page_size}")

    # -- appending ---------------------------------------------------------

    def append_page(self, page_no: int, raw: bytes) -> None:
        """Append the full after-image of one page."""
        self.append([(KIND_PAGE, page_no, raw)])

    def commit(self) -> None:
        """Append a COMMIT record; :meth:`sync` makes it durable."""
        self.append([(KIND_COMMIT, 0, b"")])

    def append(self, records: Sequence[tuple[int, int, bytes]]) -> None:
        """Append ``(kind, page_no, payload)`` records with one write:
        ``os.writev`` of each record's header and the caller's payload
        buffer, so no page image is copied."""
        buffers: list[bytes | memoryview] = []
        lsn, commits = self._lsn, 0
        for kind, page_no, payload in records:
            if kind == KIND_PAGE and len(payload) != self.page_size:
                raise WalError(f"page image of {len(payload)} bytes does "
                               f"not match page size {self.page_size}")
            commits += kind == KIND_COMMIT
            body = _REC_BODY.pack(lsn, kind, page_no)
            crc = zlib.crc32(payload, zlib.crc32(body))
            buffers += (struct.pack("<II", crc, len(payload)) + body, payload)
            lsn += 1
        start = self._file.seek(0, os.SEEK_END)
        if failpoints.ACTIVE:
            for _record in records:
                failpoints.hit(FP_APPEND)
            for i in range(0, len(buffers), 2):
                if failpoints.hit(FP_APPEND_TORN) == "torn":
                    torn = buffers[i] + buffers[i + 1]
                    self._write_all(buffers[:i]
                                    + [torn[:max(1, len(torn) // 2)]])
                    failpoints.crash(FP_APPEND_TORN)
        try:
            self._write_all(buffers)
        except OSError:
            self._file.truncate(start)  # a retry must not follow torn bytes
            raise
        self._lsn = lsn
        self.appends += len(records)
        self.commits += commits
        if obs.ENABLED:
            obs.active().bump("storage.wal.appends", len(records))
            obs.active().bump("storage.wal.commits", commits)

    def _write_all(self, buffers: list[bytes | memoryview]) -> None:
        # Finish short writes and refuse stalled ones, as _write_direct does.
        fd, i = self._file.fileno(), 0
        while i < len(buffers):
            written = os.writev(fd, buffers[i:i + _IOV_MAX])
            if not written:
                raise OSError(f"{self.path}: write stalled")
            while i < len(buffers) and written >= len(buffers[i]):
                written -= len(buffers[i])
                i += 1
            if written:
                buffers[i] = memoryview(buffers[i])[written:]

    def sync(self) -> None:
        """fsync the log (no-op in ``sync="none"`` mode)."""
        if self.sync_mode == "fsync":
            os.fsync(self._file.fileno())
            self.syncs += 1
            if obs.ENABLED:
                obs.active().bump("storage.wal.syncs")

    # -- scanning / recovery -----------------------------------------------

    def records(self) -> Iterator[WalRecord]:
        """Decode records from the start, stopping at the first torn one.

        A short read, a bad checksum or an implausible length all
        terminate the scan silently: the tail of a log is *expected* to
        be garbage after a crash mid-append, and everything before the
        tear is still perfectly usable.
        """
        self._file.seek(_FILE_HEADER_SIZE)
        while True:
            header = self._file.read(_REC_HEADER_SIZE)
            if len(header) < _REC_HEADER_SIZE:
                return
            crc, length, lsn, kind, page_no = struct.unpack(
                _REC_HEADER_FMT, header)
            if length > self.page_size:
                return
            payload = self._file.read(length)
            if len(payload) < length:
                return
            body = struct.pack("<QBQ", lsn, kind, page_no) + payload
            if zlib.crc32(body) != crc:
                return
            yield WalRecord(lsn=lsn, kind=kind, page_no=page_no,
                            payload=payload)

    def committed_pages(self) -> tuple[dict[int, bytes], int]:
        """Latest committed after-image per page, plus the commit count.

        Images from a batch that never reached its COMMIT record are
        dropped — that transaction was never acknowledged.
        """
        applied: dict[int, bytes] = {}
        pending: dict[int, bytes] = {}
        commits = 0
        for record in self.records():
            if record.kind == KIND_PAGE:
                pending[record.page_no] = record.payload
            elif record.kind == KIND_COMMIT:
                applied.update(pending)
                pending.clear()
                commits += 1
        return applied, commits

    # -- truncation ----------------------------------------------------------

    def reset(self) -> None:
        """Discard every record (checkpoint): truncate back to the header."""
        self._file.seek(_FILE_HEADER_SIZE)
        self._file.truncate()
        if self.sync_mode == "fsync":
            os.fsync(self._file.fileno())
        self._lsn = 1

    @property
    def size_bytes(self) -> int:
        """Current log size on disk, including the file header."""
        return os.fstat(self._file.fileno()).st_size

    # -- lifecycle -----------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self._file.closed

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
