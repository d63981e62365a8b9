"""Paged storage substrate: the "disk" under the R-tree.

The paper argues R-trees beat quad-trees partly because "the storage
organization of R-trees is based on B-trees, they are better in dealing
with paging and disk I/O buffering" (Section 1).  This package provides
the 1985-style storage stack needed to measure that claim:

- :class:`~repro.storage.pager.Pager` — fixed-size pages in a single file
  with allocation, free-list reuse and checksummed headers.
- :class:`~repro.storage.buffer.BufferPool` — an LRU page cache with
  hit/miss/eviction accounting (the I/O numbers of experiment E16) whose
  frames can keep a page's decoded image.
- :mod:`~repro.storage.serial` — binary (de)serialisation of R-tree nodes
  into pages via :mod:`struct`.
- :class:`~repro.storage.disk_rtree.DiskRTree` — the R-tree of
  :mod:`repro.rtree.tree` on a page store: nodes live on pages and are
  faulted in through the buffer pool.
- :class:`~repro.storage.wal.WriteAheadLog` — page-level redo logging
  with checksummed records, commit/checkpoint, and replay on open.
- :mod:`~repro.storage.failpoints` — named crash/IO-error/torn-write
  injection points the durability tests drive.
"""

from repro.storage.pager import (
    PAGE_SIZE,
    CorruptPageError,
    InvalidPageError,
    Page,
    Pager,
    PagerError,
)
from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.serial import (
    decode_node,
    encode_node,
    max_entries_per_page,
)
from repro.storage.disk_rtree import DiskRTree
from repro.storage.heapfile import HeapFile, HeapFileError, RowAddress
from repro.storage.wal import WalError, WriteAheadLog
from repro.storage.failpoints import InjectedFault, SimulatedCrash

__all__ = [
    "BufferPool",
    "BufferStats",
    "CorruptPageError",
    "DiskRTree",
    "HeapFile",
    "HeapFileError",
    "InjectedFault",
    "InvalidPageError",
    "PAGE_SIZE",
    "Page",
    "Pager",
    "PagerError",
    "RowAddress",
    "SimulatedCrash",
    "WalError",
    "WriteAheadLog",
    "decode_node",
    "encode_node",
    "max_entries_per_page",
]
