"""Binary serialisation of R-tree nodes into page payloads.

On-disk layout of a node record (little-endian)::

    u8   is_leaf
    u16  entry_count
    then per entry:
        f64 x1, f64 y1, f64 x2, f64 y2
        u64 pointer        # child page number, or object id for leaves

Object identifiers on disk are integers (the paper's tuple identifiers);
mapping them to richer Python objects is the caller's business — the
relational layer stores row ids here exactly as PSQL's ``loc`` pointers
reference tuples.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

_HEADER = struct.Struct("<BH")
_ENTRY = struct.Struct("<ddddQ")
_NODE_HEADER_SIZE = _HEADER.size
_ENTRY_SIZE = _ENTRY.size


def max_entries_per_page(page_payload_size: int) -> int:
    """The branching factor a page of the given payload size supports.

    This is the paper's "extensions to higher branching factors (that
    fill a logical disk block)" — with 4 KiB pages the fan-out is ~100.
    """
    usable = page_payload_size - _NODE_HEADER_SIZE
    if usable < _ENTRY_SIZE:
        raise ValueError(
            f"payload of {page_payload_size} bytes cannot hold any entry")
    return usable // _ENTRY_SIZE


def encode_node(is_leaf: bool, entries) -> bytes:
    """Encode a node — its leaf flag and ``(x1, y1, x2, y2, pointer)``
    entries — as a page payload."""
    if len(entries) > 0xFFFF:
        raise ValueError("entry count exceeds the u16 on-disk field")
    parts = [_HEADER.pack(int(is_leaf), len(entries))]
    pack = _ENTRY.pack
    for x1, y1, x2, y2, pointer in entries:
        if pointer < 0:
            raise ValueError("on-disk pointers must be non-negative")
        parts.append(pack(x1, y1, x2, y2, pointer))
    return b"".join(parts)


class PageEntries(Sequence):
    """A node page's ``(x1, y1, x2, y2, pointer)`` entries.

    The first pass over a freshly read page unpacks the entries straight
    off its bytes, tuple by tuple; any later access decodes them once into
    a tuple that is kept.  A buffer frame holds this beside the page's
    bytes, so a page read once while resident costs no more than that one
    streamed pass, and a page read again is decoded once.
    """

    __slots__ = ("_view", "_count", "_decoded", "_read")

    def __init__(self, view: memoryview, count: int):
        self._view = view
        self._count = count
        self._decoded: tuple[tuple, ...] | None = None
        self._read = False

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        if self._decoded is not None:
            return iter(self._decoded)
        if not self._read:
            self._read = True
            return _ENTRY.iter_unpack(self._view)
        return iter(self._entries())

    def __getitem__(self, index):
        return self._entries()[index]

    def __contains__(self, entry) -> bool:
        return entry in self._entries()

    def _entries(self) -> tuple[tuple, ...]:
        if self._decoded is None:
            self._decoded = tuple(_ENTRY.iter_unpack(self._view))
        return self._decoded


def decode_node(payload: bytes) -> tuple[bool, PageEntries]:
    """The node decoder: ``(is_leaf, entries)`` of a page payload.

    *entries* is the page's :class:`PageEntries` — the node image the
    R-tree core reads (:mod:`repro.rtree.tree`).

    Raises:
        ValueError: on truncated or inconsistent payloads.
    """
    if len(payload) < _NODE_HEADER_SIZE:
        raise ValueError("payload too short for a node header")
    is_leaf, count = _HEADER.unpack_from(payload)
    end = _NODE_HEADER_SIZE + count * _ENTRY_SIZE
    if len(payload) < end:
        raise ValueError(
            f"payload holds {len(payload)} bytes but header promises "
            f"{end}")
    return bool(is_leaf), PageEntries(
        memoryview(payload)[_NODE_HEADER_SIZE:end], count)
