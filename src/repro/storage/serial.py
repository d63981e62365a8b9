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
from dataclasses import dataclass

_HEADER = struct.Struct("<BH")
_ENTRY = struct.Struct("<ddddQ")
_NODE_HEADER_SIZE = _HEADER.size
_ENTRY_SIZE = _ENTRY.size


@dataclass(frozen=True)
class NodeRecord:
    """A serialisable node image.

    Attributes:
        is_leaf: leaf flag.
        entries: ``(x1, y1, x2, y2, pointer)`` tuples; *pointer* is a
            child page number for interior nodes and an object id at the
            leaf level.
    """

    is_leaf: bool
    entries: tuple[tuple[float, float, float, float, int], ...]


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


def serialize_node(record: NodeRecord) -> bytes:
    """Encode *record* as a page payload."""
    if len(record.entries) > 0xFFFF:
        raise ValueError("entry count exceeds the u16 on-disk field")
    parts = [_HEADER.pack(int(record.is_leaf), len(record.entries))]
    pack = _ENTRY.pack
    for x1, y1, x2, y2, pointer in record.entries:
        if pointer < 0:
            raise ValueError("on-disk pointers must be non-negative")
        parts.append(pack(x1, y1, x2, y2, pointer))
    return b"".join(parts)


def deserialize_node(payload: bytes) -> NodeRecord:
    """Decode a page payload produced by :func:`serialize_node`.

    Raises:
        ValueError: on truncated or inconsistent payloads.
    """
    is_leaf, _count, entries = iter_node_entries(payload)
    return NodeRecord(is_leaf=is_leaf, entries=tuple(entries))


def iter_node_entries(payload: bytes):
    """The node decoder: ``(is_leaf, count, entries)`` of a page payload.

    *entries* is a ``struct.iter_unpack`` iterator yielding
    ``(x1, y1, x2, y2, pointer)`` tuples directly from a memoryview of
    the payload — no :class:`NodeRecord`, no intermediate list — so
    read-only traversals decode nothing they do not test.

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
    view = memoryview(payload)[_NODE_HEADER_SIZE:end]
    return bool(is_leaf), count, _ENTRY.iter_unpack(view)
