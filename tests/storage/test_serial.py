"""Unit tests for node serialisation."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.serial import (
    decode_node,
    encode_node,
    max_entries_per_page,
)


def roundtrip(is_leaf, entries):
    got_leaf, got = decode_node(encode_node(is_leaf, entries))
    return got_leaf, tuple(got)


def test_roundtrip_leaf():
    entries = ((0.0, 0.0, 1.5, 2.5, 42), (10.0, -3.25, 11.0, -1.0, 7))
    assert roundtrip(True, entries) == (True, entries)


def test_roundtrip_internal():
    entries = ((1.0, 2.0, 3.0, 4.0, 99),)
    is_leaf, got = roundtrip(False, entries)
    assert is_leaf is False
    assert got == entries


def test_roundtrip_empty_node():
    assert roundtrip(True, ()) == (True, ())


def test_entries_stream_once_then_stay_decoded():
    entries = tuple((float(i), 0.0, i + 1.0, 1.0, i) for i in range(5))
    _is_leaf, got = decode_node(encode_node(True, entries))
    assert len(got) == 5
    assert tuple(got) == entries        # the streamed first pass
    assert tuple(got) == entries        # decoded and kept
    assert got[2] == entries[2] and entries[4] in got
    assert list(got[1:3]) == list(entries[1:3])


def test_negative_pointer_rejected():
    with pytest.raises(ValueError):
        encode_node(True, [(0, 0, 1, 1, -1)])


def test_truncated_payload_rejected():
    payload = encode_node(True, [(0.0, 0.0, 1.0, 1.0, 5)])
    with pytest.raises(ValueError):
        decode_node(payload[:-4])


def test_empty_payload_rejected():
    with pytest.raises(ValueError):
        decode_node(b"")


def test_max_entries_per_page():
    # header 3 bytes, entry 40 bytes
    assert max_entries_per_page(4096 - 8) == (4096 - 8 - 3) // 40
    assert max_entries_per_page(43) == 1


def test_max_entries_too_small_page():
    with pytest.raises(ValueError):
        max_entries_per_page(10)


entry_strategy = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(min_value=0, max_value=2**63 - 1),
)


@given(st.booleans(), st.lists(entry_strategy, max_size=50))
@settings(max_examples=100, deadline=None)
def test_roundtrip_property(is_leaf, entries):
    assert roundtrip(is_leaf, entries) == (is_leaf, tuple(entries))
