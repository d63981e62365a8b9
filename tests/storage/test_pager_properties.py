"""Property-based tests for the pager and buffer pool."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager

payloads = st.binary(min_size=0, max_size=400)


@given(st.lists(payloads, min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_write_read_roundtrip_many_pages(tmp_path_factory, blobs):
    tmp = tmp_path_factory.mktemp("pager-prop")
    with Pager(tmp / "p.db", page_size=512) as pager:
        pages = []
        for blob in blobs:
            page = pager.allocate()
            pager.write_page(page, blob)
            pages.append(page)
        for page, blob in zip(pages, blobs):
            assert pager.read_page(page).data == blob


@given(st.lists(st.sampled_from(["alloc", "free"]), min_size=1,
                max_size=60))
@settings(max_examples=40, deadline=None)
def test_alloc_free_interleaving_never_duplicates(tmp_path_factory, ops):
    """Live pages are always distinct, whatever the alloc/free order."""
    tmp = tmp_path_factory.mktemp("pager-alloc")
    with Pager(tmp / "p.db", page_size=512) as pager:
        live: list[int] = []
        for op in ops:
            if op == "alloc" or not live:
                page = pager.allocate()
                assert page not in live
                pager.write_page(page, f"p{page}".encode())
                live.append(page)
            else:
                victim = live.pop()
                pager.free(victim)
        for page in live:
            assert pager.read_page(page).data == f"p{page}".encode()


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                max_size=120),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_buffer_pool_transparent_for_any_access_pattern(
        tmp_path_factory, accesses, capacity):
    """Whatever the access pattern, contents are exact."""
    tmp = tmp_path_factory.mktemp("pool-prop")
    with Pager(tmp / "p.db", page_size=512) as pager:
        pages = []
        for i in range(10):
            page = pager.allocate()
            pager.write_page(page, f"content-{i}".encode())
            pages.append(page)
        pool = BufferPool(pager, capacity=capacity)
        for idx in accesses:
            assert pool.get(pages[idx]) == f"content-{idx}".encode()
        assert pool.resident <= capacity


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          payloads),
                min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_buffered_writes_durable_after_flush(tmp_path_factory, writes):
    tmp = tmp_path_factory.mktemp("pool-write")
    with Pager(tmp / "p.db", page_size=512) as pager:
        pages = [pager.allocate() for _ in range(6)]
        for page in pages:
            pager.write_page(page, b"initial")
        pool = BufferPool(pager, capacity=2)
        final: dict[int, bytes] = {}
        for idx, blob in writes:
            pool.put(pages[idx], blob)
            final[pages[idx]] = blob
        pool.flush()
        for page, blob in final.items():
            assert pager.read_page(page).data == blob
