"""Unit tests for the LRU buffer pool."""

import pytest

from repro.storage.buffer import BufferFullError, BufferPool
from repro.storage.pager import Pager


@pytest.fixture()
def pager(tmp_path):
    p = Pager(tmp_path / "pool.db", page_size=512)
    yield p
    p.close()


def make_pages(pager, n):
    pages = []
    for i in range(n):
        page = pager.allocate()
        pager.write_page(page, f"page-{i}".encode())
        pages.append(page)
    return pages


def test_get_faults_in_and_caches(pager):
    [page] = make_pages(pager, 1)
    pool = BufferPool(pager, capacity=4)
    assert pool.get(page) == b"page-0"
    assert pool.stats.misses == 1
    assert pool.get(page) == b"page-0"
    assert pool.stats.hits == 1


def test_capacity_must_be_positive(pager):
    with pytest.raises(ValueError):
        BufferPool(pager, capacity=0)


def test_lru_eviction_order(pager):
    pages = make_pages(pager, 3)
    pool = BufferPool(pager, capacity=2)
    pool.get(pages[0])
    pool.get(pages[1])
    pool.get(pages[0])      # page 0 is now most recent
    pool.get(pages[2])      # evicts page 1 (least recent)
    assert pool.stats.evictions == 1
    reads_before = pager.reads
    pool.get(pages[0])      # still resident
    assert pager.reads == reads_before
    pool.get(pages[1])      # was evicted: physical read
    assert pager.reads == reads_before + 1


def test_dirty_page_written_back_on_eviction(pager):
    pages = make_pages(pager, 2)
    pool = BufferPool(pager, capacity=1)
    pool.put(pages[0], b"modified")
    pool.get(pages[1])  # evicts dirty page 0
    assert pool.stats.writebacks == 1
    assert pager.read_page(pages[0]).data == b"modified"


def test_flush_writes_all_dirty(pager):
    pages = make_pages(pager, 3)
    pool = BufferPool(pager, capacity=8)
    for i, page in enumerate(pages):
        pool.put(page, f"dirty-{i}".encode())
    pool.flush()
    for i, page in enumerate(pages):
        assert pager.read_page(page).data == f"dirty-{i}".encode()


def test_flush_clears_dirty_flag(pager):
    [page] = make_pages(pager, 1)
    pool = BufferPool(pager, capacity=2)
    pool.put(page, b"once")
    pool.flush()
    writebacks = pool.stats.writebacks
    pool.flush()
    assert pool.stats.writebacks == writebacks  # nothing left to write


def test_put_updates_resident_frame(pager):
    [page] = make_pages(pager, 1)
    pool = BufferPool(pager, capacity=2)
    pool.get(page)
    pool.put(page, b"v2")
    assert pool.get(page) == b"v2"


def test_pinned_pages_survive_pressure(pager):
    pages = make_pages(pager, 4)
    pool = BufferPool(pager, capacity=2)
    pool.pin(pages[0])
    pool.get(pages[1])
    pool.get(pages[2])  # evicts pages[1], never pages[0]
    pool.get(pages[3])
    assert pool.get(pages[0]) == b"page-0"
    hits = pool.stats.hits
    pool.get(pages[0])
    assert pool.stats.hits == hits + 1  # still resident


def test_all_pinned_raises(pager):
    pages = make_pages(pager, 3)
    pool = BufferPool(pager, capacity=2)
    pool.pin(pages[0])
    pool.pin(pages[1])
    with pytest.raises(BufferFullError):
        pool.get(pages[2])


def test_unpin_releases(pager):
    pages = make_pages(pager, 3)
    pool = BufferPool(pager, capacity=2)
    pool.pin(pages[0])
    pool.pin(pages[1])
    pool.unpin(pages[0])
    pool.get(pages[2])  # now possible
    assert pool.resident == 2


def test_unpin_unpinned_raises(pager):
    [page] = make_pages(pager, 1)
    pool = BufferPool(pager, capacity=2)
    pool.get(page)
    with pytest.raises(ValueError):
        pool.unpin(page)


def test_invalidate_drops_without_writeback(pager):
    [page] = make_pages(pager, 1)
    pool = BufferPool(pager, capacity=2)
    pool.put(page, b"doomed")
    pool.invalidate(page)
    assert pager.read_page(page).data == b"page-0"  # unchanged on disk


def test_clear_flushes_then_drops(pager):
    [page] = make_pages(pager, 1)
    pool = BufferPool(pager, capacity=2)
    pool.put(page, b"kept")
    pool.clear()
    assert pool.resident == 0
    assert pager.read_page(page).data == b"kept"


def test_hit_rate(pager):
    [page] = make_pages(pager, 1)
    pool = BufferPool(pager, capacity=2)
    assert pool.stats.hit_rate == 0.0
    pool.get(page)
    pool.get(page)
    pool.get(page)
    assert pool.stats.hit_rate == pytest.approx(2 / 3)


# -- leaf-first replacement ---------------------------------------------------


def decode_tagged(payload):
    """A node image ``(is_leaf, payload)``: pages tagged ``inner`` decode
    as internal nodes, every other page as a leaf."""
    return not payload.startswith(b"inner"), payload


def make_tagged(pager, tags):
    pages = []
    for tag in tags:
        page = pager.allocate()
        pager.write_page(page, tag.encode())
        pages.append(page)
    return pages


def test_internal_frames_outlive_leaf_frames(pager):
    inner = make_tagged(pager, ["inner-0", "inner-1"])
    leaves = make_tagged(pager, [f"leaf-{i}" for i in range(6)])
    pool = BufferPool(pager, capacity=4)
    for page in inner:          # the two least recently used frames
        assert pool.get_decoded(page, decode_tagged)[0] is False
    for page in leaves:         # six leaves through two free frames
        assert pool.get_decoded(page, decode_tagged)[0] is True
    assert pool.stats.evictions == 4
    reads = pager.reads
    for page in inner + leaves[-2:]:
        pool.get(page)
    assert pager.reads == reads             # all still resident
    pool.get(leaves[0])
    assert pager.reads == reads + 1         # evicted long ago


def test_internal_frames_fall_back_to_lru(pager):
    inner = make_tagged(pager, [f"inner-{i}" for i in range(3)])
    pool = BufferPool(pager, capacity=2)
    for page in inner:
        pool.get_decoded(page, decode_tagged)
    reads = pager.reads
    pool.get(inner[2])
    pool.get(inner[1])
    assert pager.reads == reads
    pool.get(inner[0])                      # plain LRU evicted it
    assert pager.reads == reads + 1


def test_an_undecoded_or_rewritten_page_is_a_leaf_frame(pager):
    inner = make_tagged(pager, ["inner-0", "inner-1"])
    [leaf] = make_tagged(pager, ["leaf-0"])
    pool = BufferPool(pager, capacity=2)
    pool.get_decoded(inner[0], decode_tagged)
    pool.get(inner[1])                      # bytes only: not kept longer
    pool.get(leaf)                          # evicts inner[1], not inner[0]
    reads = pager.reads
    pool.get(inner[0])
    assert pager.reads == reads
    pool.put(inner[0], b"leaf-now")         # no image: a plain frame again
    pool.get_decoded(inner[1], decode_tagged)
    pool.get(leaf)                          # evicts inner[0]'s new bytes
    assert pool.stats.writebacks == 1
    assert pager.read_page(inner[0]).data == b"leaf-now"


def test_pinned_frames_are_never_victims(pager):
    inner = make_tagged(pager, ["inner-0"])
    leaves = make_tagged(pager, [f"leaf-{i}" for i in range(5)])
    pool = BufferPool(pager, capacity=3)
    pool.pin(leaves[0])                     # head of the leaf list
    pool.get_decoded(inner[0], decode_tagged)
    pool.pin(inner[0])
    for page in leaves[1:]:                 # three leaves through one frame
        pool.get_decoded(page, decode_tagged)
    reads = pager.reads
    pool.get(leaves[0])
    pool.get(inner[0])
    assert pager.reads == reads
    pool.pin(leaves[4])                     # every frame pinned now
    with pytest.raises(BufferFullError):
        pool.get(leaves[1])
    pool.unpin(inner[0])
    pool.get(leaves[1])                     # the internal frame goes last
    assert pool.resident == 3
    assert pool.get(leaves[0]) == b"leaf-0"


# -- what the disk tree and the benchmark spans rely on ---------------------


def test_a_wrapped_get_sees_every_fetch_once(tmp_path):
    from repro.geometry import Rect
    from repro.storage.disk_rtree import DiskRTree

    items = [(Rect(i, i, i + 1, i + 1), i) for i in range(300)]
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8,
                   buffer_capacity=4) as tree:
        tree.bulk_load(items)
        tree.pool.clear()
        calls, reads = [], []
        inner_get, inner_read = tree.pool.get, tree.pager.read_page

        def get(page_no):
            calls.append(page_no)
            before = len(reads)
            payload = inner_get(page_no)
            # a miss reads its page inside get, a hit reads nothing
            assert len(reads) - before in (0, 1)
            return payload

        def read_page(page_no):
            reads.append(page_no)
            return inner_read(page_no)

        tree.pool.get = get
        tree.pager.read_page = read_page
        refs = [ref for _lvl, ref, _is_leaf, _e in tree.walk()]
        calls.clear()
        reads.clear()
        misses = tree.pool.stats.misses
        fetched = refs + refs[-1:] * 2      # the last twice more: hits
        for ref in fetched:
            tree.store.fetch(ref)
        assert calls == fetched
        assert len(reads) == tree.pool.stats.misses - misses
        assert 0 < len(reads) < len(calls)
        del tree.pool.get, tree.pager.read_page


def test_tree_upper_levels_stay_resident(tmp_path):
    from repro.geometry import Rect
    from repro.storage.disk_rtree import DiskRTree

    items = [(Rect(i % 50, i // 50, i % 50 + 1, i // 50 + 1), i)
             for i in range(2500)]
    with DiskRTree(str(tmp_path / "t.db"), max_entries=8,
                   buffer_capacity=64) as tree:
        tree.bulk_load(items)
        inner = [ref for _lvl, ref, is_leaf, _e in tree.walk()
                 if not is_leaf]
        assert len(inner) < 64
        for i in range(0, 2500, 7):
            tree.search(Rect(i % 50, i // 50, i % 50 + 2, i // 50 + 2))
        reads = tree.pager.reads
        for ref in inner:
            tree.store.fetch(ref)
        assert tree.pager.reads == reads


def test_unlogged_pager_reads_what_it_just_wrote(tmp_path):
    path = tmp_path / "nowal.db"
    pager = Pager(path, page_size=512)
    try:
        [page] = make_pages(pager, 1)
        assert pager.read_page(page).data == b"page-0"
        pager.write_page(page, b"rewritten")
        # the bytes are in the file at once, not in a Python buffer ...
        with open(path, "rb") as f:
            f.seek(page * 512)
            assert b"rewritten" in f.read(512)
        # ... so a positioned read of the descriptor sees them
        assert pager.read_page(page).data == b"rewritten"
    finally:
        pager.close()


@pytest.mark.parametrize("meanwhile", ["rewritten", "evicted"])
def test_a_page_changed_between_read_and_decode_is_not_kept(pager, meanwhile):
    [page] = make_tagged(pager, ["inner-old"])
    pool = BufferPool(pager, capacity=2)
    inner_get = pool.get

    def get(page_no):       # another thread's work lands in between
        payload = inner_get(page_no)
        if meanwhile == "rewritten":
            pool.put(page_no, b"inner-new")
        else:
            pool.invalidate(page_no)
        return payload

    pool.get = get
    assert pool.get_decoded(page, decode_tagged) == (False, b"inner-old")
    del pool.get
    want = b"inner-new" if meanwhile == "rewritten" else b"inner-old"
    assert pool.get_decoded(page, decode_tagged) == (False, want)
