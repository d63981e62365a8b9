"""BufferPool under concurrent readers.

The query server's thread pool shares one ``Database`` — and with it any
disk-backed index — across workers.  A tiny pool (capacity 8 for a tree
of dozens of pages) maximises eviction churn, so frames are constantly
recycled while other threads read through them; without the pool's lock
this corrupts frame state and returns wrong pages.
"""

import random
import sys
import threading

import pytest

from repro.geometry import Rect
from repro.storage.disk_rtree import DiskRTree

N_OBJECTS = 400
N_WINDOWS = 24
N_THREADS = 8
ROUNDS = 6


def _random_items(rng):
    items = []
    for oid in range(N_OBJECTS):
        x = rng.uniform(0, 980)
        y = rng.uniform(0, 980)
        items.append((Rect(x, y, x + rng.uniform(0, 20),
                           y + rng.uniform(0, 20)), oid))
    return items


def _random_windows(rng):
    windows = []
    for _ in range(N_WINDOWS):
        x = rng.uniform(0, 800)
        y = rng.uniform(0, 800)
        windows.append(Rect(x, y, x + rng.uniform(20, 200),
                            y + rng.uniform(20, 200)))
    return windows


@pytest.fixture()
def churning_tree(tmp_path):
    """A disk tree far larger than its 8-frame buffer pool."""
    tree = DiskRTree(str(tmp_path / "concurrent.rtree"),
                     max_entries=8, buffer_capacity=8)
    tree.bulk_load(_random_items(random.Random(42)))
    yield tree
    tree.close()


class TestConcurrentSearch:
    def test_threaded_searches_match_single_threaded(self, churning_tree):
        windows = _random_windows(random.Random(7))
        expected = [sorted(churning_tree.search(w)) for w in windows]

        failures = []
        lock = threading.Lock()
        barrier = threading.Barrier(N_THREADS)

        def worker(seed):
            rng = random.Random(seed)
            order = list(range(len(windows)))
            try:
                barrier.wait(timeout=30)
                for _ in range(ROUNDS):
                    rng.shuffle(order)
                    for i in order:
                        got = sorted(churning_tree.search(windows[i]))
                        if got != expected[i]:
                            with lock:
                                failures.append(
                                    f"window {i}: {len(got)} ids, "
                                    f"expected {len(expected[i])}")
            except Exception as exc:  # noqa: BLE001
                with lock:
                    failures.append(f"thread {seed}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not failures, failures[:5]

        # The pool really was churning: far more requests than frames,
        # and evictions forced misses beyond the initial faults.
        stats = churning_tree.pool.stats
        assert stats.misses > churning_tree.pool.capacity

    def test_mixed_search_within_and_search(self, churning_tree):
        window = Rect(100, 100, 600, 600)
        expected_any = sorted(churning_tree.search(window))
        expected_within = sorted(churning_tree.search_within(window))

        failures = []
        lock = threading.Lock()

        def worker(kind):
            try:
                for _ in range(ROUNDS):
                    if kind == "any":
                        got = sorted(churning_tree.search(window))
                        want = expected_any
                    else:
                        got = sorted(churning_tree.search_within(window))
                        want = expected_within
                    if got != want:
                        with lock:
                            failures.append(kind)
            except Exception as exc:  # noqa: BLE001
                with lock:
                    failures.append(f"{kind}: {exc!r}")

        threads = [threading.Thread(target=worker,
                                    args=("any" if i % 2 else "within",))
                   for i in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not failures, failures[:5]


def test_lazily_decoded_frames_under_fast_switching(tmp_path):
    """A resident page's entries are decoded by whichever reader reaches
    them second; readers racing there on a tiny switch interval still
    answer like a brute-force scan."""
    items = _random_items(random.Random(5))
    windows = _random_windows(random.Random(9))
    expected = [sorted(oid for rect, oid in items if rect.intersects(w))
                for w in windows]
    tree = DiskRTree(str(tmp_path / "resident.rtree"), max_entries=8,
                     buffer_capacity=256)
    tree.bulk_load(items)
    tree.pool.clear()   # every page starts read from disk, undecoded
    failures = []
    lock = threading.Lock()

    def worker(seed):
        order = list(range(len(windows)))
        random.Random(seed).shuffle(order)
        for i in order * 3:
            got = sorted(tree.search(windows[i]))
            if got != expected[i]:
                with lock:
                    failures.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
        tree.close()
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[:5]


def test_decoded_reads_race_writers_and_eviction(tmp_path):
    """``get_decoded`` reads, then takes the pool lock again to fill the
    frame's image; threads rewriting and evicting the same pages in
    between must never make it return another page's or a torn image,
    nor lose a hit or a miss."""
    from repro.storage.buffer import BufferPool
    from repro.storage.pager import Pager

    pager = Pager(tmp_path / "race.db", page_size=512)
    pages = [pager.allocate() for _ in range(12)]
    for page in pages:
        pager.write_page(page, b"%d:0" % page)
    pool = BufferPool(pager, capacity=4)

    def decode(payload):
        # internal for even pages, so both replacement lists churn
        page, version = payload.split(b":")
        return int(page) % 2 == 1, (int(page), int(version))

    failures = []
    gets = [0] * N_THREADS

    def worker(n):
        rng = random.Random(n)
        try:
            for i in range(400):
                page = rng.choice(pages)
                if n % 4 == 0:
                    payload = b"%d:%d" % (page, i)
                    pool.put(page, payload, decode(payload))
                    continue
                gets[n] += 1
                _is_leaf, (got, _version) = pool.get_decoded(page, decode)
                if got != page:
                    failures.append((page, got))
        except Exception as exc:  # noqa: BLE001
            failures.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[:5]
    assert pool.stats.accesses == sum(gets)
    assert pool.resident <= pool.capacity
    for page in pages:      # no frame kept an image of older bytes
        assert pool.get_decoded(page, decode) == decode(pool.get(page))
    pool.flush()
    pager.close()
