"""The generation-checked LRU result cache."""

import pytest

from repro.geometry import Point
from repro.psql.result import QueryResult
from repro.server import binproto, protocol
from repro.server.cache import QueryCache


PAYLOAD = ("COLS a", "ROW 1", "END")


class TestQueryCache:
    def test_miss_then_hit(self):
        cache = QueryCache(capacity=4)
        assert cache.get("q", 0) is None
        cache.put("q", 0, PAYLOAD, 1)
        entry = cache.get("q", 0)
        assert entry is not None
        assert entry.payload == PAYLOAD
        assert entry.nrows == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_generation_isolates_entries(self):
        cache = QueryCache(capacity=4)
        cache.put("q", 0, PAYLOAD, 1)
        assert cache.get("q", 1) is None      # newer generation: stale
        assert cache.get("q", 0) is not None  # old key still addressable

    def test_lru_eviction_order(self):
        cache = QueryCache(capacity=2)
        cache.put("a", 0, PAYLOAD, 1)
        cache.put("b", 0, PAYLOAD, 1)
        assert cache.get("a", 0) is not None  # refresh a; b becomes LRU
        cache.put("c", 0, PAYLOAD, 1)
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) is not None
        assert cache.get("c", 0) is not None
        assert cache.evictions == 1

    def test_capacity_zero_disables(self):
        cache = QueryCache(capacity=0)
        cache.put("q", 0, PAYLOAD, 1)
        assert cache.get("q", 0) is None
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=-1)

    def test_drop_stale(self):
        cache = QueryCache(capacity=8)
        cache.put("a", 0, PAYLOAD, 1)
        cache.put("b", 1, PAYLOAD, 1)
        cache.put("c", 2, PAYLOAD, 1)
        dropped = cache.drop_stale(current_generation=2)
        assert dropped == 2
        assert len(cache) == 1
        assert cache.get("c", 2) is not None

    def test_hit_rate_and_stats(self):
        cache = QueryCache(capacity=4)
        cache.put("q", 0, PAYLOAD, 1)
        cache.get("q", 0)
        cache.get("other", 0)
        assert cache.hit_rate == pytest.approx(0.5)
        stats = cache.stats()
        assert stats["server.cache.hits"] == 1.0
        assert stats["server.cache.misses"] == 1.0
        assert stats["server.cache.hit_rate"] == pytest.approx(0.5)
        assert stats["server.cache.size"] == 1.0


class TestOneRenderingDerivesTheOther:
    """An entry is stored with the rendering its producer spoke; the
    other codec's is derived on demand, identical to a direct render."""

    RESULTS = [
        QueryResult(("city", "loc", "population"),
                    [("Boston", Point(1.5, 2.0), 650_000),
                     ("tab\there", Point(0, 0), 0),
                     ("back\\slash\nnewline\r", Point(-1, 1e300), -3)]),
        QueryResult(("name",), [("",), ("x",), ("",)]),
        QueryResult(("a", "b"), [("", ""), ("\x0b\x0c\x1c", "\x85\u2028")]),
        QueryResult(("empty",)),
    ]

    @pytest.mark.parametrize("result", RESULTS)
    def test_binary_from_text(self, result):
        cache = QueryCache(capacity=4)
        cache.put("q", 0, tuple(protocol.encode_result(result)),
                  len(result.rows))
        entry = cache.get("q", 0)
        assert entry.bbody == b""
        assert entry.binary() == binproto.encode_result_body(result)
        assert entry.bbody == entry.binary()          # kept
        assert entry.text() == tuple(protocol.encode_result(result))

    @pytest.mark.parametrize("result", RESULTS)
    def test_text_from_binary(self, result):
        cache = QueryCache(capacity=4)
        cache.put("q", 0, (), len(result.rows),
                  binproto.encode_result_body(result))
        entry = cache.get("q", 0)
        assert entry.payload == ()
        assert entry.text() == tuple(protocol.encode_result(result))
        assert entry.payload == entry.text()          # kept
        assert entry.binary() == binproto.encode_result_body(result)

    def test_deriving_is_not_a_lookup(self):
        cache = QueryCache(capacity=4)
        cache.put("q", 0, PAYLOAD, 1)
        entry = cache.get("q", 0)
        entry.binary()
        assert (cache.hits, cache.misses) == (1, 0)


class TestConcurrentStats:
    """stats()/__len__/hit_rate take the lock: no torn values under load.

    Regression for the unsynchronised readers: a stats() snapshot taken
    while get/put traffic is mutating the OrderedDict could observe a
    mid-rebalance dict (RuntimeError) or internally inconsistent
    counters (a hit_rate disagreeing with the hits/misses beside it).
    """

    def test_stats_hammer(self):
        import threading

        cache = QueryCache(capacity=32)
        stop = threading.Event()
        failures: list[BaseException] = []

        def mutate(seed: int) -> None:
            n = 0
            while not stop.is_set():
                key = f"q{(seed * 31 + n) % 100}"
                cache.put(key, 0, PAYLOAD, 1)
                cache.get(key, 0)
                cache.get(f"miss{n}", 0)
                if n % 50 == 0:
                    cache.drop_stale(0)
                n += 1

        def observe() -> None:
            try:
                while not stop.is_set():
                    snap = cache.stats()
                    # The snapshot must be self-consistent: the rate was
                    # computed from the very hits/misses it ships with.
                    total = (snap["server.cache.hits"]
                             + snap["server.cache.misses"])
                    expected = (snap["server.cache.hits"] / total
                                if total else 0.0)
                    assert snap["server.cache.hit_rate"] == expected
                    assert 0 <= snap["server.cache.size"] <= 32
                    len(cache)
                    _ = cache.hit_rate
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                failures.append(exc)

        mutators = [threading.Thread(target=mutate, args=(i,))
                    for i in range(4)]
        observers = [threading.Thread(target=observe) for _ in range(2)]
        for t in mutators + observers:
            t.start()
        import time

        time.sleep(0.8)
        stop.set()
        for t in mutators + observers:
            t.join(10)
        assert not failures, failures

    def test_stats_snapshot_is_atomic_against_injected_pause(self):
        """Deterministic torn-read check: freeze a mutation mid-flight
        (lock held) and prove stats() blocks rather than reading through."""
        import threading

        cache = QueryCache(capacity=4)
        cache.put("q", 0, PAYLOAD, 1)
        in_critical = threading.Event()
        release = threading.Event()

        def slow_put() -> None:
            with cache._lock:
                cache.hits += 1000  # half of a torn update...
                in_critical.set()
                release.wait(5)
                cache.hits -= 1000  # ...undone before the lock drops

        t = threading.Thread(target=slow_put)
        t.start()
        assert in_critical.wait(5)
        done = threading.Event()
        snap: dict[str, float] = {}

        def read_stats() -> None:
            snap.update(cache.stats())
            done.set()

        r = threading.Thread(target=read_stats)
        r.start()
        # The reader must be blocked on the lock, not seeing hits=1000.
        assert not done.wait(0.2)
        release.set()
        t.join(5)
        r.join(5)
        assert snap["server.cache.hits"] == 0.0
