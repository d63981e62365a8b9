"""Server throughput: QPS vs. worker count vs. client concurrency.

The server runs queries on one thread pool over its one database.
Searches are CPU-bound pure Python, so the pool is bounded by the GIL:
more workers overlap only socket I/O and hand-off, and the sweep records
how throughput holds up as workers and clients grow rather than a
speed-up.  The result cache is disabled throughout — every query must
actually walk the tree, otherwise replay masks the pool entirely.

Two sweeps, written to ``benchmarks/out/server_throughput.txt``:

1. QPS vs. workers (1 -> 2 -> 4) at fixed client concurrency;
2. QPS vs. concurrent clients at the largest worker count.

Smoke knobs (CI): ``REPRO_SERVER_BENCH_QUERIES`` (queries per client
per config), ``REPRO_DEMO_SCALE`` (database size multiplier).
"""

from __future__ import annotations

import os
import random
import threading
import time

from repro.relational.catalog import Database
from repro.server.client import Client
from repro.server.demo import bench_database
from repro.server.server import PsqlServer, ServerConfig

OUT_PATH = os.path.join(os.path.dirname(__file__), "out",
                        "server_throughput.txt")

QUERIES_PER_CLIENT = int(os.environ.get("REPRO_SERVER_BENCH_QUERIES",
                                        "150"))
#: Minimum binary/text QPS ratio on the cached-read benchmark: binary
#: must not be slower.  (The floor was 5.0 while the text client decoded
#: every field character by character; with that loop gone the gap it
#: measured is gone too.  benchmarks/spine owns the absolute numbers.)
RATIO_FLOOR = float(os.environ.get("REPRO_SERVER_BENCH_RATIO_FLOOR",
                                   "1.0"))
#: Opens the cached-reads line, the second section of ``OUT_PATH``.
CACHED_MARKER = "cached reads:"
WORKER_COUNTS = (1, 2, 4)
CLIENT_COUNTS = (1, 4, 8)
FIXED_CLIENTS = 8


def _query_mix(rng: random.Random, n: int) -> list[str]:
    """CPU-bound queries: varied windows + filters + one join flavour."""
    out = []
    for i in range(n):
        x = rng.uniform(150, 850)
        y = rng.uniform(150, 850)
        dx = rng.uniform(120, 320)
        dy = rng.uniform(120, 320)
        kind = i % 3
        if kind == 0:
            out.append(f"select city from cities on us-map "
                       f"at loc covered-by {{{x:.1f}+-{dx:.1f}, "
                       f"{y:.1f}+-{dy:.1f}}}")
        elif kind == 1:
            out.append(f"select city, population from cities on us-map "
                       f"at loc covered-by {{{x:.1f}+-{dx:.1f}, "
                       f"{y:.1f}+-{dy:.1f}}} "
                       f"where population > 250_000")
        else:
            out.append(f"select state from states on us-map "
                       f"at loc intersecting {{{x:.1f}+-{dx:.1f}, "
                       f"{y:.1f}+-{dy:.1f}}}")
    return out


def _drive(host: str, port: int, clients: int,
           queries_per_client: int, seed: int) -> tuple[float, int]:
    """Run the workload; returns (elapsed seconds, completed queries)."""
    errors: list[str] = []
    completed = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client_main(idx: int) -> None:
        rng = random.Random(seed + idx)
        queries = _query_mix(rng, queries_per_client)
        try:
            with Client(host, port, timeout=120.0) as c:
                barrier.wait()
                for q in queries:
                    r = c.query(q)
                    if r.ok:
                        with lock:
                            completed[0] += 1
                    else:
                        with lock:
                            errors.append(f"{r.status}: "
                                          f"{r.error_message}")
        except Exception as exc:  # noqa: BLE001
            with lock:
                errors.append(f"{type(exc).__name__}: {exc}")
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [threading.Thread(target=client_main, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise AssertionError(f"bench clients failed: {errors[:3]}")
    return elapsed, completed[0]


def _measure(db: Database, workers: int, clients: int,
             queries_per_client: int) -> float:
    """QPS of one server configuration over *db* (cache disabled)."""
    config = ServerConfig(port=0, workers=workers, cache_size=0,
                          max_inflight=4 * max(clients, 1),
                          query_timeout=120.0)
    server = PsqlServer(config, db=db)
    host, port = server.start_background()
    try:
        # Warm up: spin up every pool worker before the timed section.
        _drive(host, port, clients, max(2 * workers // max(clients, 1), 2),
               seed=999)
        elapsed, completed = _drive(host, port, clients,
                                    queries_per_client, seed=1234)
        assert completed == clients * queries_per_client
        return completed / elapsed
    finally:
        server.stop_background()


def run_bench() -> dict:
    db = bench_database()
    results: dict = {"workers": [], "clients": []}
    for w in WORKER_COUNTS:
        qps = _measure(db, w, FIXED_CLIENTS, QUERIES_PER_CLIENT)
        results["workers"].append((w, qps))
    for c in CLIENT_COUNTS:
        qps = _measure(db, WORKER_COUNTS[-1], c,
                       max(QUERIES_PER_CLIENT // 2, 20))
        results["clients"].append((c, qps))
    return results


def write_report(results: dict) -> str:
    lines = [
        "Server throughput (thread pool, result cache disabled)",
        f"cores={os.cpu_count() or 1} queries/client={QUERIES_PER_CLIENT} "
        f"db-scale={os.environ.get('REPRO_DEMO_SCALE', '2')}",
        "",
        f"QPS vs workers (clients={FIXED_CLIENTS}):",
    ]
    for w, qps in results["workers"]:
        lines.append(f"  workers={w:<2d}  qps={qps:8.1f}")
    lines.append("")
    lines.append(f"QPS vs clients (workers={WORKER_COUNTS[-1]}):")
    for c, qps in results["clients"]:
        lines.append(f"  clients={c:<2d}  qps={qps:8.1f}")
    report = "\n".join(lines) + "\n"
    _write_section(sweep=report)
    return report


def _write_section(sweep: str = "", cached: str = "") -> None:
    """Rewrite ``OUT_PATH`` with the worker/client sweep and the
    cached-reads line, keeping whichever of the two this call does not
    bring: the tests that write them may run in either order."""
    try:
        with open(OUT_PATH, encoding="utf-8") as fh:
            old = fh.read()
    except FileNotFoundError:
        old = ""
    old_sweep, marker, old_cached = old.partition(CACHED_MARKER)
    sweep = (sweep or old_sweep).strip()
    cached = cached or (marker + old_cached).strip()
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(part for part in (sweep, cached) if part)
                 + "\n")


def _cached_read_mix(rng: random.Random, n: int) -> list[str]:
    """Row-heavy window queries for the cached-read protocol gate.

    Cached reads are where result *transport* dominates — the server
    replays memoized bytes, so nearly all per-request cost is framing
    and client-side decode, which scales with rows returned.  Wide
    windows make that cost visible; tiny-result queries would measure
    only the fixed dispatch floor both protocols share.
    """
    out = []
    for i in range(n):
        x = rng.uniform(350, 650)
        y = rng.uniform(350, 650)
        dx = rng.uniform(250, 450)
        dy = rng.uniform(250, 450)
        if i % 2:
            out.append(f"select city, state, population from cities "
                       f"on us-map at loc covered-by "
                       f"{{{x:.1f}+-{dx:.1f}, {y:.1f}+-{dy:.1f}}}")
        else:
            out.append(f"select city, population from cities on us-map "
                       f"at loc covered-by {{{x:.1f}+-{dx:.1f}, "
                       f"{y:.1f}+-{dy:.1f}}} "
                       f"where population > 100_000")
    return out


def _drive_cached(host: str, port: int, queries: list[str],
                  rounds: int, binary: bool) -> float:
    """QPS of one client replaying *queries* for *rounds* passes.

    Binary clients PREPARE each distinct query once and EXECUTE the
    handle thereafter; text clients resend the full QUERY line.  Both
    hit the server's result cache after the first pass, so this
    measures pure protocol + dispatch overhead per request.
    """
    with Client(host, port, timeout=120.0, binary=binary) as c:
        if binary:
            assert c.binary, "HELLO bin was not acknowledged"
            handles = [c.prepare(q) for q in queries]
            for stmt in handles:       # warm the cache
                assert c.execute(stmt).ok
            start = time.perf_counter()
            for _ in range(rounds):
                for stmt in handles:
                    assert c.execute(stmt).ok
        else:
            for q in queries:          # warm the cache
                assert c.query(q).ok
            start = time.perf_counter()
            for _ in range(rounds):
                for q in queries:
                    assert c.query(q).ok
        elapsed = time.perf_counter() - start
    return (rounds * len(queries)) / elapsed


def test_cached_read_protocols():
    """The zero-copy hot path gate: binary+prepared >= RATIO_FLOOR x
    text QPS on cached reads served by one server."""
    rng = random.Random(7)
    queries = _cached_read_mix(rng, 12)
    # Cached hits are ~100us apiece: measure thousands of them, or the
    # ratio drowns in GIL/scheduler noise between the two threads.
    rounds = max(QUERIES_PER_CLIENT // len(queries), 5) * 20
    config = ServerConfig(port=0, workers=2, cache_size=256,
                          query_timeout=120.0)
    server = PsqlServer(config, db=bench_database())
    host, port = server.start_background()
    try:
        text_qps = _drive_cached(host, port, queries, rounds,
                                 binary=False)
        binary_qps = _drive_cached(host, port, queries, rounds,
                                   binary=True)
    finally:
        server.stop_background()
    ratio = binary_qps / text_qps
    report = (f"{CACHED_MARKER} text={text_qps:8.1f} qps  "
              f"binary+prepared={binary_qps:8.1f} qps  "
              f"ratio={ratio:.2f}x (floor {RATIO_FLOOR:g}x)")
    print()
    print(report)
    _write_section(cached=report)
    assert ratio >= RATIO_FLOOR, (
        f"binary protocol only {ratio:.2f}x text on cached reads "
        f"(floor {RATIO_FLOOR:g}x): text={text_qps:.1f} "
        f"binary={binary_qps:.1f}")


def test_server_throughput():
    results = run_bench()
    print()
    print(write_report(results))
    assert all(qps > 0 for _n, qps in
               results["workers"] + results["clients"])


if __name__ == "__main__":
    test_server_throughput()
    test_cached_read_protocols()
