"""E23 — durability cost: write-ahead logging overhead and recovery speed.

The WAL buys crash safety (acknowledged writes survive ``kill -9``) at
the price of writing every dirtied page twice — once to the log, once
in place.  This experiment measures that price on the insert path in
each sync mode, confirms the *read* path is untouched, and times
recovery as a function of the committed backlog.
"""

import os
import random
import time

import pytest

from repro.geometry import Point, Rect
from repro.relational.catalog import Picture
from repro.relational.persistent import PersistentRelation
from repro.relational.relation import Column
from repro.storage.disk_rtree import DiskRTree

SCHEMA = [Column("name", "str"), Column("v", "int"), Column("loc", "point")]
N = 1500


def _row(i):
    return {"name": f"row-{i}", "v": i,
            "loc": Point(float(i % 971), float((i * 7) % 971))}


def _square(rng):
    x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
    return Rect(x, y, x + 1, y + 1)


def _open(tmp_dir, label, **kw):
    return PersistentRelation("bench", SCHEMA,
                              os.path.join(tmp_dir, f"{label}.db"),
                              page_size=4096, **kw)


@pytest.fixture(scope="module")
def wal_table(report, tmp_path_factory):
    tmp_dir = str(tmp_path_factory.mktemp("wal"))
    lines = [f"Insert throughput vs durability mode (n={N}, 4 KiB pages)",
             f"{'mode':>12} | {'inserts/s':>10} {'rel. cost':>9}"]
    rows = {}
    # "fsync" is what production durability costs; "none" isolates the
    # logging overhead itself from the disk-flush overhead.
    for label, kw in (("off", {"durable": False}),
                      ("wal", {"wal_sync": "none"}),
                      ("wal+fsync", {"wal_sync": "fsync"})):
        rel = _open(tmp_dir, label, **kw)
        t0 = time.perf_counter()
        for i in range(N):
            rel.insert(_row(i))
        elapsed = time.perf_counter() - t0
        rel.close()
        rows[label] = N / elapsed
        lines.append(f"{label:>12} | {rows[label]:>10.0f} "
                     f"{rows['off'] / rows[label]:>8.1f}x")
    report("wal_overhead", "\n".join(lines))
    return rows


def test_wal_overhead_is_bounded(wal_table):
    """Page-double-write without fsync must stay within one order of
    magnitude of raw speed — a regression here means the commit path
    started rewriting more than it logs."""
    assert wal_table["wal"] * 10 >= wal_table["off"]


@pytest.fixture(scope="module")
def recovery_table(report, tmp_path_factory):
    """Recovery time ~ committed backlog: crash with the whole workload
    still in the log (huge checkpoint threshold), then time the reopen."""
    tmp_dir = str(tmp_path_factory.mktemp("walrec"))
    lines = ["Crash recovery time vs backlog (uncheckpointed commits)",
             f"{'commits':>8} | {'wal bytes':>10} {'recover ms':>10}"]
    rows = {}
    for n in (100, 400, 1600):
        path = os.path.join(tmp_dir, f"r{n}.db")
        rel = PersistentRelation("bench", SCHEMA, path, page_size=4096,
                                 wal_sync="none",
                                 checkpoint_bytes=1 << 40)
        for i in range(n):
            rel.insert(_row(i))
        # Crash: force the data file stale by dropping every handle
        # with the full history only in the WAL.
        wal_bytes = rel._heap.pager.wal.size_bytes
        del rel
        t0 = time.perf_counter()
        rel = PersistentRelation("bench", SCHEMA, path, page_size=4096,
                                 wal_sync="none")
        ms = (time.perf_counter() - t0) * 1000
        assert len(rel) == n
        rel.close()
        rows[n] = (wal_bytes, ms)
        lines.append(f"{n:>8} | {wal_bytes:>10} {ms:>10.1f}")
    report("wal_recovery", "\n".join(lines))
    return rows


def test_recovery_restores_every_commit(recovery_table):
    assert set(recovery_table) == {100, 400, 1600}


def test_recovery_scales_roughly_linearly(recovery_table):
    """16x the backlog should not cost more than ~64x the time — replay
    is a single sequential scan plus one write per distinct page."""
    _b100, t100 = recovery_table[100]
    _b1600, t1600 = recovery_table[1600]
    assert t1600 <= max(t100, 1.0) * 64


def test_search_path_pays_nothing(benchmark, tmp_path_factory):
    """The read path never touches the WAL: window queries over a
    durable relation go through the same buffer pool and pager reads
    as before the WAL existed (the <5 % acceptance bar lives in
    bench_storage_io.py; this pins the relation-level path)."""
    tmp_dir = str(tmp_path_factory.mktemp("walsearch"))
    rel = _open(tmp_dir, "search", wal_sync="none")
    for i in range(800):
        rel.insert(_row(i))
    tree = Picture("map", Rect(0, 0, 1000, 1000)).register(
        rel, "loc", max_entries=32)
    window = Rect(200, 200, 500, 500)
    expected = len(tree.search(window))
    result = benchmark(lambda: len(tree.search(window)))
    assert result == expected
    rel.close()


def test_insert_throughput_wal_none(benchmark, tmp_path_factory):
    tmp_dir = str(tmp_path_factory.mktemp("walins"))
    rel = _open(tmp_dir, "ins", wal_sync="none")
    counter = iter(range(10 ** 9))

    def one_insert():
        rel.insert(_row(next(counter)))

    benchmark(one_insert)
    rel.close()


# -- E23b: what one flush asks of the disk ------------------------------------

FLUSH_ITEMS = 20_000
FLUSHES = 20
MUTATIONS_PER_FLUSH = 64  # disk_churn's flush interval


def test_flush_io_calls(report, tmp_path_factory, monkeypatch):
    """Count, not time: the log writes and fsyncs one committing
    ``DiskRTree.flush()`` with a WAL makes, and the data-file fsync that
    only the checkpoint makes.  A report only: the rule itself is
    checked by ``tests/storage/test_wal_fsync.py``."""
    tmp_dir = str(tmp_path_factory.mktemp("walflush"))
    rng = random.Random(23)
    items = [(_square(rng), i) for i in range(FLUSH_ITEMS)]
    tree = DiskRTree(os.path.join(tmp_dir, "t.db"),
                     wal_path=os.path.join(tmp_dir, "t.wal"))
    tree.bulk_load(items)
    tree.flush()
    # Keep checkpoints out of the counted window; the last line counts one.
    tree.pager.checkpoint_bytes = 1 << 40
    data_fd, log_fd = tree.pager._fd, tree.pager.wal._file.fileno()
    calls = []

    def counting(call):
        def counted(fd, *args):
            calls.append((call.__name__, fd))
            return call(fd, *args)
        return counted

    monkeypatch.setattr(os, "fsync", counting(os.fsync))
    monkeypatch.setattr(os, "writev", counting(os.writev))
    live = {oid: rect for rect, oid in items}
    next_oid = FLUSH_ITEMS
    per_flush = []
    for _ in range(FLUSHES):
        for _ in range(MUTATIONS_PER_FLUSH):
            if rng.random() < 0.5:
                oid = rng.choice(list(live))
                tree.delete(live.pop(oid), oid)
            else:
                live[next_oid] = _square(rng)
                tree.insert(live[next_oid], next_oid)
                next_oid += 1
        calls.clear()
        appends = tree.pager.wal.appends
        tree.flush()
        per_flush.append((tree.pager.wal.appends - appends - 1,
                          calls.count(("writev", log_fd)),
                          calls.count(("fsync", log_fd)),
                          calls.count(("fsync", data_fd))))
    calls.clear()
    tree.pager.checkpoint()
    monkeypatch.undo()
    tree.close()
    lines = [f"Disk I/O calls per DiskRTree.flush() with a WAL "
             f"(wal_sync=fsync, {FLUSH_ITEMS} items, M={tree.max_entries}, "
             f"{MUTATIONS_PER_FLUSH} mutations per flush, {FLUSHES} flushes)",
             f"{'':>22} | {'mean':>6} {'min':>4} {'max':>4}"]
    for col, label in enumerate(("pages committed", "log writes",
                                 "log fsyncs", "data-file fsyncs")):
        values = [row[col] for row in per_flush]
        lines.append(f"{label:>22} | {sum(values) / len(values):>6.1f} "
                     f"{min(values):>4} {max(values):>4}")
    lines.append(f"checkpoint: {calls.count(('fsync', data_fd))} data-file "
                 f"fsync, {calls.count(('fsync', log_fd))} log fsync "
                 f"(after the truncate)")
    report("wal_flush_io", "\n".join(lines))
