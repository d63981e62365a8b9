"""Which fsyncs a WAL commit issues, and why fewer of them is still safe.

With a write-ahead log attached, a flush is one log write and one log
fsync; the data file is fsynced only by a checkpoint (and by recovery
and close), just before the log drops the records that could rebuild
it.  The tests here count ``os.fsync`` calls by descriptor, then model
a power loss: the data file falls back to its bytes as of its last
fsync, and reopening with the log must bring back every acknowledged
mutation.
"""

import os
import random

import pytest

from repro.geometry import Point, Rect
from repro.relational import Column
from repro.relational.persistent import PersistentRelation
from repro.storage import failpoints
from repro.storage.disk_rtree import DiskRTree
from repro.storage.pager import Pager
from repro.storage.wal import KIND_COMMIT, KIND_PAGE, WriteAheadLog

_WAL_HEADER_SIZE = 12
_RECORD_HEADER_SIZE = 25


@pytest.fixture
def fsyncs(monkeypatch):
    """Every descriptor handed to ``os.fsync``, in call order."""
    calls = []
    real = os.fsync

    def record(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", record)
    return calls


def wal_pager(tmp_path, wal_sync="fsync"):
    return Pager(tmp_path / "data.db", page_size=512,
                 wal_path=tmp_path / "data.db.wal", wal_sync=wal_sync)


def log_fd(pager):
    return pager.wal._file.fileno()


# -- (a) counted fsyncs ---------------------------------------------------------


def test_wal_sync_fsyncs_the_log_once_and_the_data_file_never(tmp_path,
                                                               fsyncs):
    pager = wal_pager(tmp_path)
    page = pager.allocate()
    pager.write_page(page, b"staged")
    fsyncs.clear()
    pager.sync()
    assert fsyncs == [log_fd(pager)]
    pager.close()


def test_wal_sync_with_nothing_staged_fsyncs_nothing(tmp_path, fsyncs):
    pager = wal_pager(tmp_path)
    pager.write_page(pager.allocate(), b"v")
    pager.commit()
    fsyncs.clear()
    pager.sync()
    assert fsyncs == []
    pager.close()


def test_wal_sync_none_flush_issues_no_fsync(tmp_path, fsyncs):
    pager = wal_pager(tmp_path, wal_sync="none")
    pager.write_page(pager.allocate(), b"v")
    fsyncs.clear()
    pager.sync()
    assert fsyncs == []
    pager.close()


def test_checkpoint_fsyncs_the_data_file_before_truncating_the_log(
        tmp_path, monkeypatch):
    pager = wal_pager(tmp_path)
    pager.write_page(pager.allocate(), b"v")
    pager.commit()
    wal_path = pager.wal.path
    calls = []
    real = os.fsync

    def record(fd):
        calls.append((fd, os.path.getsize(wal_path)))
        real(fd)

    monkeypatch.setattr(os, "fsync", record)
    pager.checkpoint()
    # The data file is fsynced while the log still holds the commit;
    # only then is the log cut back to its header (and fsynced).
    assert calls[0][0] == pager._fd
    assert calls[0][1] > _WAL_HEADER_SIZE
    assert calls[1:] == [(log_fd(pager), _WAL_HEADER_SIZE)]
    pager.close()


def test_sync_without_a_wal_fsyncs_the_data_file(tmp_path, fsyncs):
    pager = Pager(tmp_path / "plain.db", page_size=512)
    pager.write_page(pager.allocate(), b"v")
    fsyncs.clear()
    pager.sync()
    assert fsyncs == [pager._fd]
    pager.close()


def test_disk_tree_flush_is_one_fsync(tmp_path, fsyncs, monkeypatch):
    tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8,
                     wal_path=str(tmp_path / "t.wal"))
    for i in range(50):
        tree.insert(Rect(i, i, i + 1, i + 1), i)
    writes = []
    real = os.writev

    def writev(fd, buffers):
        writes.append((fd, len(buffers)))
        return real(fd, buffers)

    monkeypatch.setattr(os, "writev", writev)
    fsyncs.clear()
    tree.flush()
    assert fsyncs == [log_fd(tree.pager)]
    # Every staged page and the COMMIT record go out in one call.
    [(fd, buffers)] = writes
    assert fd == log_fd(tree.pager) and buffers > 2
    tree.close()


# -- (b) power loss ---------------------------------------------------------------


class PowerLoss:
    """Keeps a file's bytes as of its last fsync; :meth:`strike` puts them
    back, as a power loss would leave a file whose later writes sat in
    the page cache."""

    def __init__(self, monkeypatch, path):
        self.path = path
        self.snapshot = b""
        self.snapshots = 0
        real = os.fsync

        def fsync(fd):
            real(fd)
            if os.fstat(fd).st_ino == os.stat(path).st_ino:
                with open(path, "rb") as f:
                    self.snapshot = f.read()
                self.snapshots += 1

        monkeypatch.setattr(os, "fsync", fsync)

    def strike(self):
        with open(self.path, "wb") as f:
            f.write(self.snapshot)


def test_disk_tree_survives_power_loss_between_checkpoints(tmp_path,
                                                           monkeypatch):
    path, wal = str(tmp_path / "t.db"), str(tmp_path / "t.wal")
    rng = random.Random(44)
    tree = DiskRTree(path, max_entries=8, wal_path=wal)
    power = PowerLoss(monkeypatch, path)
    live, committed, next_oid = {}, {}, 0

    def churn(n):
        nonlocal next_oid
        for _ in range(n):
            if live and rng.random() < 0.3:
                oid = rng.choice(sorted(live))
                assert tree.delete(live.pop(oid), oid)
            else:
                x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                live[next_oid] = Rect(x, y, x + rng.uniform(0, 3),
                                      y + rng.uniform(0, 3))
                tree.insert(live[next_oid], next_oid)
                next_oid += 1

    for step in range(8):
        churn(60)
        tree.flush()
        committed = dict(live)
        if step == 3:
            tree.pager.checkpoint()  # the data file's last fsync
    churn(25)  # never flushed: lost with the power
    assert power.snapshots == 1
    del tree  # the process dies with its handles open
    power.strike()
    with DiskRTree(path, wal_path=wal) as reopened:
        assert reopened.pager.recovered_commits == 4
        assert sorted(reopened.items(), key=lambda item: item[1]) == \
            sorted(((r, oid) for oid, r in committed.items()),
                   key=lambda item: item[1])
        reopened.validate()


SCHEMA = [Column("name", "str"), Column("v", "int"), Column("loc", "point")]


def test_persistent_relation_survives_power_loss(tmp_path, monkeypatch):
    path = str(tmp_path / "rel.db")
    rng = random.Random(45)
    # A small threshold makes commits checkpoint now and then, so the
    # data file's last fsync falls mid-way through the inserts.
    rel = PersistentRelation("r", SCHEMA, path, page_size=512,
                             checkpoint_bytes=32 * 1024)
    power = PowerLoss(monkeypatch, path)
    live = {}
    for i in range(300):
        if live and rng.random() < 0.25:
            addr = rng.choice(sorted(live))
            rel.delete(addr)
            del live[addr]
        else:
            row = {"name": f"row-{i}", "v": i,
                   "loc": Point(float(i % 31), float(i % 17))}
            live[rel.insert(row)] = row
    assert power.snapshots > 0
    del rel
    power.strike()
    reopened = PersistentRelation("r", SCHEMA, path, page_size=512)
    assert reopened.recovered
    assert dict(reopened.rows()) == live
    reopened.close()


# -- (c) a log written record by record still recovers ----------------------


#: A log written by the record-at-a-time writer that preceded the batch
#: writer: a pager with 128-byte pages committed its header page and
#: two data pages ("first page", "second page") and crashed after the
#: log fsync, leaving the data file empty; then one more image of page
#: 1 was appended with no COMMIT after it.
OLD_WRITER_LOG = bytes.fromhex(
    "5257414c0100000080000000c10e957080000000010000000000000001000000"
    "0000000000525052548000000003000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000013e8d7f38000000002000000000000000101000000000000000a7e"
    "7a980a0000006669727374207061676500000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000c555"
    "138d8000000003000000000000000102000000000000009079cfeb0b00000073"
    "65636f6e64207061676500000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000f4fe11940000000004"
    "00000000000000020000000000000000e1a4db6c800000000500000000000000"
    "010100000000000000eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
    "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
    "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
    "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
    "eeeeeeeeeeeeeeeeee")


def _old_writer_records(tmp_path):
    (tmp_path / "old.wal").write_bytes(OLD_WRITER_LOG)
    with WriteAheadLog(tmp_path / "old.wal", page_size=128) as old:
        return [(r.kind, r.page_no, r.payload) for r in old.records()]


def test_old_writer_log_recovers(tmp_path):
    wal_path = tmp_path / "data.db.wal"
    wal_path.write_bytes(OLD_WRITER_LOG)
    pager = Pager(tmp_path / "data.db", page_size=128, wal_path=wal_path)
    assert (pager.recovered_pages, pager.recovered_commits) == (3, 1)
    assert pager.read_page(1).data == b"first page"
    assert pager.read_page(2).data == b"second page"
    assert os.path.getsize(wal_path) == _WAL_HEADER_SIZE
    pager.close()


def test_batch_writer_writes_the_old_writer_bytes(tmp_path):
    records = _old_writer_records(tmp_path)
    assert [kind for kind, _p, _b in records] == \
        [KIND_PAGE, KIND_PAGE, KIND_PAGE, KIND_COMMIT, KIND_PAGE]
    with WriteAheadLog(tmp_path / "new.wal", page_size=128,
                       sync="none") as new:
        new.append(records[:4])
        new.append_page(records[4][1], records[4][2])
    assert (tmp_path / "new.wal").read_bytes() == OLD_WRITER_LOG


@pytest.mark.parametrize("after", [0, 2, 3])
def test_torn_append_leaves_the_record_by_record_shape(tmp_path, after):
    """A tear on the k-th record of a batch leaves the records before it
    whole and half of the k-th, as a record-at-a-time writer did."""
    records = _old_writer_records(tmp_path)[:4]
    failpoints.arm("wal.append.torn", "torn", after=after)
    try:
        with WriteAheadLog(tmp_path / "new.wal", page_size=128) as new:
            with pytest.raises(failpoints.SimulatedCrash):
                new.append(records)
    finally:
        failpoints.reset()
    record_sizes = [_RECORD_HEADER_SIZE + len(payload)
                    for _k, _p, payload in records]
    end = _WAL_HEADER_SIZE + sum(record_sizes[:after])
    end += max(1, record_sizes[after] // 2)
    assert (tmp_path / "new.wal").read_bytes() == OLD_WRITER_LOG[:end]


def test_append_failpoint_fires_before_any_byte(tmp_path):
    records = _old_writer_records(tmp_path)[:4]
    failpoints.arm("wal.append", "crash", after=3)
    try:
        with WriteAheadLog(tmp_path / "new.wal", page_size=128) as new:
            with pytest.raises(failpoints.SimulatedCrash):
                new.append(records)
    finally:
        failpoints.reset()
    assert os.path.getsize(tmp_path / "new.wal") == _WAL_HEADER_SIZE
