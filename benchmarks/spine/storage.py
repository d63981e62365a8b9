"""The two storage workloads: ``disk_search`` and ``disk_churn``.

Both drive a :class:`~repro.storage.disk_rtree.DiskRTree` single-threaded
in the bench process: no socket, no parser.  ``disk_search`` reads a
tree ~30x larger than its buffer pool; ``disk_churn`` mutates a smaller
one through the write-ahead log with real ``fsync``s.  Every generated
op carries the answer a brute-force scan over the generated rectangles
gives, computed before the clock starts.
"""

from __future__ import annotations

import math
import os
import time
from typing import Optional

import numpy as np

import layers
from harness import (Window, Workload, mean, median, peak_rss_self_mb,
                     trace_prefix)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.rtree.repack import local_repack_disk
from repro.rtree.search import SearchStats
from repro.storage.disk_rtree import DiskRTree
from tracing import ROOT, Tracer

UNIVERSE = 1000.0
CLUSTERS = 50
#: Buffer frames of both trees.  ``disk_search`` has ~2,000 leaf pages,
#: so the tree is ~30x its cache; the hit rate is the upper levels'.
POOL_FRAMES = 64
SEARCH_ITEMS = 200_000
CHURN_ITEMS = 100_000
SEARCH_OPS = 3000
K_NEIGHBOURS = 10

#: The stated flush policy of ``disk_churn``: one ``flush()`` (WAL
#: commit + fsync) every 64 mutations, carried by the 64th.
FLUSH_EVERY = 64
#: One foreground ``local_repack_disk`` of the hot region per this many
#: mutations.
REPACK_EVERY = 1000
#: Share of the loaded rectangles that make up the insert hot spots.
#: Churn concentrates there: a packed tree's leaves are 100% full, so
#: the first insert into each leaf pays a quadratic split of M+1 entries
#: (~20 ms at M=102) — the paper's Section 3.4 update problem — and
#: uniform inserts would measure nothing else.  Spots are chosen by item
#: count, not by area, and there are several, so the number of leaves
#: under them varies little with the seed or the local density.
HOT_SHARE = 0.02
HOT_SPOTS = 8
HOT_JITTER = 0.5
#: Deleted rectangles lie at least this far right of the hot spots.
DELETE_MARGIN = 400.0
#: Ops/s the pre-generated churn stream is sized for, ~20% above what the
#: reference box does.  Not more: a stream twice as long ran the same
#: median but spread wider from seed to seed (interleaved runs, ten
#: seeds: 8% against 5% on ``ops_per_s``).
CHURN_RATE_CAP = 1500

SEARCH, POINT, KNN, INSERT, DELETE, REPACK = range(6)
CLASS_NAMES = ("search", "point_query", "knn", "insert", "delete", "repack")


# -- data generation ---------------------------------------------------------


def _clusters(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return (rng.uniform(50, UNIVERSE - 50, (CLUSTERS, 2)),
            rng.uniform(20, 40, CLUSTERS))


def _mix(rng: np.random.Generator, n: int, kinds: list[int],
         shares: list[float], block: int = 100) -> np.ndarray:
    """*n* op kinds in exactly the given shares within every *block*
    ops, shuffled inside each block: the mix is a property of the
    workload, so it must not wander with the seed."""
    one = np.repeat(kinds, [round(share * block) for share in shares])
    assert len(one) == block
    blocks = rng.permuted(np.tile(one, (-(-n // block), 1)), axis=1)
    return blocks.ravel()[:n]


def _centres(rng: np.random.Generator, n: int, centres: np.ndarray,
             sigmas: np.ndarray) -> np.ndarray:
    """*n* points: 70% in the Gaussian clusters, 30% uniform."""
    clustered = int(n * 0.7)
    which = rng.integers(0, len(centres), clustered)
    points = np.concatenate([
        centres[which] + rng.normal(size=(clustered, 2)) * sigmas[which, None],
        rng.uniform(0, UNIVERSE, (n - clustered, 2))])
    rng.shuffle(points)
    return np.clip(points, 1.0, UNIVERSE - 1.0)


class Rects:
    """Rectangles as numpy columns: the oracle's brute-force scan target."""

    def __init__(self, centres: np.ndarray, sides: np.ndarray):
        half = sides / 2.0
        self.x1 = centres[:, 0] - half[:, 0]
        self.y1 = centres[:, 1] - half[:, 1]
        self.x2 = centres[:, 0] + half[:, 0]
        self.y2 = centres[:, 1] + half[:, 1]

    def rect_list(self) -> list[Rect]:
        return [Rect(*t) for t in zip(self.x1.tolist(), self.y1.tolist(),
                                      self.x2.tolist(), self.y2.tolist())]

    def intersecting(self, w: Rect,
                     alive: Optional[np.ndarray] = None) -> np.ndarray:
        mask = self.x1 <= w.x2
        mask &= self.x2 >= w.x1
        mask &= self.y1 <= w.y2
        mask &= self.y2 >= w.y1
        if alive is not None:
            mask &= alive
        return np.flatnonzero(mask)

    def containing(self, p: Point) -> np.ndarray:
        mask = self.x1 <= p.x
        mask &= self.x2 >= p.x
        mask &= self.y1 <= p.y
        mask &= self.y2 >= p.y
        return np.flatnonzero(mask)

    def nearest_distances(self, p: Point, k: int) -> list[float]:
        """The *k* smallest MINDISTs from *p* to a rectangle, ascending."""
        dx = self.x1 - p.x
        np.maximum(dx, p.x - self.x2, out=dx)
        np.maximum(dx, 0.0, out=dx)
        dy = self.y1 - p.y
        np.maximum(dy, p.y - self.y2, out=dy)
        np.maximum(dy, 0.0, out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(np.sort(np.partition(dx, k - 1)[:k])).tolist()

    def distance(self, i: int, p: Point) -> float:
        """MINDIST from *p* to rectangle *i*."""
        return math.hypot(
            max(self.x1[i] - p.x, p.x - self.x2[i], 0.0),
            max(self.y1[i] - p.y, p.y - self.y2[i], 0.0))


def _rects(rng: np.random.Generator, n: int, centres: np.ndarray,
           sigmas: np.ndarray) -> Rects:
    return Rects(_centres(rng, n, centres, sigmas),
                 rng.uniform(0.0, 2.0, (n, 2)))


def _windows(rng: np.random.Generator, centres: np.ndarray) -> list[Rect]:
    """Square search windows of side 2-30 around *centres*."""
    sides = rng.uniform(2.0, 30.0, len(centres))
    return [Rect(x - s / 2, y - s / 2, x + s / 2, y + s / 2)
            for (x, y), s in zip(centres.tolist(), sides.tolist())]


# -- shared pieces -----------------------------------------------------------


def _counters(tree: DiskRTree) -> dict[str, int]:
    s = tree.pool.stats
    return {"hits": s.hits, "misses": s.misses, "evictions": s.evictions,
            "reads": tree.pager.reads, "writes": tree.pager.writes}


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: after[k] - before[k] for k in after}


def _install_tree_spans(tracer: Tracer, tree: DiskRTree) -> None:
    for method in ("search", "point_query", "knn", "insert", "delete",
                   "flush"):
        tracer.wrap(tree, method, f"storage.disk_rtree.{method}")
    tracer.wrap(tree.pool, "get", "storage.buffer.get")
    tracer.wrap(tree.pool, "put", "storage.buffer.put")
    tracer.wrap(tree.pager, "read_page", "storage.pager.read_page")
    tracer.wrap(tree.pager, "write_page", "storage.pager.write_page")
    tracer.wrap(tree.pager, "sync", "storage.wal.commit")


def storage_span_metrics(tracer: Tracer) -> dict[str, float]:
    """Buffer and pager timings read off the recorded spans."""
    miss, hit = tracer.split_by_child("storage.buffer.get",
                                      "storage.pager.read_page")
    return {
        "storage.buffer.get_hit_us": mean(hit) * 1e6,
        "storage.buffer.get_miss_us": mean(miss) * 1e6,
        "storage.pager.read_page_us":
            mean(tracer.durations("storage.pager.read_page")) * 1e6,
    }


def _buffer_metrics(delta: dict[str, int], nops: int) -> dict[str, float]:
    accesses = delta["hits"] + delta["misses"]
    return {
        "storage.buffer.hit_rate":
            delta["hits"] / accesses if accesses else 0.0,
        "storage.buffer.evictions_per_op": delta["evictions"] / nops,
        "storage.pager.reads_per_op": delta["reads"] / nops,
        "storage.pager.writes_per_op": delta["writes"] / nops,
    }


def _file_bytes_per_item(tree: DiskRTree, wal_path: Optional[str]) -> float:
    size = os.path.getsize(tree.pager.path)
    if wal_path is not None:
        size += os.path.getsize(wal_path)
    return size / len(tree)


class _DiskWorkload(Workload):
    """A tree in the bench process, driven on one thread."""

    wal = False
    over_socket = False

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.pos = 0                 # next op of the stream
        self._trees = 0

    def _paths(self) -> tuple[str, Optional[str]]:
        self._trees += 1
        base = os.path.join(self.scratch, f"tree{self._trees}")
        return base + ".idx", (base + ".wal" if self.wal else None)

    def peak_rss_mb(self, tree: DiskRTree) -> float:
        return peak_rss_self_mb()

    def teardown(self, tree: DiskRTree) -> None:
        tree.close()


# -- disk_search -------------------------------------------------------------


class DiskSearch(_DiskWorkload):
    """Read-only traversal of a tree ~30x larger than its buffer pool."""

    name = "disk_search"

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        centres, sigmas = _clusters(rng)
        n = SEARCH_ITEMS // self.divisor
        self.data = _rects(rng, n, centres, sigmas)
        self.items = list(zip(self.data.rect_list(), range(n)))

        nops = SEARCH_OPS
        kinds = _mix(rng, nops, [SEARCH, POINT, KNN], [0.5, 0.3, 0.2])
        where = _centres(rng, nops, centres, sigmas)
        windows = _windows(rng, where)
        # Half the point probes land inside a stored rectangle so the
        # class is not all empty answers.
        inside = rng.integers(0, n, nops)
        use_inside = rng.random(nops) < 0.5
        self.ops: list[tuple[int, object, int]] = []
        self.full: list[object] = []
        for i in range(nops):
            kind = int(kinds[i])
            if kind == SEARCH:
                arg: object = windows[i]
                want: object = self.data.intersecting(windows[i]).tolist()
                count = len(want)
            else:
                if kind == POINT and use_inside[i]:
                    j = inside[i]
                    arg = Point(float((self.data.x1[j] + self.data.x2[j]) / 2),
                                float((self.data.y1[j] + self.data.y2[j]) / 2))
                else:
                    arg = Point(*where[i].tolist())
                if kind == POINT:
                    want = self.data.containing(arg).tolist()
                    count = len(want)
                else:
                    count = min(K_NEIGHBOURS, n)
                    want = self.data.nearest_distances(arg, count)
            self.ops.append((kind, arg, count))
            self.full.append(want)
        if self.corrupt_oracle:
            kind, arg, count = self.ops[0]
            self.ops[0] = (kind, arg, count + 1)

    def setup(self) -> DiskRTree:
        path, _ = self._paths()
        tree = DiskRTree(path, buffer_capacity=POOL_FRAMES)
        tree.bulk_load(self.items, method="hilbert")
        tree.flush()
        return tree

    def first_op(self, tree: DiskRTree) -> None:
        self._check(self._verify(0, self._call(tree, 0)))

    def _call(self, tree: DiskRTree, i: int,
              stats: Optional[SearchStats] = None):
        kind, arg, _count = self.ops[i]
        if kind == SEARCH:
            return tree.search(arg, stats)
        if kind == POINT:
            return tree.point_query(arg, stats)
        return tree.knn(arg, K_NEIGHBOURS, stats)

    def _verify(self, i: int, got) -> bool:
        kind, _arg, count = self.ops[i]
        if len(got) != count:
            return False
        want = self.full[i]
        if kind != KNN:
            return sorted(got) == want
        # Ties make the ids ambiguous, the distances not: compare the
        # k distances, and each id against its own rectangle.
        point = self.ops[i][1]
        return all(
            math.isclose(d, w, rel_tol=1e-9, abs_tol=1e-9)
            and math.isclose(d, self.data.distance(oid, point),
                             rel_tol=1e-9, abs_tol=1e-9)
            for (d, oid), w in zip(got, want))

    def drive(self, tree: DiskRTree, seconds: float) -> Window:
        ops, n, i = self.ops, len(self.ops), self.pos
        first = i
        search, point_query, knn = tree.search, tree.point_query, tree.knn
        latencies: list[float] = []
        ends: list[float] = []
        failed = 0
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds
        while True:
            kind, arg, count = ops[i]
            t0 = clock()
            if kind == SEARCH:
                got = len(search(arg))
            elif kind == POINT:
                got = len(point_query(arg))
            else:
                got = len(knn(arg, K_NEIGHBOURS))
            t1 = clock()
            latencies.append(t1 - t0)
            ends.append(t1)
            if got != count:
                failed += 1
            i += 1
            if i == n:
                i = 0
            if t1 >= deadline:
                break
        self.pos = i
        classes = [CLASS_NAMES[ops[(first + k) % n][0]]
                   for k in range(len(latencies))]
        return Window(latencies, ends, classes, failed, start, t1 - start)

    def _pass(self, tree: DiskRTree, count: int,
              tracer: Optional[Tracer]) -> tuple[list[float], list]:
        """One cold-pool pass over the first *count* ops.

        Untraced it times plain calls; traced it also passes ``stats=``
        and checks the full sorted result against the oracle.
        """
        tree.pool.clear()
        times: list[float] = []
        stats = [SearchStats() for _ in CLASS_NAMES]
        clock = time.perf_counter
        for i in range(count):
            if tracer is None:
                t0 = clock()
                self._call(tree, i)
                times.append(clock() - t0)
                continue
            tracer.op = i
            t0 = clock()
            with tracer.span(ROOT):
                got = self._call(tree, i, stats[self.ops[i][0]])
            times.append(clock() - t0)
            self._check(self._verify(i, got))
        return times, stats

    def layers(self, tree: DiskRTree, window: Window):
        count = trace_prefix(self.divisor)
        before = _counters(tree)
        plain, _ = self._pass(tree, count, None)
        delta = _delta(_counters(tree), before)

        tracer = Tracer()
        _install_tree_spans(tracer, tree)
        try:
            traced, stats = self._pass(tree, count, tracer)
        finally:
            tracer.unwrap_all()

        kinds = [self.ops[i][0] for i in range(count)]
        nodes = sum(s.nodes_visited for s in stats)
        out = {
            "storage.disk_rtree.us_per_node": sum(plain) / nodes * 1e6,
            "storage.file_bytes_per_item": _file_bytes_per_item(tree, None),
            "trace.overhead_frac": sum(traced) / sum(plain) - 1.0,
        }
        for kind, metric in ((SEARCH, "nodes_per_search"),
                             (POINT, "nodes_per_point_query"),
                             (KNN, "nodes_per_knn")):
            out[f"storage.disk_rtree.{metric}"] = (
                stats[kind].nodes_visited / max(1, kinds.count(kind)))
        out.update(_buffer_metrics(delta, count))
        out.update(storage_span_metrics(tracer))
        for method in ("hilbert", "str", "adaptive"):
            out[f"rtree.bulkload.{method}.items_per_s"] = \
                layers.bulkload_items_per_s(self.items, method,
                                            self._paths()[0])
        return out, tracer, mean(plain)


# -- disk_churn --------------------------------------------------------------


class DiskChurn(_DiskWorkload):
    """Inserts, deletes and searches through the WAL, flushed by policy."""

    name = "disk_churn"
    wal = True

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        centres, sigmas = _clusters(rng)
        n = CHURN_ITEMS // self.divisor
        base = _centres(rng, n, centres, sigmas)
        count = trace_prefix(self.divisor)
        # Sized for the fastest plausible run; if the stream still runs
        # out the window simply ends early.
        nops = int(CHURN_RATE_CAP * self.seconds) + count
        # Hot spots: the HOT_SHARE of rectangles nearest the leftmost
        # few cluster centres.  Inserts are jittered copies, dealt
        # round-robin over the spots and over a shuffle of each spot's
        # rectangles, so every hot leaf fills at the same pace.
        per_spot = max(1, int(n * HOT_SHARE / HOT_SPOTS))
        hot_centres = centres[np.argsort(centres[:, 0])[:HOT_SPOTS]]
        sources = []
        anchors = []
        for centre in hot_centres:
            nearest = np.argsort(np.hypot(*(base - centre).T))[:per_spot]
            sources.append(np.resize(rng.permutation(nearest),
                                     -(-nops // HOT_SPOTS)))
            anchors.append(int(nearest[0]))
        # Deletes stay far to the right of every hot spot, so that no
        # level-1 subtree holds both.  Under a hot spot every leaf, and
        # the level-1 node above, has just split and sits at minimum
        # fill; one delete there dissolves the leaf, that underfills the
        # parent, and DiskRTree.delete re-inserts the parent's whole
        # subtree entry by entry: 4.9 s for one op in a probe.  A real
        # pathology, but a benchmark that rolls dice on it cannot gate
        # anything.  Untouched leaves are full and do not underflow.
        live = np.flatnonzero(
            base[:, 0] > hot_centres[:, 0].max() + DELETE_MARGIN).tolist()
        blob = np.clip(base[np.stack(sources, axis=1).ravel()[:nops]]
                       + rng.normal(size=(nops, 2)) * HOT_JITTER,
                       1.0, UNIVERSE - 1.0)
        data = Rects(np.concatenate([base, blob]),
                     rng.uniform(0.0, 2.0, (n + nops, 2)))
        rects = data.rect_list()
        self.initial = list(zip(rects[:n], range(n)))
        # A repack targets one stored rectangle of a hot spot, the spots
        # taking turns.  It is never deleted, so its leaf's ancestors all
        # contain it, some subtree below the root always covers the
        # region and the repack stays local.
        hot_regions = [rects[a] for a in anchors]

        kinds = _mix(rng, nops, [INSERT, DELETE, SEARCH], [0.5, 0.2, 0.3])
        in_blob = rng.random(nops) < 0.5
        where = np.where(in_blob[:, None], blob,
                         _centres(rng, nops, centres, sigmas))
        windows = _windows(rng, where)
        picks = rng.random(nops)

        alive = np.zeros(n + nops, dtype=bool)
        alive[:n] = True
        self.probe = (windows[0],
                      data.intersecting(windows[0], alive).tolist())
        next_oid = n
        mutations = 0
        self.ops: list[tuple] = []
        self.full: dict[int, list[int]] = {}
        for i in range(nops):
            kind = int(kinds[i])
            if kind == SEARCH:
                hits = data.intersecting(windows[i], alive)
                if len(self.ops) < count:
                    self.full[len(self.ops)] = hits.tolist()
                self.ops.append((SEARCH, windows[i], None, len(hits)))
                continue
            if kind == INSERT:
                oid = next_oid
                next_oid += 1
                alive[oid] = True
            else:
                j = int(picks[i] * len(live))
                oid = live[j]
                live[j] = live[-1]
                live.pop()
                alive[oid] = False
            mutations += 1
            self.ops.append((kind, rects[oid], oid,
                             mutations % FLUSH_EVERY == 0))
            if mutations % REPACK_EVERY == 0:
                turn = mutations // REPACK_EVERY
                self.ops.append((REPACK, hot_regions[turn % HOT_SPOTS],
                                 None, None))
        if self.corrupt_oracle:
            i = next(i for i, op in enumerate(self.ops) if op[0] == SEARCH)
            kind, window, _, want = self.ops[i]
            self.ops[i] = (kind, window, None, want + 1)

    def setup(self) -> DiskRTree:
        path, wal_path = self._paths()
        self.wal_path = wal_path
        tree = DiskRTree(path, buffer_capacity=POOL_FRAMES,
                         wal_path=wal_path, wal_sync="fsync")
        tree.bulk_load(self.initial, method="str")
        tree.flush()
        return tree

    def first_op(self, tree: DiskRTree) -> None:
        window, want = self.probe
        self._check(sorted(tree.search(window)) == want)

    def drive(self, tree: DiskRTree, seconds: float) -> Window:
        ops, n, i = self.ops, len(self.ops), self.pos
        first = i
        insert, delete, search, flush = (tree.insert, tree.delete,
                                         tree.search, tree.flush)
        latencies: list[float] = []
        ends: list[float] = []
        commits: list[float] = []
        repacks: list[tuple[float, int]] = []
        failed = 0
        checkpoints = tree.pager.checkpoints
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds
        t1 = start
        while i < n:
            kind, arg, oid, tail = ops[i]
            ok = True
            t0 = clock()
            if kind == SEARCH:
                ok = len(search(arg)) == tail
            elif kind == REPACK:
                result = local_repack_disk(tree, arg)
                t = clock()
                flush()
                repacks.append((t - t0, result.nodes_after))
                ok = result.entries_repacked > 0
            else:
                if kind == INSERT:
                    insert(arg, oid)
                else:
                    ok = delete(arg, oid)
                if tail:
                    t = clock()
                    flush()
                    commits.append(clock() - t)
            t1 = clock()
            latencies.append(t1 - t0)
            ends.append(t1)
            if not ok:
                failed += 1
            i += 1
            if t1 >= deadline:
                break
        self.pos = i
        classes = []
        for kind, _arg, _oid, tail in ops[first:i]:
            cls = CLASS_NAMES[kind]
            if kind in (INSERT, DELETE) and tail:
                cls += "+flush"
            classes.append(cls)
        return Window(latencies, ends, classes, failed, start, t1 - start,
                      extra={"commits": commits, "repacks": repacks,
                             "checkpoints":
                                 tree.pager.checkpoints - checkpoints})

    def _live_after(self, nops: int) -> dict[int, Rect]:
        live = {oid: rect for rect, oid in self.initial}
        for kind, rect, oid, _tail in self.ops[:nops]:
            if kind == INSERT:
                live[oid] = rect
            elif kind == DELETE:
                del live[oid]
        return live

    def finish(self, tree: DiskRTree) -> DiskRTree:
        """Commit, reopen through WAL recovery, compare the live set.

        The second handle is opened while the first still holds the
        files, so the log has not been checkpointed by a clean close:
        every commit since the last checkpoint is replayed before the
        tree is read.
        """
        tree.flush()
        path, wal_path = tree.pager.path, self.wal_path
        reopened = DiskRTree(path, buffer_capacity=POOL_FRAMES,
                             wal_path=wal_path, wal_sync="fsync")
        self.recovered_commits = reopened.pager.recovered_commits
        got = {oid: rect for rect, oid in reopened.leaf_items()}
        self._check(got == self._live_after(self.pos))
        self.file_bytes_per_item = _file_bytes_per_item(reopened, wal_path)
        tree.close()
        return reopened

    def _pass(self, count: int, tracer: Optional[Tracer]):
        """The first *count* ops of the stream on a freshly loaded tree,
        so counts repeat exactly however far the timed window got."""
        tree = self.setup()
        if tracer is not None:
            _install_tree_spans(tracer, tree)
        wal = tree.pager.wal
        wal_bytes = wal_mutations = 0

        def run(i: int):
            nonlocal wal_bytes, wal_mutations
            kind, arg, oid, tail = self.ops[i]
            if kind == SEARCH:
                return tree.search(arg)
            if kind == REPACK:
                if tracer is None:
                    local_repack_disk(tree, arg)
                else:
                    with tracer.span("rtree.repack.local"):
                        local_repack_disk(tree, arg)
                tree.flush()
                return None
            if kind == INSERT:
                tree.insert(arg, oid)
            else:
                tree.delete(arg, oid)
            if tail:
                # A checkpoint truncates the log, so only flushes that
                # did not checkpoint give a usable size delta.
                size, cps = wal.size_bytes, tree.pager.checkpoints
                tree.flush()
                if tree.pager.checkpoints == cps:
                    wal_bytes += wal.size_bytes - size
                    wal_mutations += FLUSH_EVERY
            return None

        times: list[float] = []
        before = _counters(tree)
        clock = time.perf_counter
        try:
            for i in range(count):
                if tracer is None:
                    t0 = clock()
                    run(i)
                    times.append(clock() - t0)
                    continue
                tracer.op = i
                t0 = clock()
                with tracer.span(ROOT):
                    got = run(i)
                times.append(clock() - t0)
                if got is not None:
                    self._check(sorted(got) == self.full[i])
            delta = _delta(_counters(tree), before)
        finally:
            if tracer is not None:
                tracer.unwrap_all()
            tree.close()
        return times, delta, wal_bytes / max(1, wal_mutations)

    def layers(self, tree: DiskRTree, window: Window):
        count = trace_prefix(self.divisor)
        plain, delta, wal_bytes_per_mutation = self._pass(count, None)
        tracer = Tracer()
        traced, _, _ = self._pass(count, tracer)

        by_class = window.by_class()
        repacks = window.extra["repacks"]
        out = {
            "storage.disk_rtree.insert_us":
                median(by_class.get("insert", [])) * 1e6,
            "storage.disk_rtree.delete_us":
                median(by_class.get("delete", [])) * 1e6,
            "storage.wal.commit_ms": median(window.extra["commits"]) * 1e3,
            "storage.wal.bytes_per_mutation": wal_bytes_per_mutation,
            "storage.wal.checkpoints": float(window.extra["checkpoints"]),
            "storage.file_bytes_per_item": self.file_bytes_per_item,
            "rtree.repack.local_ms": mean(r[0] for r in repacks) * 1e3,
            "rtree.repack.pages_rewritten": mean(r[1] for r in repacks),
            "rtree.bulkload.str.items_per_s":
                layers.bulkload_items_per_s(self.initial, "str",
                                            self._paths()[0]),
            "trace.overhead_frac": sum(traced) / sum(plain) - 1.0,
        }
        out.update(_buffer_metrics(delta, count))
        out.update(storage_span_metrics(tracer))
        return out, tracer, mean(plain)
