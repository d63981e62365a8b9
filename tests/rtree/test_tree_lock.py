"""Every public operation on a tree is atomic on that tree.

A searcher thread runs, under a short switch interval, against local
repacks (regional splices and whole-tree rebuilds) and against inserts
and deletes, on both tree forms.  Each search must return exactly the
answer a brute-force scan gives, and the final contents must equal the
model: a search that met a half-spliced subtree or a store from one tree
and a root from another would raise or answer wrong.
"""

import os
import random
import sys
import threading

import pytest

from repro.geometry import Rect
from repro.rtree import local_repack
from repro.rtree.packing import pack
from repro.storage import DiskRTree

M = 8
#: Hot-spot inserts land here, so repacks and splits happen here too.
HOT_SPOT = Rect(100, 100, 160, 160)
#: The searcher's window: it covers the hot spot, so it descends the
#: very subtrees a repack replaces.
REPACK_WINDOW = Rect(0, 0, 400, 400)
#: Away from the hot spot: its answer is fixed while the hot spot churns.
CHURN_WINDOW = Rect(500, 500, 1000, 1000)


def _point(x, y):
    return Rect(x, y, x, y)


@pytest.fixture(params=["memory", "disk"])
def tree_and_model(request, tmp_path):
    """A packed tree of 3,000 uniform points plus 1,500 dynamic hot-spot
    inserts, and the ``{oid: rect}`` model of its contents."""
    rng = random.Random(4)
    base = [(_point(rng.uniform(0, 1000), rng.uniform(0, 1000)), oid)
            for oid in range(3000)]
    if request.param == "memory":
        tree = pack(base, max_entries=M, method="str")
    else:
        tree = DiskRTree(os.path.join(str(tmp_path), "t.db"), max_entries=M)
        tree.bulk_load(base)
    model = dict((oid, rect) for rect, oid in base)
    for oid in range(3000, 4500):
        rect = _point(rng.uniform(HOT_SPOT.x1, HOT_SPOT.x2),
                      rng.uniform(HOT_SPOT.y1, HOT_SPOT.y2))
        tree.insert(rect, oid)
        model[oid] = rect
    yield tree, model
    if request.param == "disk":
        tree.close()


def _answer(model, window):
    return sorted(oid for oid, rect in model.items()
                  if rect.intersects(window))


class _Searcher(threading.Thread):
    """Searches *window* until stopped; keeps every exception and every
    answer that differs from *want*."""

    def __init__(self, tree, window, want):
        super().__init__()
        self.tree, self.window, self.want = tree, window, want
        self.stop = threading.Event()
        self.searches = 0
        self.failures = []

    def run(self):
        while not self.stop.is_set():
            try:
                got = sorted(self.tree.search(self.window))
            except Exception as exc:  # noqa: BLE001 - reported below
                self.failures.append(repr(exc))
                continue
            self.searches += 1
            if got != self.want:
                self.failures.append(f"{len(got)} rows, want "
                                     f"{len(self.want)}")


def _race(tree, window, want, work):
    """Run *work* while a :class:`_Searcher` searches; return it."""
    searcher = _Searcher(tree, window, want)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    searcher.start()
    try:
        work()
    finally:
        searcher.stop.set()
        searcher.join(60)
        sys.setswitchinterval(interval)
    assert not searcher.is_alive()
    return searcher


def _check_contents(tree, model):
    assert len(tree) == len(model)
    assert sorted((oid, tuple(rect)) for rect, oid in tree.items()) == \
        sorted((oid, tuple(rect)) for oid, rect in model.items())
    tree.validate(check_fill=False)


def test_searches_during_repacks_see_one_tree(tree_and_model):
    tree, model = tree_and_model

    def repacks():
        for i in range(16):
            local_repack(tree, HOT_SPOT if i % 2 else None)

    searcher = _race(tree, REPACK_WINDOW, _answer(model, REPACK_WINDOW),
                     repacks)
    assert searcher.failures == []
    assert searcher.searches > 0
    _check_contents(tree, model)


def test_searches_during_inserts_and_deletes_see_one_tree(tree_and_model):
    tree, model = tree_and_model
    rng = random.Random(8)

    def churn():
        for oid in range(4500, 5500):
            rect = _point(rng.uniform(HOT_SPOT.x1, HOT_SPOT.x2),
                          rng.uniform(HOT_SPOT.y1, HOT_SPOT.y2))
            tree.insert(rect, oid)
            model[oid] = rect
            doomed = rng.randrange(3000, oid)
            if doomed in model:
                assert tree.delete(model.pop(doomed), doomed)

    searcher = _race(tree, CHURN_WINDOW, _answer(model, CHURN_WINDOW),
                     churn)
    assert searcher.failures == []
    assert searcher.searches > 0
    _check_contents(tree, model)
