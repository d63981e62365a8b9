"""The one join kernel: every operator, strategy and tree form.

Both strategies (lockstep, and nested with either side driving) run one
descent over memory and disk trees, testing each PSQL operator inline on
flat entries.  Each case is checked against a brute-force nested loop on
grids dense in edge contacts and zero-area rectangles, where
``intersecting`` and ``overlapping`` part ways; node accounting is pinned
to fixed-seed figures.
"""

import gc
import os
import random
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.geometry.predicates import OPERATORS
from repro.relational.diskindex import DiskSpatialIndex
from repro.rtree import join as join_module
from repro.rtree.join import JoinStats, nested_window_join, spatial_join
from repro.rtree.packing import pack
from repro.rtree.tree import node_mbr
from repro.storage import DiskRTree

JOIN_OPERATORS = ("intersecting", "overlapping", "covering", "covered-by")
STRATEGIES = ("lockstep", "nested-left", "nested-right")
FORMS = ("memory/memory", "disk/memory", "disk/disk")
_FLIP = {"covering": "covered-by", "covered-by": "covering"}


def run_join(strategy, op, left, right, stats=None, foreign=False):
    """(left oid, right oid) pairs of one strategy, as the executor
    drives it: a right-driven nested join flips the operator.  With
    *foreign*, the operator is wrapped in a callable the kernel does
    not know, so it is handed Rects."""
    if strategy == "nested-right":
        op = _FLIP.get(op, op)
    predicate = OPERATORS[op]
    if foreign:
        predicate = lambda a, b, test=predicate: test(a, b)  # noqa: E731
    if strategy == "lockstep":
        return spatial_join(left, right, predicate, stats=stats)
    if strategy == "nested-left":
        return nested_window_join(left, right, predicate, stats=stats)
    return [(a, b) for b, a in
            nested_window_join(right, left, predicate, stats=stats)]


def brute_force(op, left_items, right_items):
    predicate = OPERATORS[op]
    return sorted((a, b) for ra, a in left_items for rb, b in right_items
                  if predicate(ra, rb))


def grid_items(rng, n, first_oid):
    """Integer rectangles on a 40 x 40 grid, sides 0..8: many share an
    edge or a corner, and about a third have zero area."""
    items = []
    for oid in range(first_oid, first_oid + n):
        x, y = rng.randint(0, 40), rng.randint(0, 40)
        items.append((Rect(x, y, x + rng.choice((0, 0, 1, 3, 8)),
                           y + rng.choice((0, 1, 2, 5, 8))), oid))
    return items


def disk_tree(directory, name, items):
    tree = DiskRTree(os.path.join(directory, name), max_entries=4)
    tree.bulk_load(items)
    return tree


def trees_for(form, directory, left_items, right_items):
    """The (left, right) trees of one form; disk sides are DiskRTrees."""
    left = (pack(left_items, max_entries=4) if form == "memory/memory"
            else disk_tree(directory, "l.db", left_items))
    right = (disk_tree(directory, "r.db", right_items)
             if form == "disk/disk" else pack(right_items, max_entries=4))
    return left, right


def accounting(seed):
    """Node accounting of every strategy x form on one fixed seed (the
    same for every operator: pruning tests MBR intersection only)."""
    rng = random.Random(seed)
    left_items = grid_items(rng, 60, 0)
    right_items = grid_items(rng, 50, 1000)
    table = {}
    for form in FORMS:
        with tempfile.TemporaryDirectory() as directory:
            left, right = trees_for(form, directory, left_items, right_items)
            for strategy in STRATEGIES:
                stats = JoinStats()
                run_join(strategy, "intersecting", left, right, stats)
                table[strategy, form] = (
                    stats.pairs_visited, stats.pairs_pruned,
                    stats.outer_nodes, stats.inner_nodes, stats.probes)
            for tree in (left, right):
                if isinstance(tree, DiskRTree):
                    tree.close()
    return table


# (pairs_visited, pairs_pruned, outer_nodes, inner_nodes, probes) of the
# recursive descents this kernel replaced, on the same seeds.
PINNED = {
    7: {
        ('lockstep', 'memory/memory'): (59, 113, 0, 0, 0),
        ('nested-left', 'memory/memory'): (0, 399, 20, 222, 60),
        ('nested-right', 'memory/memory'): (0, 306, 18, 230, 50),
        ('lockstep', 'disk/memory'): (59, 113, 0, 0, 0),
        ('nested-left', 'disk/memory'): (0, 399, 20, 222, 60),
        ('nested-right', 'disk/memory'): (0, 306, 18, 230, 50),
        ('lockstep', 'disk/disk'): (59, 113, 0, 0, 0),
        ('nested-left', 'disk/disk'): (0, 366, 20, 219, 60),
        ('nested-right', 'disk/disk'): (0, 306, 18, 230, 50),
    },
    11: {
        ('lockstep', 'memory/memory'): (64, 124, 0, 0, 0),
        ('nested-left', 'memory/memory'): (0, 425, 20, 252, 60),
        ('nested-right', 'memory/memory'): (0, 371, 18, 244, 50),
        ('lockstep', 'disk/memory'): (64, 124, 0, 0, 0),
        ('nested-left', 'disk/memory'): (0, 425, 20, 252, 60),
        ('nested-right', 'disk/memory'): (0, 371, 18, 244, 50),
        ('lockstep', 'disk/disk'): (65, 127, 0, 0, 0),
        ('nested-left', 'disk/disk'): (0, 379, 20, 252, 60),
        ('nested-right', 'disk/disk'): (0, 371, 18, 244, 50),
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_node_accounting_matches_the_recursive_descents(seed):
    assert accounting(seed) == PINNED[seed]


rects = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.integers(0, 12), st.integers(0, 12),
    st.sampled_from((0, 0, 1, 2, 4)), st.sampled_from((0, 1, 2, 4)))


@settings(max_examples=100, deadline=None)
@given(st.lists(rects, min_size=1, max_size=30),
       st.lists(rects, min_size=1, max_size=30))
def test_every_operator_strategy_and_form_matches_brute_force(
        left_rects, right_rects):
    left_items = [(r, i) for i, r in enumerate(left_rects)]
    right_items = [(r, 100 + i) for i, r in enumerate(right_rects)]
    with tempfile.TemporaryDirectory() as directory:
        # Disk sides are picture indexes, which lend their tree under
        # their lock.
        disk = {}
        for side, items in (("l", left_items), ("r", right_items)):
            disk[side] = DiskSpatialIndex(
                os.path.join(directory, side + ".db"), max_entries=4)
            disk[side].load(items)
        memory_l = pack(left_items, max_entries=4)
        memory_r = pack(right_items, max_entries=4)
        pairs = {"memory/memory": (memory_l, memory_r),
                 "disk/memory": (disk["l"], memory_r),
                 "disk/disk": (disk["l"], disk["r"])}
        try:
            for op in JOIN_OPERATORS:
                want = brute_force(op, left_items, right_items)
                for form, (left, right) in pairs.items():
                    for strategy in STRATEGIES:
                        got = run_join(strategy, op, left, right)
                        assert sorted(got) == want, (op, form, strategy)
                        assert len(got) == len(set(got))
        finally:
            disk["l"].close()
            disk["r"].close()


@pytest.fixture(scope="module")
def grid_trees():
    rng = random.Random(5)
    left_items = grid_items(rng, 80, 0)
    right_items = grid_items(rng, 70, 1000)
    return (pack(left_items, max_entries=4),
            pack(right_items, max_entries=4))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("op", JOIN_OPERATORS)
def test_operators_build_no_rect_per_candidate(grid_trees, monkeypatch,
                                               op, strategy):
    """The PSQL operators run inline; only a foreign callable gets Rects
    — and both forms give the same pairs and the same accounting."""
    built = []

    def counting_rect(*coords):
        built.append(coords)
        return Rect(*coords)

    monkeypatch.setattr(join_module, "Rect", counting_rect)
    left, right = grid_trees
    fast_stats, slow_stats = JoinStats(), JoinStats()
    fast = run_join(strategy, op, left, right, fast_stats)
    assert built == []
    slow = run_join(strategy, op, left, right, slow_stats, foreign=True)
    assert built, "a foreign callable is handed Rects"
    assert fast == slow
    assert fast_stats == slow_stats


def recursive_lockstep(left, right, predicate):
    """The recursive descent the kernel replaced: an order oracle."""
    out = []

    def join(a, b):
        a_leaf, a_entries = left.store.fetch(a)
        b_leaf, b_entries = right.store.fetch(b)
        if a_leaf and b_leaf:
            out.extend((ea[4], eb[4]) for ea in a_entries for eb in b_entries
                       if predicate(Rect(*ea[:4]), Rect(*eb[:4])))
            return
        if a_leaf:
            a_entries = [node_mbr(a_entries) + (a,)]
        elif b_leaf:
            b_entries = [node_mbr(b_entries) + (b,)]
        for ea in a_entries:
            for eb in b_entries:
                if Rect(*ea[:4]).intersects(Rect(*eb[:4])):
                    join(ea[4], eb[4])

    join(left.root, right.root)
    return out


def recursive_nested(outer, inner, predicate):
    """One recursive window probe per outer entry: an order oracle."""
    out = []

    def probe(ref, window, oid):
        is_leaf, entries = inner.store.fetch(ref)
        for entry in entries:
            rect = Rect(*entry[:4])
            if not window.intersects(rect):
                continue
            if not is_leaf:
                probe(entry[4], window, oid)
            elif predicate(window, rect):
                out.append((oid, entry[4]))

    for _level, _ref, is_leaf, entries in outer.walk():
        if is_leaf:
            for entry in entries:
                probe(inner.root, Rect(*entry[:4]), entry[4])
    return out


@pytest.mark.parametrize("op", JOIN_OPERATORS)
def test_pairs_come_out_in_the_recursive_descents_order(grid_trees, op):
    """Result order reaches the wire, so it must not move."""
    left, right = grid_trees
    predicate = OPERATORS[op]
    assert (spatial_join(left, right, predicate)
            == recursive_lockstep(left, right, predicate))
    assert (nested_window_join(left, right, predicate)
            == recursive_nested(left, right, predicate))


def test_join_leaves_no_cyclic_garbage(grid_trees):
    left, right = grid_trees
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            spatial_join(left, right, OPERATORS["intersecting"])
            nested_window_join(left, right, OPERATORS["covering"])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_opposite_joins_of_two_disk_indexes_do_not_deadlock(tmp_path):
    """Two threads join the same two disk indexes in opposite orders;
    the kernel locks both in one global order."""
    rng = random.Random(9)
    left_items = grid_items(rng, 120, 0)
    right_items = grid_items(rng, 120, 1000)
    a = DiskSpatialIndex(str(tmp_path / "a.db"), max_entries=4)
    b = DiskSpatialIndex(str(tmp_path / "b.db"), max_entries=4)
    a.load(left_items)
    b.load(right_items)
    want = brute_force("intersecting", left_items, right_items)
    errors = []

    def worker(flip):
        try:
            for _ in range(20):
                if flip:
                    got = [(x, y) for y, x in spatial_join(b, a)]
                else:
                    got = spatial_join(a, b)
                assert sorted(got) == want
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i % 2,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        a.close()
        b.close()
    assert errors == []
