"""Hypothesis properties for the disk trees' packing invariants.

Every loader — the streaming ``bulk_load_stream`` with each sort key
(hilbert, lowx, str, adaptive), ``DiskRTree.bulk_load`` and the in-memory
``pack`` with each PACK grouping (nn, lowx, str, hilbert) — and every
``local_repack`` splice, on either node store, must produce trees that:

- (streamed) equal ``DiskRTree.bulk_load``'s tree for the same order,
  node for node, whatever the run size,

- obey PACK Theorem 3.2 level-by-level (``ceil(n/M)`` nodes per level,
  which the min-fill tail redistribution must not change),
- answer window queries identically to a brute-force scan, and
- keep every non-root node's fill inside ``[min_fill, max_entries]``
  (the trailing-node rule: no near-empty rightmost spine; the in-memory
  PACK keeps the paper's trailing node, min_fill 0), and
- (``str`` on points with distinct x) have no two leaves overlapping in
  positive area: Theorem 3.2 on both axes.

Distributions are drawn adversarially: uniform points, tight Gaussian
clusters, duplicated coordinates, degenerate single-point inputs.
"""

import math
import os

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.rtree.bulkload import SORT_KEYS, bulk_load_stream
from repro.rtree.packing import PACK_METHODS, pack
from repro.rtree.repack import local_repack
from repro.rtree.tree import node_mbr
from repro.storage.disk_rtree import DiskRTree

coords = st.floats(min_value=0.0, max_value=1000.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def item_sets(draw, min_size=0):
    """Point-like and extended rectangles, uniform or clustered."""
    n = draw(st.integers(min_value=min_size, max_value=220))
    clustered = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))
    items = []
    centers = [(draw(coords), draw(coords)) for _ in range(3)]
    for i in range(n):
        if clustered:
            cx, cy = centers[i % len(centers)]
            x = min(max(rng.gauss(cx, 12.0), 0.0), 1000.0)
            y = min(max(rng.gauss(cy, 12.0), 0.0), 1000.0)
        else:
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        w = rng.uniform(0.0, 4.0)
        h = rng.uniform(0.0, 4.0)
        items.append((Rect(x, y, min(x + w, 1000.0), min(y + h, 1000.0)), i))
    return items


methods = st.sampled_from(SORT_KEYS)
fanouts = st.integers(min_value=4, max_value=16)
WINDOWS = [Rect(0, 0, 1000, 1000), Rect(200, 200, 450, 450),
           Rect(900, 900, 1000, 1000), Rect(0, 480, 1000, 520)]


def build(tmp_path, items, method, max_entries, run_size):
    tree = DiskRTree(os.path.join(str(tmp_path), "prop.db"),
                     max_entries=max_entries)
    bulk_load_stream(tree, iter(items), method=method, run_size=run_size)
    return tree


def level_fills(tree, ref=None):
    """Entry counts per node, level by level, from *ref* (the root)."""
    levels = []
    for level, _ref, _is_leaf, entries in tree.walk(ref):
        if level == len(levels):
            levels.append([])
        levels[level].append(len(entries))
    return levels


def walk_entries(tree):
    """The level-order walk with each node's entries listed."""
    return [(level, ref, is_leaf, list(entries))
            for level, ref, is_leaf, entries in tree.walk()]


def assert_packed(levels, n, max_entries, min_fill):
    """Theorem 3.2's chain and the fill bound over *levels* (root first)."""
    # Theorem 3.2: every level holds exactly ceil(below / M) nodes.
    expect = max(1, math.ceil(n / max_entries))
    for counts in reversed(levels):
        assert len(counts) == expect, f"level sizes {levels}"
        expect = max(1, math.ceil(len(counts) / max_entries))
    # Fill bounds: every node <= M, every non-root node >= min_fill.
    for counts in levels:
        assert all(c <= max_entries for c in counts)
    for counts in levels[1:]:
        assert all(c >= min_fill for c in counts), f"underfull: {levels}"


def assert_tree(tree, items, max_entries, min_fill=None):
    assert len(tree) == len(items)
    if min_fill is None:
        min_fill = min(tree.min_entries, max_entries // 2)
    assert_packed(level_fills(tree), len(items), max_entries, min_fill)
    assert_brute_force(tree, items)
    tree.validate(check_fill=False)


def assert_brute_force(tree, items):
    for window in WINDOWS:
        assert sorted(tree.search(window)) == sorted(
            oid for rect, oid in items if rect.intersects(window))


@given(items=item_sets(), method=methods, max_entries=fanouts,
       run_size=st.sampled_from([32, 64, 1000]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_packing_invariants(tmp_path_factory, items, method, max_entries,
                            run_size):
    tmp = tmp_path_factory.mktemp("bulkprop")
    tree = build(tmp, items, method, max_entries, run_size)
    try:
        assert_tree(tree, items, max_entries)
    finally:
        tree.close()


@given(items=item_sets(), method=st.sampled_from(sorted(PACK_METHODS)),
       max_entries=fanouts)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_in_memory_loader_invariants(tmp_path_factory, items, method,
                                     max_entries):
    """``DiskRTree.bulk_load`` meets the same bounds as the stream."""
    path = os.path.join(str(tmp_path_factory.mktemp("memprop")), "m.db")
    tree = DiskRTree(path, max_entries=max_entries)
    try:
        tree.bulk_load(items, method=method)
        assert_tree(tree, items, max_entries)
    finally:
        tree.close()


@given(items=item_sets(), method=st.sampled_from(sorted(PACK_METHODS)),
       max_entries=fanouts)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_list_store_pack_invariants(items, method, max_entries):
    """The in-memory ``pack`` meets Theorem 3.2's chain with the paper's
    trailing node (min_fill 0) on the list store."""
    assert_tree(pack(items, max_entries=max_entries, method=method),
                items, max_entries, min_fill=0)


@given(items=item_sets(), method=methods,
       max_entries=st.sampled_from([4, 16, 102]),
       run_size=st.sampled_from([32, 64, 1000]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_stream_equals_in_memory_load(tmp_path_factory, items, method,
                                      max_entries, run_size):
    """The streamed loader is the in-memory PACK with the sort done out
    of core: the same nodes on the same pages, level by level."""
    tmp = tmp_path_factory.mktemp("streameq")
    streamed = build(tmp, items, method, max_entries, run_size)
    memory = DiskRTree(os.path.join(str(tmp), "memory.db"),
                       max_entries=max_entries)
    try:
        memory.bulk_load(items,
                         method="str" if method == "adaptive" else method)
        assert walk_entries(streamed) == walk_entries(memory)
    finally:
        streamed.close()
        memory.close()


def build_splice_tree(tmp_path_factory, store, items, max_entries):
    if store == "list":
        return pack(items, max_entries=max_entries, method="hilbert"), 0
    path = os.path.join(str(tmp_path_factory.mktemp("splice")), "s.db")
    tree = DiskRTree(path, max_entries=max_entries)
    tree.bulk_load(items, method="hilbert")
    return tree, min(tree.min_entries, max_entries // 2)


@given(items=item_sets(min_size=40), max_entries=st.integers(4, 8),
       hot=st.tuples(coords, coords), extra=st.integers(0, 80),
       method=st.sampled_from(sorted(PACK_METHODS)),
       store=st.sampled_from(["list", "page"]))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.large_base_example])
def test_splice_invariants(tmp_path_factory, items, max_entries, hot,
                           extra, method, store):
    """A ``local_repack`` splice packs its subtree to the same bounds
    (under any single-entry pad nodes that keep leaf depth), on either
    store; the disk file accounts for every page."""
    tree, min_fill = build_splice_tree(tmp_path_factory, store, items,
                                       max_entries)
    try:
        live = list(items)
        for i in range(extra):   # hot-spot inserts split leaves
            x = min(hot[0] + (i % 9), 999.0)
            y = min(hot[1] + (i // 9), 999.0)
            live.append((Rect(x, y, x + 1, y + 1), len(live)))
            tree.insert(*live[-1])
        region = live[-1][0]
        refs, slots = tree._covering_path(region)
        assume(len(refs) > 1)

        result = local_repack(tree, region, method=method)
        new_root = tree.store.fetch(refs[-2])[1][slots[-1]][4]
        levels = level_fills(tree, new_root)
        while len(levels) > 1 and levels[0] == [1]:   # pad nodes
            levels.pop(0)
        assert_packed(levels, result.entries_repacked, max_entries,
                      min_fill)
        assert len(tree) == len(live)
        assert_brute_force(tree, live)
        tree.validate(check_fill=False)
    finally:
        if store == "page":
            tree.close()


@given(items=item_sets(), max_entries=fanouts)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_adaptive_agrees_with_brute_force_knn_free(tmp_path_factory, items,
                                                  max_entries):
    """``adaptive`` (an alias of ``str``) and ``hilbert`` lay the tree out
    differently and give the same answers."""
    tmp = tmp_path_factory.mktemp("bulkadapt")
    adaptive = build(tmp, items, "adaptive", max_entries, run_size=64)
    hilbert = build(tmp_path_factory.mktemp("bulkhil"), items, "hilbert",
                    max_entries, run_size=64)
    try:
        for window in (Rect(0, 0, 500, 500), Rect(100, 600, 900, 990)):
            assert sorted(adaptive.search(window)) == \
                sorted(hilbert.search(window))
    finally:
        adaptive.close()
        hilbert.close()


@st.composite
def distinct_x_points(draw):
    """Points with pairwise distinct x; y is drawn from a narrow or a
    wide range, so ties in y are common or rare."""
    n = draw(st.integers(min_value=5, max_value=700))
    rng = draw(st.randoms(use_true_random=False))
    y_max = draw(st.sampled_from([3, 50, 10**6]))
    return [(Rect(x, y, x, y), i) for i, (x, y) in enumerate(
        (x, rng.randint(0, y_max)) for x in rng.sample(range(10**6), n))]


#: Nine points whose last STR slab is one node below the disk fill: the
#: trailing-node rule once merged it with the top of the slab before it.
LONE_LAST_SLAB = [(Rect(x, y, x, y), i) for i, (x, y) in enumerate(
    [(5, 6), (33, 16), (38, 3), (49, 15), (51, 4), (53, 18), (62, 9),
     (65, 4), (97, 11)])]


@pytest.mark.parametrize("form", ["memory", "disk"])
@given(items=distinct_x_points(), max_entries=fanouts)
@example(items=LONE_LAST_SLAB, max_entries=4)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_theorem_3_2_str_leaves_do_not_overlap(tmp_path_factory, form, items,
                                               max_entries):
    """Theorem 3.2 on both axes: a fresh STR pack of points with distinct
    x has no two leaves that overlap in positive area (a shared edge has
    none).  On disk this includes the trailing-node rule, which must not
    merge a node across two x slabs."""
    if form == "memory":
        tree = pack(items, max_entries=max_entries, method="str")
    else:
        tree = DiskRTree(os.path.join(str(tmp_path_factory.mktemp("thm")),
                                      "t.db"), max_entries=max_entries)
        tree.bulk_load(items, method="str")
    leaves = [node_mbr(entries) for _level, _ref, is_leaf, entries
              in tree.walk() if is_leaf]
    overlapping = [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]
                   if min(a[2], b[2]) > max(a[0], b[0])
                   and min(a[3], b[3]) > max(a[1], b[1])]
    assert overlapping == []
    assert len(leaves) == math.ceil(len(items) / max_entries)
    if form == "disk":
        tree.close()
