"""Property-based / randomized PACK invariants (Section 3.3, Theorem 3.2).

For random point and rectangle sets across several fanouts these tests
assert the structural guarantees the paper proves for PACK-built trees:

- the leaf level holds exactly ``ceil(n / M)`` nodes (Theorem 3.2);
- every level is fully packed — at most one node per level is under-full
  (the group holding the ordering's tail), all others hold exactly M;
- parent entry rectangles are *tight*: each equals its child's MBR;
- all leaves sit at the same depth;
- window, within and point queries return exactly the brute-force answer.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.rtree.packing import PACK_METHODS, pack
from repro.rtree.tree import RTree, node_mbr

FANOUTS = [4, 8, 25]
SIZES = [1, 3, 4, 5, 26, 57, 200, 403]
UNIVERSE = Rect(0.0, 0.0, 1000.0, 1000.0)


def random_point_items(n, rng):
    return [(Rect.from_point(Point(rng.uniform(0, 1000),
                                   rng.uniform(0, 1000))), i)
            for i in range(n)]


def random_rect_items(n, rng):
    items = []
    for i in range(n):
        x = rng.uniform(0, 990)
        y = rng.uniform(0, 990)
        items.append((Rect(x, y, x + rng.uniform(0, 40),
                           y + rng.uniform(0, 40)), i))
    return items


DATASETS = {"points": random_point_items, "rects": random_rect_items}


def levels_of(tree: RTree) -> list[list]:
    """Each node's entries, grouped by depth, root level first."""
    out: list[list] = []
    for level, _ref, _is_leaf, entries in tree.walk():
        if level == len(out):
            out.append([])
        out[level].append(entries)
    return out


def assert_packed_shape(tree: RTree, n: int, m: int) -> None:
    """The PACK fill invariants, level by level."""
    tree.validate(check_fill=False)
    lvls = levels_of(tree)
    # Theorem 3.2: exactly ceil(n / M) leaves.
    assert len(lvls[-1]) == math.ceil(n / m)
    # Each level packs the one below into ceil(count / M) nodes, all the
    # way up to a single root.
    entries_below = n
    for nodes in reversed(lvls):
        expected_nodes = math.ceil(entries_below / m)
        assert len(nodes) == expected_nodes, (
            f"level has {len(nodes)} nodes, expected {expected_nodes}")
        fills = sorted(len(entries) for entries in nodes)
        if len(nodes) > 1:
            # At most one under-full node per level (the ordering's tail);
            # every other node holds exactly M entries.
            underfull = [f for f in fills if f < m]
            assert len(underfull) <= 1, (
                f"level with {len(nodes)} nodes has fills {fills}")
            assert all(f == m for f in fills[len(underfull):])
        entries_below = expected_nodes
    assert entries_below == 1  # the chain terminates in the root
    # Tight parent MBRs: every entry rectangle IS its child's MBR, and
    # therefore contains each grandchild rectangle.
    fetch = tree.store.fetch
    for nodes in lvls[:-1]:
        for entries in nodes:
            for e in entries:
                child = fetch(e[4])[1]
                assert e[:4] == node_mbr(child)
                for ce in child:
                    assert Rect(*e[:4]).contains(Rect(*ce[:4]))


@pytest.mark.parametrize("m", FANOUTS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_pack_fill_invariants(m, dataset):
    make = DATASETS[dataset]
    for n in SIZES:
        rng = random.Random(1000 * m + n)
        items = make(n, rng)
        tree = pack(items, max_entries=m, method="nn")
        assert len(tree) == n
        assert_packed_shape(tree, n, m)


@pytest.mark.parametrize("method", sorted(PACK_METHODS))
def test_all_pack_methods_reach_theorem_32_leaf_count(method):
    rng = random.Random(77)
    for m in FANOUTS:
        for n in [1, 57, 200]:
            items = random_rect_items(n, rng)
            tree = pack(items, max_entries=m, method=method)
            leaves = levels_of(tree)[-1]
            assert len(leaves) == math.ceil(n / m)
            tree.validate(check_fill=False)


@pytest.mark.parametrize("m", FANOUTS)
def test_search_matches_brute_force(m):
    rng = random.Random(4242 + m)
    items = random_rect_items(300, rng)
    tree = pack(items, max_entries=m, method="nn")
    for _ in range(100):
        cx = rng.uniform(0, 1000)
        cy = rng.uniform(0, 1000)
        w = rng.uniform(1, 250)
        h = rng.uniform(1, 250)
        window = Rect(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        got = sorted(tree.search(window))
        expected = sorted(i for r, i in items if r.intersects(window))
        assert got == expected
        got_within = sorted(tree.search_within(window))
        expected_within = sorted(i for r, i in items if window.contains(r))
        assert got_within == expected_within


@pytest.mark.parametrize("m", FANOUTS)
def test_point_query_matches_brute_force(m):
    rng = random.Random(999 + m)
    items = random_rect_items(250, rng)
    tree = pack(items, max_entries=m, method="nn")
    for _ in range(100):
        p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
        got = sorted(tree.point_query(p))
        expected = sorted(i for r, i in items if r.contains_point(p))
        assert got == expected


# -- hypothesis: the invariants hold for adversarial inputs too -------------

coords = st.floats(min_value=0.0, max_value=1000.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def rect_lists(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    rects = []
    for _ in range(n):
        x = draw(coords)
        y = draw(coords)
        w = draw(st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
        h = draw(st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
        rects.append(Rect(x, y, x + w, y + h))
    return rects


@given(rect_lists(), st.sampled_from(FANOUTS))
@settings(max_examples=40, deadline=None)
def test_pack_invariants_hypothesis(rects, m):
    items = [(r, i) for i, r in enumerate(rects)]
    tree = pack(items, max_entries=m, method="nn")
    assert len(tree) == len(items)
    assert_packed_shape(tree, len(items), m)


@given(rect_lists(), st.sampled_from(FANOUTS), coords, coords)
@settings(max_examples=40, deadline=None)
def test_pack_search_sound_and_complete_hypothesis(rects, m, qx, qy):
    items = [(r, i) for i, r in enumerate(rects)]
    tree = pack(items, max_entries=m, method="nn")
    window = Rect(qx, qy, min(qx + 120.0, 1000.0), min(qy + 120.0, 1000.0))
    got = sorted(tree.search(window))
    expected = sorted(i for r, i in items if r.intersects(window))
    assert got == expected
