"""_CenterGrid correctness: ring pruning must be a pure accelerator.

The grid exists to speed up the paper's NN grouping; it must return the
*same* index a brute-force ``min()`` over the alive entries would —
including ties, which break toward the lowest index — or PACK output
would silently depend on an internal data structure.  Integer
coordinates keep squared distances exact, so a tie here is a real tie,
not a rounding artefact.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.rtree.packing import _CenterGrid, pack
from repro.rtree.tree import node_mbr

int_coord = st.integers(min_value=0, max_value=60)


@st.composite
def center_sets(draw):
    """Point sets rigged toward collisions, collinearity and clusters."""
    kind = draw(st.sampled_from(["free", "collinear", "clustered"]))
    n = draw(st.integers(min_value=2, max_value=50))
    if kind == "collinear":
        y = draw(int_coord)
        pts = [Point(draw(int_coord), y) for _ in range(n)]
    elif kind == "clustered":
        cx, cy = draw(int_coord), draw(int_coord)
        pts = [Point(cx + draw(st.integers(-2, 2)),
                     cy + draw(st.integers(-2, 2))) for _ in range(n)]
    else:
        pts = [Point(draw(int_coord), draw(int_coord)) for _ in range(n)]
    return pts


def _entries(points):
    return [(*Rect.from_point(p), i) for i, p in enumerate(points)]


def _brute_nearest(query, alive, centers):
    return min(alive,
               key=lambda i: ((centers[i].x - query.x) ** 2
                              + (centers[i].y - query.y) ** 2))


@given(center_sets(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=120, deadline=None)
def test_grid_nearest_matches_brute_force(points, seed):
    rng = random.Random(seed)
    entries = _entries(points)
    grid = _CenterGrid(entries)
    alive = dict(enumerate(entries))
    centers = [Rect(*e[:4]).center() for e in entries]
    # Drain in random order from random query points: every intermediate
    # alive-set shape (holes, singletons) gets exercised.
    while len(alive) > 1:
        query = Point(rng.randint(0, 60), rng.randint(0, 60))
        got = grid.nearest(query, alive)
        assert got == _brute_nearest(query, alive, centers)
        victim = rng.choice(sorted(alive))
        del alive[victim]
        grid.discard(victim)


@given(center_sets())
@settings(max_examples=60, deadline=None)
def test_degenerate_all_identical_centers(points):
    first = points[0]
    entries = _entries([first] * len(points))
    grid = _CenterGrid(entries)
    alive = dict(enumerate(entries))
    # All distances tie; the lowest alive index must win every time.
    assert grid.nearest(Point(first.x, first.y), alive) == 0
    del alive[0]
    grid.discard(0)
    if alive:
        assert grid.nearest(Point(first.x + 1, first.y), alive) == 1


def test_grouped_pack_identical_with_and_without_grid():
    """The grid kicks in above 64 entries; PACK output must not change."""
    rng = random.Random(11)
    pts = [Point(rng.randint(0, 500), rng.randint(0, 500))
           for _ in range(300)]
    items = [(Rect.from_point(p), i) for i, p in enumerate(pts)]

    import repro.rtree.packing as packing

    with_grid = pack(items, max_entries=4, method="nn")
    orig_init = packing._NeighborFinder.__init__

    def no_grid_init(self, ordered, distance):
        orig_init(self, ordered, distance)
        self._grid = None  # force every pop_nearest onto the full scan

    packing._NeighborFinder.__init__ = no_grid_init
    try:
        without_grid = pack(items, max_entries=4, method="nn")
    finally:
        packing._NeighborFinder.__init__ = orig_init

    def shape(tree):
        return [(is_leaf,
                 tuple(sorted(e[4] for e in entries)) if is_leaf else None,
                 node_mbr(entries))
                for _level, _ref, is_leaf, entries in tree.walk()]

    assert shape(with_grid) == shape(without_grid)
