"""Unit tests for the Guttman split strategies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, mbr_of_rects
from repro.rtree import (
    ExhaustiveSplit,
    LinearSplit,
    QuadraticSplit,
    get_split_strategy,
)
from repro.rtree.split import RStarSplit

ALL_STRATEGIES = [ExhaustiveSplit(), QuadraticSplit(), LinearSplit(),
                  RStarSplit()]


def entries_from(rects) -> list[tuple]:
    return [(*r, i) for i, r in enumerate(rects)]


def rect_of(entry) -> Rect:
    return Rect(*entry[:4])


def random_entries(n: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    rects = []
    for _ in range(n):
        x = rng.uniform(0, 100)
        y = rng.uniform(0, 100)
        rects.append(Rect(x, y, x + rng.uniform(0, 10),
                          y + rng.uniform(0, 10)))
    return entries_from(rects)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=lambda s: s.name)
class TestSplitContract:
    """Every strategy must satisfy the same structural contract."""

    def test_partitions_all_entries(self, strategy):
        entries = random_entries(5, seed=1)
        g1, g2 = strategy.split(entries, min_entries=2)
        assert sorted(e[4] for e in g1 + g2) == [0, 1, 2, 3, 4]

    def test_min_fill_respected(self, strategy):
        for seed in range(10):
            entries = random_entries(5, seed=seed)
            g1, g2 = strategy.split(entries, min_entries=2)
            assert len(g1) >= 2 and len(g2) >= 2

    def test_min_fill_one(self, strategy):
        entries = random_entries(3, seed=3)
        g1, g2 = strategy.split(entries, min_entries=1)
        assert len(g1) >= 1 and len(g2) >= 1
        assert len(g1) + len(g2) == 3

    def test_too_few_entries_raise(self, strategy):
        entries = random_entries(3, seed=0)
        with pytest.raises(ValueError):
            strategy.split(entries, min_entries=2)

    def test_identical_rects_still_split(self, strategy):
        entries = entries_from([Rect(5, 5, 6, 6)] * 5)
        g1, g2 = strategy.split(entries, min_entries=2)
        assert len(g1) + len(g2) == 5
        assert len(g1) >= 2 and len(g2) >= 2

    def test_larger_node_sizes(self, strategy):
        entries = random_entries(17, seed=5)
        g1, g2 = strategy.split(entries, min_entries=8)
        assert len(g1) >= 8 and len(g2) >= 8
        assert len(g1) + len(g2) == 17


class TestQuality:
    def test_exhaustive_separates_two_clusters(self):
        left = [Rect(i, 0, i + 1, 1) for i in range(3)]
        right = [Rect(100 + i, 0, 101 + i, 1) for i in range(2)]
        g1, g2 = ExhaustiveSplit().split(entries_from(left + right),
                                         min_entries=2)
        mbr1 = mbr_of_rects(map(rect_of, g1))
        mbr2 = mbr_of_rects(map(rect_of, g2))
        assert not mbr1.overlaps_interior(mbr2)

    def test_quadratic_separates_two_clusters(self):
        left = [Rect(i, 0, i + 1, 1) for i in range(3)]
        right = [Rect(100 + i, 0, 101 + i, 1) for i in range(2)]
        g1, g2 = QuadraticSplit().split(entries_from(left + right),
                                        min_entries=2)
        mbr1 = mbr_of_rects(map(rect_of, g1))
        mbr2 = mbr_of_rects(map(rect_of, g2))
        assert not mbr1.overlaps_interior(mbr2)

    def test_exhaustive_never_worse_than_others(self):
        """Exhaustive minimises total area by construction."""
        for seed in range(5):
            entries = random_entries(5, seed=seed)

            def total_area(split):
                g1, g2 = split
                return (mbr_of_rects(map(rect_of, g1)).area()
                        + mbr_of_rects(map(rect_of, g2)).area())

            best = total_area(ExhaustiveSplit().split(entries, 2))
            assert best <= total_area(QuadraticSplit().split(entries, 2)) + 1e-9
            assert best <= total_area(LinearSplit().split(entries, 2)) + 1e-9


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_split_strategy("linear").name == "linear"
        assert get_split_strategy("quadratic").name == "quadratic"
        assert get_split_strategy("exhaustive").name == "exhaustive"
        assert get_split_strategy("rstar").name == "rstar"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown split strategy"):
            get_split_strategy("r-star")


# -- the R* sweep against a brute-force R* --------------------------------

def _mbr(group) -> tuple:
    return (min(e[0] for e in group), min(e[1] for e in group),
            max(e[2] for e in group), max(e[3] for e in group))


def _overlap(a, b) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    return w * h if w > 0 and h > 0 else 0.0


def _area(a) -> float:
    return (a[2] - a[0]) * (a[3] - a[1])


def reference_rstar(entries, min_entries):
    """R*'s figures by enumeration: for each axis, its margin sum and
    its cuts as ``(overlap, total area, first group, second group)``,
    over every legal cut of its two sortings, each group's MBR computed
    from its entries."""
    n = len(entries)
    axes = []
    for lo, hi in ((0, 2), (1, 3)):
        margin, cuts = 0.0, []
        for key in (lambda e: (e[lo], e[hi]), lambda e: (e[hi], e[lo])):
            ordered = sorted(entries, key=key)
            for k in range(min_entries, n - min_entries + 1):
                g1, g2 = ordered[:k], ordered[k:]
                a, b = _mbr(g1), _mbr(g2)
                margin += (a[2] - a[0]) + (a[3] - a[1])
                margin += (b[2] - b[0]) + (b[3] - b[1])
                cuts.append((_overlap(a, b), _area(a) + _area(b), g1, g2))
        axes.append((margin, cuts))
    return axes


def _refs(group) -> frozenset:
    return frozenset(e[4] for e in group)


# Half-integer coordinates keep every sum and product exact, so the
# sweep's figures can equal the reference's whatever order each adds in;
# the small grid and a pool drawn from again make duplicate, zero-width
# and identical rectangles common.
_half = st.integers(0, 40).map(lambda v: v / 2)
_side = st.integers(0, 6).map(lambda v: v / 2)
_rects = st.builds(lambda x, y, w, h: (x, y, x + w, y + h),
                   _half, _half, _side, _side)


@st.composite
def overflowing_nodes(draw):
    max_entries = draw(st.sampled_from([4, 8, 102]))
    min_entries = draw(st.integers(1, max_entries // 2))
    pool = draw(st.lists(_rects, min_size=1, max_size=max_entries + 1))
    rects = draw(st.lists(st.one_of(st.sampled_from(pool), _rects),
                          min_size=max_entries + 1,
                          max_size=max_entries + 1))
    return [(*r, i) for i, r in enumerate(rects)], min_entries


@settings(max_examples=200, deadline=None)
@given(overflowing_nodes())
def test_rstar_sweep_matches_brute_force(node):
    entries, min_entries = node
    g1, g2 = RStarSplit().split(entries, min_entries)
    assert sorted(e[4] for e in g1 + g2) == list(range(len(entries)))
    assert len(g1) >= min_entries and len(g2) >= min_entries

    chosen = (_refs(g1), _refs(g2))
    axes = reference_rstar(entries, min_entries)
    least_margin = min(margin for margin, _cuts in axes)
    # The groups are a cut of an axis with the least margin sum...
    assert any(margin == least_margin and chosen in
               {(_refs(c1), _refs(c2)) for _o, _a, c1, c2 in cuts}
               for margin, cuts in axes)
    # ...and, on the axis R* takes (x on a margin tie), a cut with the
    # least overlap, then the least total area.
    _margin, cuts = min(axes, key=lambda axis: axis[0])
    best = min((overlap, area) for overlap, area, _g1, _g2 in cuts)
    a, b = _mbr(g1), _mbr(g2)
    assert (_overlap(a, b), _area(a) + _area(b)) == best
    tied = {(_refs(c1), _refs(c2)) for overlap, area, c1, c2 in cuts
            if (overlap, area) == best}
    assert chosen in tied
    if len(tied) == 1:  # no tie: the very groups the reference takes
        assert chosen == tied.pop()
