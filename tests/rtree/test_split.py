"""Unit tests for the Guttman split strategies."""

import random

import pytest

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
