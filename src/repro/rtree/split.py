"""Guttman node-splitting algorithms.

When INSERT overflows a node of ``M`` entries the ``M + 1`` entries must be
divided between two nodes.  Guttman 1984 gives three algorithms of
increasing cost and quality; the 1985 paper's INSERT baseline inherits
whichever is configured (our Table 1 runs use the exhaustive split, which
is affordable at the paper's branching factor of 4 and is the strongest
possible showing for the dynamic baseline).

All strategies guarantee each side receives at least ``min_entries``
entries so Guttman's "m-filled" requirement (Section 3.2, requirement 1)
is preserved.  They split the tree's flat ``(x1, y1, x2, y2, ref)``
entries; each algorithm sees an entry as an item with a ``.rect``, built
once per split, and the groups come back as the original entries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import combinations
from typing import NamedTuple, Sequence

from repro.geometry.rect import Rect, mbr_of_rects

Split = tuple[list, list]


class _Item(NamedTuple):
    """One entry as the algorithms see it: its rectangle, and itself."""

    rect: Rect
    entry: tuple


class SplitStrategy(ABC):
    """Interface for dividing an overflowing entry list into two groups."""

    name: str = "abstract"

    def split(self, entries: Sequence[tuple], min_entries: int) -> Split:
        """Partition *entries* into two non-empty groups.

        Both groups contain at least *min_entries* entries; together they
        contain every input entry exactly once.

        Raises:
            ValueError: when fewer than ``2 * min_entries`` entries are given.
        """
        if len(entries) < 2 * min_entries:
            raise ValueError(
                f"cannot split {len(entries)} entries with minimum fill "
                f"{min_entries}")
        g1, g2 = self._split(
            [_Item(Rect(e[0], e[1], e[2], e[3]), e) for e in entries],
            min_entries)
        return [i.entry for i in g1], [i.entry for i in g2]

    @abstractmethod
    def _split(self, entries: Sequence[_Item], min_entries: int) -> Split:
        """The algorithm proper, over items with a ``.rect``."""


def _group_mbr(entries: Sequence[_Item]) -> Rect:
    return mbr_of_rects(e.rect for e in entries)


class ExhaustiveSplit(SplitStrategy):
    """Try every legal 2-partition; keep the one with least total area.

    Exponential in the node size, which is exactly why Guttman proposes the
    cheaper heuristics — but at branching factor 4 only a handful of
    partitions exist, and this gives the INSERT baseline its best case.
    """

    name = "exhaustive"

    def _split(self, entries: Sequence[_Item], min_entries: int) -> Split:
        n = len(entries)
        indices = range(n)
        best: Split | None = None
        best_score = float("inf")
        # Fix entry 0 in the first group to halve the symmetric search space.
        for size in range(min_entries, n - min_entries + 1):
            for combo in combinations(indices[1:], size - 1):
                first = {0, *combo}
                g1 = [entries[i] for i in indices if i in first]
                g2 = [entries[i] for i in indices if i not in first]
                if len(g2) < min_entries:
                    continue
                score = _group_mbr(g1).area() + _group_mbr(g2).area()
                if score < best_score:
                    best_score = score
                    best = (g1, g2)
        assert best is not None
        return best


class QuadraticSplit(SplitStrategy):
    """Guttman's quadratic-cost split: PickSeeds + PickNext."""

    name = "quadratic"

    def _split(self, entries: Sequence[_Item], min_entries: int) -> Split:
        remaining = list(entries)
        seed_a, seed_b = self._pick_seeds(remaining)
        # Remove the later index first so positions stay valid.
        for idx in sorted((seed_a, seed_b), reverse=True):
            del remaining[idx]
        g1 = [entries[seed_a]]
        g2 = [entries[seed_b]]
        mbr1 = g1[0].rect
        mbr2 = g2[0].rect

        while remaining:
            # If one group must absorb everything left to reach min fill,
            # assign the rest wholesale.
            if len(g1) + len(remaining) == min_entries:
                g1.extend(remaining)
                break
            if len(g2) + len(remaining) == min_entries:
                g2.extend(remaining)
                break
            idx = self._pick_next(remaining, mbr1, mbr2)
            entry = remaining.pop(idx)
            d1 = mbr1.enlargement(entry.rect)
            d2 = mbr2.enlargement(entry.rect)
            if d1 < d2:
                choose_first = True
            elif d2 < d1:
                choose_first = False
            elif mbr1.area() != mbr2.area():
                choose_first = mbr1.area() < mbr2.area()
            else:
                choose_first = len(g1) <= len(g2)
            if choose_first:
                g1.append(entry)
                mbr1 = mbr1.union(entry.rect)
            else:
                g2.append(entry)
                mbr2 = mbr2.union(entry.rect)
        return g1, g2

    @staticmethod
    def _pick_seeds(entries: Sequence[_Item]) -> tuple[int, int]:
        """The pair wasting the most area if grouped together."""
        best = (0, 1)
        best_waste = -float("inf")
        n = len(entries)
        for i in range(n):
            ri = entries[i].rect
            for j in range(i + 1, n):
                rj = entries[j].rect
                waste = ri.union(rj).area() - ri.area() - rj.area()
                if waste > best_waste:
                    best_waste = waste
                    best = (i, j)
        return best

    @staticmethod
    def _pick_next(remaining: Sequence[_Item], mbr1: Rect, mbr2: Rect) -> int:
        """The entry with the strongest preference for one group."""
        best_idx = 0
        best_diff = -1.0
        for i, e in enumerate(remaining):
            diff = abs(mbr1.enlargement(e.rect) - mbr2.enlargement(e.rect))
            if diff > best_diff:
                best_diff = diff
                best_idx = i
        return best_idx


class LinearSplit(SplitStrategy):
    """Guttman's linear-cost split: extreme-separation seeds, cheap assign."""

    name = "linear"

    def _split(self, entries: Sequence[_Item], min_entries: int) -> Split:
        remaining = list(entries)
        seed_a, seed_b = self._linear_pick_seeds(remaining)
        for idx in sorted((seed_a, seed_b), reverse=True):
            del remaining[idx]
        g1 = [entries[seed_a]]
        g2 = [entries[seed_b]]
        mbr1 = g1[0].rect
        mbr2 = g2[0].rect
        for entry in remaining:
            d1 = mbr1.enlargement(entry.rect)
            d2 = mbr2.enlargement(entry.rect)
            if d1 < d2 or (d1 == d2 and len(g1) <= len(g2)):
                g1.append(entry)
                mbr1 = mbr1.union(entry.rect)
            else:
                g2.append(entry)
                mbr2 = mbr2.union(entry.rect)
        # Rebalance if one side missed the minimum fill: move the entries
        # whose removal costs the least enlargement on the large side.
        self._enforce_min_fill(g1, g2, min_entries)
        self._enforce_min_fill(g2, g1, min_entries)
        return g1, g2

    @staticmethod
    def _enforce_min_fill(small: list[_Item], large: list[_Item],
                          min_entries: int) -> None:
        while len(small) < min_entries:
            small.append(large.pop())

    @staticmethod
    def _linear_pick_seeds(entries: Sequence[_Item]) -> tuple[int, int]:
        """Pair with greatest normalised separation along either axis."""
        def extremes(lo_key, hi_key):
            # Index of highest low side and lowest high side.
            hi_lo = max(range(len(entries)), key=lambda i: lo_key(entries[i]))
            lo_hi = min(range(len(entries)), key=lambda i: hi_key(entries[i]))
            return hi_lo, lo_hi

        x_hi_lo, x_lo_hi = extremes(lambda e: e.rect.x1, lambda e: e.rect.x2)
        y_hi_lo, y_lo_hi = extremes(lambda e: e.rect.y1, lambda e: e.rect.y2)

        x_width = (max(e.rect.x2 for e in entries)
                   - min(e.rect.x1 for e in entries))
        y_width = (max(e.rect.y2 for e in entries)
                   - min(e.rect.y1 for e in entries))
        x_sep = (entries[x_hi_lo].rect.x1 - entries[x_lo_hi].rect.x2)
        y_sep = (entries[y_hi_lo].rect.y1 - entries[y_lo_hi].rect.y2)
        x_norm = x_sep / x_width if x_width > 0 else 0.0
        y_norm = y_sep / y_width if y_width > 0 else 0.0

        if x_norm >= y_norm:
            a, b = x_hi_lo, x_lo_hi
        else:
            a, b = y_hi_lo, y_lo_hi
        if a == b:
            # All entries coincide along both axes; fall back to any pair.
            b = (a + 1) % len(entries)
        return a, b


class RStarSplit(SplitStrategy):
    """The R*-tree split (Beckmann et al. 1990), minus forced reinsert.

    Anachronistic for the 1985 paper but the strongest *dynamic* baseline
    a modern user would compare PACK against (ablation E14):

    1. choose the split axis by the minimum sum of group margins over
       every legal distribution of the entries sorted by lower and by
       upper bound along that axis;
    2. on that axis choose the distribution with minimal group-MBR
       overlap, ties broken by minimal total area.
    """

    name = "rstar"

    def _split(self, entries: Sequence[_Item], min_entries: int) -> Split:
        best_axis_distributions = None
        best_margin = float("inf")
        for axis in ("x", "y"):
            distributions = self._distributions(entries, min_entries, axis)
            margin = sum(
                _group_mbr(g1).perimeter() + _group_mbr(g2).perimeter()
                for g1, g2 in distributions)
            if margin < best_margin:
                best_margin = margin
                best_axis_distributions = distributions
        assert best_axis_distributions is not None

        best: Split | None = None
        best_overlap = float("inf")
        best_area = float("inf")
        for g1, g2 in best_axis_distributions:
            mbr1 = _group_mbr(g1)
            mbr2 = _group_mbr(g2)
            overlap = mbr1.intersection_area(mbr2)
            area = mbr1.area() + mbr2.area()
            if (overlap < best_overlap
                    or (overlap == best_overlap and area < best_area)):
                best_overlap = overlap
                best_area = area
                best = (list(g1), list(g2))
        assert best is not None
        return best

    @staticmethod
    def _distributions(entries: Sequence[_Item], min_entries: int,
                       axis: str) -> list[tuple[list[_Item], list[_Item]]]:
        """Every legal (first k, rest) cut of the two per-axis sortings."""
        if axis == "x":
            lower_key = (lambda e: (e.rect.x1, e.rect.x2))
            upper_key = (lambda e: (e.rect.x2, e.rect.x1))
        else:
            lower_key = (lambda e: (e.rect.y1, e.rect.y2))
            upper_key = (lambda e: (e.rect.y2, e.rect.y1))
        out = []
        n = len(entries)
        for ordered in (sorted(entries, key=lower_key),
                        sorted(entries, key=upper_key)):
            for k in range(min_entries, n - min_entries + 1):
                out.append((ordered[:k], ordered[k:]))
        return out


_STRATEGIES: dict[str, type[SplitStrategy]] = {
    ExhaustiveSplit.name: ExhaustiveSplit,
    QuadraticSplit.name: QuadraticSplit,
    LinearSplit.name: LinearSplit,
    RStarSplit.name: RStarSplit,
}


def get_split_strategy(name: str) -> SplitStrategy:
    """Instantiate a split strategy by name.

    Args:
        name: one of ``"exhaustive"``, ``"quadratic"``, ``"linear"``.

    Raises:
        KeyError: for an unknown strategy name.
    """
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown split strategy {name!r}; "
            f"choose from {sorted(_STRATEGIES)}") from None
