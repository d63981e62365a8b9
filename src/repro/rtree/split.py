"""Node-splitting algorithms.

When INSERT overflows a node of ``M`` entries the ``M + 1`` flat
``(x1, y1, x2, y2, ref)`` entries are divided between two nodes.  Both
tree forms split by R*'s choice (:class:`RStarSplit`, the default).
Guttman 1984's three algorithms stay for the ablations: the 1985 paper's
INSERT baseline inherits whichever is configured, and our Table 1 runs
name the linear split, his recommended cheap one.  Every strategy gives
each side at least ``min_entries`` entries, Guttman's "m-filled"
requirement (Section 3.2, requirement 1).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import combinations
from operator import itemgetter
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
        return self._split(entries, min_entries)

    @abstractmethod
    def _split(self, entries: Sequence[tuple], min_entries: int) -> Split:
        """The algorithm proper, over the flat entries."""


class _GuttmanSplit(SplitStrategy):
    """Guttman's algorithms, which divide items with a ``.rect``."""

    def _split(self, entries: Sequence[tuple], min_entries: int) -> Split:
        g1, g2 = self._divide(
            [_Item(Rect(e[0], e[1], e[2], e[3]), e) for e in entries],
            min_entries)
        return [i.entry for i in g1], [i.entry for i in g2]

    @abstractmethod
    def _divide(self, entries: Sequence[_Item], min_entries: int) -> Split:
        """The algorithm proper, over items."""


def _seed_groups(entries: Sequence[_Item], seeds: tuple[int, int],
                 ) -> tuple[list[_Item], list[_Item], list[_Item]]:
    """The groups the two *seeds* start, and the other items in order."""
    a, b = seeds
    return ([entries[a]], [entries[b]],
            [e for i, e in enumerate(entries) if i != a and i != b])


class ExhaustiveSplit(_GuttmanSplit):
    """Try every legal 2-partition; keep the one with least total area.

    Exponential in the node size, which is exactly why Guttman proposes the
    cheaper heuristics — but at branching factor 4 only a handful of
    partitions exist, and this gives the INSERT baseline its best case.
    """

    name = "exhaustive"

    def _divide(self, entries: Sequence[_Item], min_entries: int) -> Split:
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
                score = (mbr_of_rects(e.rect for e in g1).area()
                         + mbr_of_rects(e.rect for e in g2).area())
                if score < best_score:
                    best_score = score
                    best = (g1, g2)
        assert best is not None
        return best


class QuadraticSplit(_GuttmanSplit):
    """Guttman's quadratic-cost split: PickSeeds + PickNext."""

    name = "quadratic"

    def _divide(self, entries: Sequence[_Item], min_entries: int) -> Split:
        g1, g2, remaining = _seed_groups(entries, self._pick_seeds(entries))
        mbr1, mbr2 = g1[0].rect, g2[0].rect
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


class LinearSplit(_GuttmanSplit):
    """Guttman's linear-cost split: extreme-separation seeds, cheap assign."""

    name = "linear"

    def _divide(self, entries: Sequence[_Item], min_entries: int) -> Split:
        g1, g2, remaining = _seed_groups(entries,
                                         self._linear_pick_seeds(entries))
        mbr1, mbr2 = g1[0].rect, g2[0].rect
        for entry in remaining:
            d1 = mbr1.enlargement(entry.rect)
            d2 = mbr2.enlargement(entry.rect)
            if d1 < d2 or (d1 == d2 and len(g1) <= len(g2)):
                g1.append(entry)
                mbr1 = mbr1.union(entry.rect)
            else:
                g2.append(entry)
                mbr2 = mbr2.union(entry.rect)
        # Rebalance if one side missed the minimum fill: move the other
        # side's last-assigned entries over.
        for small, large in ((g1, g2), (g2, g1)):
            while len(small) < min_entries:
                small.append(large.pop())
        return g1, g2

    @staticmethod
    def _linear_pick_seeds(entries: Sequence[_Item]) -> tuple[int, int]:
        """Pair with greatest normalised separation along either axis."""
        indices = range(len(entries))

        def axis(lo: int, hi: int) -> tuple[float, int, int]:
            """Separation of the highest low side from the lowest high
            side, over the entries' extent; and those two entries."""
            hi_lo = max(indices, key=lambda i: entries[i].rect[lo])
            lo_hi = min(indices, key=lambda i: entries[i].rect[hi])
            width = (max(e.rect[hi] for e in entries)
                     - min(e.rect[lo] for e in entries))
            sep = entries[hi_lo].rect[lo] - entries[lo_hi].rect[hi]
            return (sep / width if width > 0 else 0.0), hi_lo, lo_hi

        x, y = axis(0, 2), axis(1, 3)
        _norm, a, b = x if x[0] >= y[0] else y
        if a == b:
            # All entries coincide along both axes; fall back to any pair.
            b = (a + 1) % len(entries)
        return a, b


class RStarSplit(SplitStrategy):
    """The R*-tree split (Beckmann et al. 1990), minus forced reinsert;
    the served split of both tree forms.

    The axis is the one whose legal cuts of the entries, sorted by lower
    and by upper bound, have the least sum of group margins; on it, the
    cut with least group-MBR overlap wins, ties to least total area.
    Every cut's groups are a prefix and a suffix of a sorting, so one
    sweep from each end gives all their MBRs: four sorts and ``O(M)``
    arithmetic on the flat entries, where quadratic costs ``O(M^2)``.
    """

    name = "rstar"

    def _split(self, entries: Sequence[tuple], min_entries: int) -> Split:
        n = len(entries)
        cuts = range(min_entries, n - min_entries + 1)
        best_margin = math.inf
        for lo, hi in ((0, 2), (1, 3)):
            sweeps = []
            margin = 0.0
            for key in (itemgetter(lo, hi), itemgetter(hi, lo)):
                ordered = sorted(entries, key=key)
                heads = _running_mbrs(ordered[:n - min_entries])
                tails = _running_mbrs(ordered[:min_entries - 1:-1])
                groups = [(heads[k - 1], tails[n - k - 1]) for k in cuts]
                for a, b in groups:
                    margin += ((a[2] - a[0]) + (a[3] - a[1])
                               + ((b[2] - b[0]) + (b[3] - b[1])))
                sweeps.append((ordered, groups))
            if margin < best_margin:
                best_margin, best_sweeps = margin, sweeps

        best_overlap = best_area = math.inf
        for ordered, groups in best_sweeps:
            for k, (a, b) in zip(cuts, groups):
                w = min(a[2], b[2]) - max(a[0], b[0])
                h = min(a[3], b[3]) - max(a[1], b[1])
                overlap = w * h if w > 0.0 and h > 0.0 else 0.0
                area = ((a[2] - a[0]) * (a[3] - a[1])
                        + (b[2] - b[0]) * (b[3] - b[1]))
                if (overlap < best_overlap
                        or (overlap == best_overlap and area < best_area)):
                    best_overlap, best_area = overlap, area
                    best = ordered[:k], ordered[k:]
        return best


def _running_mbrs(ordered: Sequence[tuple]) -> list[tuple]:
    """``out[i]`` is the MBR of ``ordered[:i + 1]``."""
    x1, y1, x2, y2 = ordered[0][:4]
    out = []
    for e in ordered:
        if e[0] < x1:
            x1 = e[0]
        if e[1] < y1:
            y1 = e[1]
        if e[2] > x2:
            x2 = e[2]
        if e[3] > y2:
            y2 = e[3]
        out.append((x1, y1, x2, y2))
    return out


_STRATEGIES: dict[str, type[SplitStrategy]] = {
    cls.name: cls
    for cls in (RStarSplit, ExhaustiveSplit, QuadraticSplit, LinearSplit)}


def get_split_strategy(name: str) -> SplitStrategy:
    """Instantiate a split strategy by name.

    Args:
        name: one of ``"rstar"`` (the served default), ``"exhaustive"``,
            ``"quadratic"``, ``"linear"``.

    Raises:
        KeyError: for an unknown strategy name.
    """
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown split strategy {name!r}; "
            f"choose from {sorted(_STRATEGIES)}") from None
