"""Deterministic routed-query workloads over the demo dataset.

Shared by the cluster smoke check, the socket equivalence tests and the
scaling benchmark: one seeded RNG, one list of PSQL texts that exercise
every routing shape — narrow windows (single-shard), wide and
boundary-spanning windows (multi-shard), every spatial operator
including the broadcast-only ``disjoined``, where-clauses, where-only
queries with no picture, and juxtaposition joins.
"""

from __future__ import annotations

import random

from repro.geometry.rect import Rect

__all__ = ["random_queries", "random_window"]


def random_window(rng: random.Random, universe: Rect,
                  spanning: bool = False) -> tuple[float, float,
                                                   float, float]:
    """A ``(cx, dx, cy, dy)`` window inside *universe*.

    With ``spanning=True`` the window is centred near the middle of the
    universe with a large extent — overwhelmingly likely to straddle a
    shard boundary, which is the case the dedup logic exists for.
    """
    w, h = universe.x2 - universe.x1, universe.y2 - universe.y1
    if spanning:
        cx = universe.x1 + w * rng.uniform(0.35, 0.65)
        cy = universe.y1 + h * rng.uniform(0.35, 0.65)
        dx = w * rng.uniform(0.25, 0.45)
        dy = h * rng.uniform(0.25, 0.45)
    else:
        cx = universe.x1 + w * rng.random()
        cy = universe.y1 + h * rng.random()
        dx = w * rng.uniform(0.02, 0.15)
        dy = h * rng.uniform(0.02, 0.15)
    return (round(cx, 1), round(dx, 1), round(cy, 1), round(dy, 1))


def random_queries(rng: random.Random, universe: Rect,
                   n: int) -> list[str]:
    """*n* deterministic PSQL texts covering the routed query shapes."""
    singles = [
        ("select city from cities on us-map at loc {op} {win}",
         ("covered-by", "overlapping", "intersecting", "disjoined")),
        ("select city , population from cities on us-map at loc {op} "
         "{win} where population > 200000",
         ("covered-by", "intersecting")),
        ("select state from states on us-map at loc {op} {win}",
         ("overlapping", "covered-by", "covering", "intersecting")),
        ("select lake , area from lakes on lake-map at loc {op} {win}",
         ("overlapping", "intersecting", "covered-by")),
        ("select hwy-name , hwy-section from highways on us-map "
         "at loc {op} {win}",
         ("intersecting", "overlapping")),
        ("select zone , hour-diff from time-zones on time-zone-map "
         "at loc {op} {win}",
         ("overlapping", "covering", "intersecting")),
    ]
    joins = [
        "select city , zone from cities , time-zones "
        "on us-map , time-zone-map at cities.loc covered-by "
        "time-zones.loc",
        "select city , population-density from cities , states "
        "on us-map , us-map at cities.loc covered-by states.loc "
        "where population > 100000",
    ]
    where_only = ("select city , population from cities "
                  "where population > {n}")
    out: list[str] = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.12:
            out.append(rng.choice(joins))
            continue
        if roll >= 0.92:
            out.append(where_only.format(
                n=rng.randrange(0, 4_000_000, 100_000)))
            continue
        template, ops = singles[rng.randrange(len(singles))]
        cx, dx, cy, dy = random_window(rng, universe,
                                       spanning=(roll < 0.45))
        win = f"{{{cx} +- {dx}, {cy} +- {dy}}}"
        out.append(template.format(op=rng.choice(ops), win=win))
    return out
