"""Shared workload for the WAL durability tests.

A deterministic insert/delete mix over a :class:`PersistentRelation`,
plus an oracle that replays any acknowledged prefix of it in memory.
The crash tests all share the same contract:

- every op the workload *acknowledged* (returned from) must be present
  after recovery;
- the single op in flight at the crash must be atomic — the recovered
  state equals the oracle at ``k`` or ``k + 1`` acknowledged ops,
  nothing in between and nothing else.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.relational.catalog import Picture
from repro.relational.persistent import PersistentRelation
from repro.relational.relation import Column

SCHEMA = [Column("name", "str"), Column("v", "int"),
          Column("loc", "point")]

Op = tuple[str, int]


def row_for(i: int) -> dict:
    return {"name": f"r{i}", "v": i,
            "loc": Point(float((i * 37) % 100), float((i * 53) % 100))}


def make_ops(n: int, seed: int) -> list[Op]:
    """A deterministic mix of ~75% inserts and ~25% deletes."""
    rnd = random.Random(seed)
    return [("del", rnd.randrange(1 << 30)) if rnd.random() < 0.25
            else ("ins", i) for i in range(n)]


def open_relation(path: str, **kwargs) -> PersistentRelation:
    kwargs.setdefault("page_size", 512)
    kwargs.setdefault("buffer_capacity", 8)
    return PersistentRelation("crashtest", SCHEMA, path, **kwargs)


def run_ops(rel: PersistentRelation, ops: list[Op],
            on_ack: Optional[Callable[[int], None]] = None) -> int:
    """Apply *ops* in order; returns the count that completed.

    ``on_ack(i)`` fires after op *i* returns — the crash-matrix child
    uses it to record acknowledgements in a side file the parent reads.
    A crash propagates out of this function mid-op, so the caller's
    notion of "acknowledged" is exactly the ops that called ``on_ack``.
    """
    live: list = []  # insertion-ordered addresses of live rows
    done = 0
    for i, (kind, arg) in enumerate(ops):
        if kind == "ins":
            live.append(rel.insert(row_for(arg)))
        elif live:
            rel.delete(live.pop(arg % len(live)))
        done += 1
        if on_ack is not None:
            on_ack(i)
    return done


def expected_ids(ops: list[Op], k: int) -> list[int]:
    """Row ids (`v` values) the oracle holds after the first *k* ops."""
    live: list[int] = []
    for kind, arg in ops[:k]:
        if kind == "ins":
            live.append(arg)
        elif live:
            live.pop(arg % len(live))
    return sorted(live)


def recovered_ids(rel: PersistentRelation) -> list[int]:
    return sorted(row["v"] for _addr, row in rel.rows())


def assert_consistent(rel: PersistentRelation) -> None:
    """Structural consistency: indexes built over recovered rows agree.

    Rebuilds a B-tree and a packed R-tree from the recovered heap and
    checks both against brute force — a recovery that resurrected torn
    pages or lost slots would disagree somewhere.
    """
    rows = list(rel.rows())
    rel.create_index("v")
    for addr, row in rows:
        hits = [a for a, _r in rel.lookup("v", row["v"])]
        assert addr in hits
    if rows:
        tree = Picture("crash", Rect(0, 0, 100, 100)).register(
            rel, "loc", max_entries=4)
        window = Rect(0, 0, 60, 60)
        expect = sorted(addr for addr, row in rows
                        if Rect.from_point(row["loc"]).intersects(window))
        assert sorted(tree.search(window)) == expect
