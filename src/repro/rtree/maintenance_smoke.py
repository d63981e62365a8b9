"""Maintenance-loop smoke: churn, detect, repack, recover — or die.

CI gate for the background maintenance path (``maintenance-smoke``).
Builds a disk-backed picture index, degrades it with hot-spot churn
split quadratically (the Section 3.4 update problem; the served R* split
keeps the same churn under WARN), then asserts the whole loop closes:

1. the advisor's degradation signal crosses the WARN threshold,
2. ``run_maintenance_cycle`` fires at least one *incremental* repack,
3. the post-repack expected search cost returns within bound, and
4. query results stay identical to a brute-force scan throughout.

Run with ``python -m repro.rtree.maintenance_smoke``; exits non-zero on
any failed assertion.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile

from repro.advisor.whatif import packed_degradation
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.relational.catalog import Database
from repro.relational.relation import Column
from repro.rtree.maintenance import MaintenanceConfig, run_maintenance_cycle
from repro.rtree.split import QuadraticSplit

N = 1200
CHURN = 2400
BOUND = 1.25
MAX_CYCLES = 4


def build_db(tmp_dir: str, seed: int = 11) -> tuple[Database, dict]:
    rng = random.Random(seed)
    db = Database()
    points = db.create_relation("points", [
        Column("id", "int"), Column("loc", "point")])
    for i in range(N):
        points.insert({"id": i, "loc": Point(rng.uniform(0, 1000),
                                             rng.uniform(0, 1000))})
    picture = db.create_picture("map", Rect(0, 0, 1000, 1000))
    index = picture.register_disk(points, "loc",
                                  os.path.join(tmp_dir, "map.db"),
                                  max_entries=8)
    index.split_strategy = QuadraticSplit()
    live = {rid: row["loc"] for rid, row in points.rows()}
    return db, live


def churn(db: Database, live: dict, seed: int = 12) -> None:
    """Hot-spot inserts and scattered deletes, per Section 3.4."""
    rng = random.Random(seed)
    for k in range(CHURN):
        if k % 3 != 2:
            x = min(max(rng.gauss(150.0, 40.0), 0.0), 1000.0)
            y = min(max(rng.gauss(150.0, 40.0), 0.0), 1000.0)
            rid = db.insert("points", {"id": 10_000 + k, "loc": Point(x, y)})
            live[rid] = Point(x, y)
        else:
            rid = rng.choice(list(live))
            db.delete("points", rid)
            del live[rid]


def check_results(db: Database, live: dict, seed: int = 13) -> None:
    rng = random.Random(seed)
    index = db.picture("map").index("points", "loc")
    for _ in range(40):
        x, y = rng.uniform(0, 900), rng.uniform(0, 900)
        window = Rect(x, y, x + 100, y + 100)
        got = sorted(index.search(window))
        want = sorted(rid for rid, p in live.items()
                      if window.contains_point(p))
        assert got == want, f"window {window} mismatch"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="maintenance-smoke-") as tmp:
        db, live = build_db(tmp)
        ratio0, _, _ = packed_degradation(db, "map", "points", "loc")
        print(f"fresh-packed degradation: {ratio0:.3f}x")

        churn(db, live)
        check_results(db, live)
        degraded, _, _ = packed_degradation(db, "map", "points", "loc")
        print(f"post-churn degradation:   {degraded:.3f}x")
        assert degraded >= BOUND, (
            f"churn failed to degrade the tree past {BOUND}x "
            f"(got {degraded:.3f}x)")

        config = MaintenanceConfig(warn_ratio=BOUND)
        local_repacks = 0
        ratio = degraded
        for cycle in range(1, MAX_CYCLES + 1):
            actions = [a for a in run_maintenance_cycle(db, config)
                       if a.kind != "none"]
            local_repacks += sum(1 for a in actions if a.kind == "local")
            for action in actions:
                print(f"cycle {cycle}: {action.describe()}")
            ratio, _, _ = packed_degradation(db, "map", "points", "loc")
            print(f"cycle {cycle}: degradation now {ratio:.3f}x")
            if ratio < BOUND:
                break
        check_results(db, live)
        assert local_repacks >= 1, "no incremental repack fired"
        assert ratio < BOUND, (
            f"maintenance left the tree at {ratio:.3f}x "
            f"(bound {BOUND}x after {MAX_CYCLES} cycles)")
        print(f"ok: {local_repacks} incremental repack(s), "
              f"{degraded:.3f}x -> {ratio:.3f}x (bound {BOUND}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
