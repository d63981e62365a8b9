"""Overlap-driven background maintenance — closing the Section 3.4 loop.

The paper packs once at load time and leaves the update problem open:
under sustained insert/delete traffic coverage and overlap grow and the
Table-1 search advantage decays (``bench_update_problem.py`` measures
the decay).  This module is the watchdog that closes the loop:

1. **assess** — every picture index is scored with
   :func:`repro.advisor.whatif.packed_degradation` (expected window
   accesses on the live structure vs its hypothetically re-packed
   self).  1.0 means "as good as packed".
2. **pick_region** — for a degraded tree, the root partition whose MBR
   overlaps its siblings the most is the repack target; overlap between
   top-level partitions is exactly what packing eliminates (Table 1)
   and what hot-spot churn regrows.
3. **run_maintenance_cycle** — degraded trees past ``warn_ratio`` get
   an *incremental* repack of just that subtree
   (:func:`repro.rtree.repack.local_repack` through
   ``Database.repack``); past ``full_ratio`` the whole tree is rebuilt.
   Each repack bumps the catalog generation, so server result caches
   drop structure-derived artefacts.

The server wraps :func:`run_maintenance_cycle` in a scheduler thread
(:class:`repro.server.scheduler.MaintenanceScheduler`); the REPL's
``\\maintain run`` and ``python -m repro.rtree.maintenance_smoke`` drive
it synchronously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro import obs
from repro.geometry.rect import Rect

__all__ = [
    "MaintenanceConfig",
    "MaintenanceAction",
    "assess",
    "pick_region",
    "run_maintenance_cycle",
]


@dataclass(frozen=True)
class MaintenanceConfig:
    """Thresholds for the maintenance loop.

    Attributes:
        warn_ratio: degradation ratio at which an incremental subtree
            repack fires (matches the advisor's tree WARN grade).
        full_ratio: ratio at which the whole tree is rebuilt instead
            (matches the advisor's FAIL grade).
        min_size: trees with fewer entries are never touched — repacking
            a near-empty tree is noise, not maintenance.

    Every repack packs in :data:`~repro.rtree.packing.REBUILD_METHOD`,
    the order the assessment prices.
    """

    warn_ratio: float = 1.25
    full_ratio: float = 2.0
    min_size: int = 32


@dataclass(frozen=True)
class MaintenanceAction:
    """One tree's assessment (and what, if anything, was done about it)."""

    picture: str
    relation: str
    column: str
    ratio: float
    kind: str  # "none" | "local" | "full"
    entries_repacked: int = 0
    nodes_saved: int = 0

    def describe(self) -> str:
        tag = f"{self.picture}/{self.relation}.{self.column}"
        if self.kind == "none":
            return f"{tag} {self.ratio:.2f}x ok"
        return (f"{tag} {self.ratio:.2f}x -> {self.kind} repack "
                f"({self.entries_repacked} entries, "
                f"{self.nodes_saved} nodes saved)")


def assess(db: Any) -> Iterator[tuple[str, str, str, float]]:
    """Yield ``(picture, relation, column, degradation_ratio)`` per index.

    Trees whose signal cannot be computed (empty relations, degenerate
    universes) are reported at the 1.0 no-data floor rather than
    skipped, so ``MAINTAIN status`` always lists every association.
    """
    from repro.advisor.whatif import packed_degradation

    for picture in db.pictures():
        for relation_name, column in sorted(picture.associations()):
            try:
                ratio, _current, _packed = packed_degradation(
                    db, picture.name, relation_name, column)
            except (KeyError, ValueError, ZeroDivisionError):
                ratio = 1.0
            yield picture.name, relation_name, column, ratio


def pick_region(db: Any, picture_name: str, relation_name: str,
                column: str = "loc") -> Optional[Rect]:
    """The root partition worth repacking, or ``None`` for whole-tree.

    Scores every root entry by its total overlap area with sibling
    partitions and returns the worst one's MBR.  Returns ``None`` when
    the tree is a single leaf (nothing incremental to do) or when the
    top level shows no overlap at all (degradation then lives deeper;
    a whole-tree rebuild is the safe answer).
    """
    index = db.picture(picture_name).index(relation_name, column)
    with index.lock:  # the root alone, not a whole-tree walk
        is_leaf, entries = index.store.fetch(index.root)
    return worst_overlap_rect(
        [] if is_leaf else [Rect(*e[:4]) for e in entries])


def worst_overlap_rect(rects: list[Rect]) -> Optional[Rect]:
    """The rect most overlapped by its siblings, relative to its size.

    The score is ``overlap_area / own_area`` — normalising keeps large,
    healthy partitions (whose absolute overlap is big just because they
    are big) from outranking the small, heavily-overlapped children that
    hot-spot splits produce.  ``None`` when fewer than two rects or no
    overlap at all.
    """
    if len(rects) < 2:
        return None
    best_rect: Optional[Rect] = None
    best_score = 0.0
    for i, a in enumerate(rects):
        area = a.area()
        if area <= 0.0:
            continue
        total = 0.0
        for j, b in enumerate(rects):
            if i == j:
                continue
            w = min(a.x2, b.x2) - max(a.x1, b.x1)
            h = min(a.y2, b.y2) - max(a.y1, b.y1)
            if w > 0.0 and h > 0.0:
                total += w * h
        score = total / area
        if score > best_score:
            best_score = score
            best_rect = a
    return best_rect


def run_maintenance_cycle(db: Any,
                          config: MaintenanceConfig = MaintenanceConfig(),
                          ) -> list[MaintenanceAction]:
    """Assess every picture index and repair the degraded ones.

    Returns one :class:`MaintenanceAction` per association, in
    assessment order, so callers (scheduler, REPL, smoke test) can
    report what happened without re-deriving it.
    """
    from repro.advisor.whatif import packed_degradation

    actions: list[MaintenanceAction] = []

    def repair(picture_name: str, relation_name: str, column: str,
               ratio: float, kind: str) -> None:
        region = (pick_region(db, picture_name, relation_name, column)
                  if kind == "local" else None)
        if region is None:
            kind = "full"
        result = db.repack(picture_name, relation_name, column,
                           region=region)
        if obs.ENABLED:
            obs.active().bump(f"rtree.maintenance.repacks.{kind}")
        actions.append(MaintenanceAction(
            picture=picture_name, relation=relation_name, column=column,
            ratio=ratio, kind=kind,
            entries_repacked=result.entries_repacked,
            nodes_saved=result.nodes_saved))

    with obs.timer("rtree.maintenance.cycle"):
        for picture_name, relation_name, column, ratio in assess(db):
            index = db.picture(picture_name).index(relation_name, column)
            if len(index) < config.min_size or ratio < config.warn_ratio:
                actions.append(MaintenanceAction(
                    picture=picture_name, relation=relation_name,
                    column=column, ratio=ratio, kind="none"))
                continue
            if ratio >= config.full_ratio:
                repair(picture_name, relation_name, column, ratio, "full")
                continue
            repair(picture_name, relation_name, column, ratio, "local")
            # Escalation: when the incremental repack leaves the signal
            # past WARN, the degradation is tree-wide (e.g. underfull
            # leaves from scattered deletes) and only a rebuild fixes it.
            try:
                after, _, _ = packed_degradation(db, picture_name,
                                                 relation_name, column)
            except (KeyError, ValueError, ZeroDivisionError):
                continue
            if after >= config.warn_ratio:
                repair(picture_name, relation_name, column, after, "full")
    if obs.ENABLED:
        obs.active().bump("rtree.maintenance.cycles")
    return actions
