"""The background repack daemon: a scheduler around the maintenance loop.

The advisor (PR 7) left one loose end: a sustained packing-degradation
WARN produced a recommendation, but a human still had to issue REPACK.
:class:`MaintenanceScheduler` closes that loop inside the server — a
daemon thread periodically runs
:func:`repro.rtree.maintenance.run_maintenance_cycle` against the served
catalog, incrementally re-packing whichever subtrees the
coverage/overlap signal says have decayed (Section 3.4's update
problem).

The scheduler is deliberately dumb about concurrency: each repack goes
through ``Database.repack``, which runs it under the index's own lock
(every tree operation is atomic on its own tree, see
:mod:`repro.rtree.tree`) and bumps the catalog generation; the server's
post-cycle hook then drops stale result-cache entries.  Thread-executor
servers only — process workers hold their own catalog copies, which
background repacks here would never reach (the same restriction as
online ``REPACK``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro import obs
from repro.rtree.maintenance import (
    MaintenanceAction,
    MaintenanceConfig,
    run_maintenance_cycle,
)

__all__ = ["MaintenanceScheduler"]


class MaintenanceScheduler:
    """Periodic maintenance cycles on a daemon thread.

    Args:
        db: the catalog to maintain.
        config: thresholds forwarded to the maintenance loop.
        interval: seconds between cycle starts while enabled.
        enabled: start in the enabled state.
        on_cycle: called (on the scheduler thread) after every cycle
            with the action list — the server uses it to invalidate
            result caches when a repack bumped the generation.
    """

    def __init__(self, db: Any,
                 config: MaintenanceConfig = MaintenanceConfig(),
                 interval: float = 30.0, enabled: bool = False,
                 on_cycle: Optional[
                     Callable[[list[MaintenanceAction]], None]] = None):
        self.db = db
        self.config = config
        self.interval = max(0.05, float(interval))
        self.on_cycle = on_cycle
        self._enabled = threading.Event()
        if enabled:
            self._enabled.set()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self.cycles = 0
        self.repacks = 0
        self.last_actions: list[MaintenanceAction] = []
        self.last_cycle_at: Optional[float] = None
        self.last_error: Optional[str] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._run,
                                        name="psql-maintenance",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the thread; a cycle in flight finishes first."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    # -- control ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled.is_set()

    def enable(self) -> None:
        self._enabled.set()
        self._wake.set()  # don't wait a full interval for the first cycle

    def disable(self) -> None:
        self._enabled.clear()

    def run_now(self) -> list[MaintenanceAction]:
        """One synchronous cycle (for ``MAINTAIN run``, tests, the REPL)."""
        return self._cycle()

    # -- reporting ----------------------------------------------------------

    def status_lines(self) -> list[str]:
        """Human-readable status, one string per line."""
        with self._lock:
            lines = [
                f"maintenance: {'on' if self.enabled else 'off'} "
                f"(interval {self.interval:g}s, warn "
                f">={self.config.warn_ratio:g}x, full "
                f">={self.config.full_ratio:g}x)",
                f"cycles: {self.cycles}, repacks: {self.repacks}",
            ]
            if self.last_cycle_at is not None:
                age = time.monotonic() - self.last_cycle_at
                lines.append(f"last cycle: {age:.1f}s ago")
                lines.extend("  " + a.describe() for a in self.last_actions)
            if self.last_error is not None:
                lines.append(f"last error: {self.last_error}")
        return lines

    # -- internals ----------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self.interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            if not self._enabled.is_set():
                continue
            try:
                self._cycle()
            except Exception as exc:  # noqa: BLE001 - daemon must survive
                with self._lock:
                    self.last_error = f"{type(exc).__name__}: {exc}"
                if obs.ENABLED:
                    obs.active().bump("server.maintenance.errors")

    def _cycle(self) -> list[MaintenanceAction]:
        actions = run_maintenance_cycle(self.db, self.config)
        with self._lock:
            self.cycles += 1
            self.repacks += sum(1 for a in actions if a.kind != "none")
            self.last_actions = actions
            self.last_cycle_at = time.monotonic()
            self.last_error = None
        if self.on_cycle is not None:
            self.on_cycle(actions)
        return actions
