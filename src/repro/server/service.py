"""Query execution service: a thread pool over one shared database.

The server's event loop never executes PSQL itself — searches are
CPU-bound pure Python, so they run on a pool and the loop only frames
bytes.  Workers share the server's one
:class:`~repro.relational.catalog.Database`: in-memory trees and disk
trees each serialise their operations under the tree's own lock, so
concurrent reads are safe, and an insert, ``REPACK`` or maintenance
cycle is visible to the next query.  Throughput is bounded by the GIL.

A worker returns a plain :class:`QueryOutcome` — the result rendered in
the one encoding its connection negotiated, plus an isolated
observability snapshot — which the event loop merges into server-wide
metrics.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.psql.errors import PsqlError
from repro.psql.executor import Session
from repro.psql.result import QueryResult
from repro.relational.catalog import Database
from repro.server.cache import CachedResult
from repro.server.demo import demo_database
from repro.storage import HeapFileError, InjectedFault, PagerError, WalError

__all__ = ["QueryOutcome", "QueryService"]

#: Storage-stack failures a query can surface.  They are reported as a
#: framed ``ERR`` like any other failure — the connection survives and
#: the server counts them separately (``server.io_errors``) because an
#: I/O fault, unlike a bad query, is an operational signal.
STORAGE_ERRORS = (PagerError, WalError, HeapFileError, InjectedFault,
                  OSError)


@dataclass
class QueryOutcome:
    """What one worker produced for one query."""

    #: the result, rendered in the requesting connection's codec
    result: Optional[CachedResult] = None
    error_kind: str = ""               #: exception class name, "" on success
    error_message: str = ""
    counters: dict[str, float] = field(default_factory=dict)
    cancelled: bool = False            #: abandoned before execution began
    io_fault: bool = False             #: failure came from the storage stack

    @property
    def ok(self) -> bool:
        return not self.error_kind and not self.cancelled


def _outcome_from(execute: Callable[[], "QueryResult"],
                  binary: bool) -> QueryOutcome:
    """Run one query callable under an isolated obs scope; never raises.

    ``forward=False`` keeps the scoped registry off the global chain:
    worker threads record into thread-local scopes and the single
    event-loop thread merges the returned snapshots, so concurrent
    queries cannot interleave counters.  The result is rendered here,
    while the result object is still alive, in the requesting
    connection's encoding only (*binary*); the result cache derives the
    other if a connection of the other codec ever asks.
    """
    try:
        with obs.scope(forward=False) as registry:
            outcome = QueryOutcome(
                result=CachedResult.render(execute(), binary))
        outcome.counters = dict(registry.snapshot())
        return outcome
    except PsqlError as exc:
        return QueryOutcome(error_kind=type(exc).__name__,
                            error_message=str(exc))
    except STORAGE_ERRORS as exc:
        # Disk trouble (corrupt page, injected fault, failed syscall) is
        # a graceful ERR frame, never a dead connection or worker.
        return QueryOutcome(error_kind=type(exc).__name__,
                            error_message=str(exc), io_fault=True)
    except Exception as exc:  # noqa: BLE001 - one bad query must never
        # take down a worker or leak an unframed exception to the socket.
        return QueryOutcome(error_kind=type(exc).__name__,
                            error_message=str(exc))


# -- the service --------------------------------------------------------------


class QueryService:
    """A thread pool executing PSQL against one database.

    Args:
        db: the database to serve; :func:`~repro.server.demo.demo_database`
            when omitted.
        workers: pool size.
        session_factory: builds the per-connection
            :class:`~repro.psql.executor.Session` — inject one to
            pre-register application pictorial functions.
        capture: attach a shared :class:`repro.advisor.QueryLog` to
            every session so ``ADVISE`` has a workload to analyse.
    """

    def __init__(self, db: Optional[Database] = None, workers: int = 4,
                 session_factory: Optional[
                     Callable[[Database], Session]] = None,
                 capture: bool = True):
        if workers < 1:
            raise ValueError("worker count must be positive")
        self.workers = workers
        self.session_factory = session_factory or Session
        self.db = db if db is not None else demo_database()
        self.query_log = None
        if capture:
            from repro.advisor import QueryLog
            self.query_log = QueryLog()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        # The obs flag is process-global: turn it on for the service's
        # lifetime instead of racing per-query toggles across threads.
        self._obs_was_enabled = obs.ENABLED
        obs.enable()

    # -- pool lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Create the worker pool."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="psql-worker")

    @property
    def generation(self) -> int:
        return self.db.generation

    def make_session(self) -> Session:
        """A fresh per-connection session."""
        session = self.session_factory(self.db)
        if self.query_log is not None:
            session.query_log = self.query_log
        return session

    def submit(self, binary: bool, execute: Callable[[], QueryResult]):
        """Submit one query; returns the ``concurrent.futures.Future``.

        The future resolves to a :class:`QueryOutcome` rendered for a
        *binary* or a text connection.  *execute* is a call on the
        connection's session — for a prepared statement,
        :meth:`Session.execute_prepared`, whose bound AST is memoized
        per parameter set so repeats skip the parser and hit the plan
        cache.

        A ``cancel_event`` set before a worker picks the task up makes
        it return a cancelled outcome without executing — the timeout
        path uses this so an abandoned-but-unstarted query does not burn
        a worker slot.
        """
        self.start()
        cancel_event = threading.Event()

        def run() -> QueryOutcome:
            if cancel_event.is_set():
                return QueryOutcome(cancelled=True)
            return _outcome_from(execute, binary)

        future = self._pool.submit(run)
        future.cancel_event = cancel_event  # type: ignore[attr-defined]
        return future

    def close(self, wait: bool = True) -> None:
        """Shut the pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None
        if not self._obs_was_enabled:
            obs.disable()

    def __enter__(self) -> "QueryService":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
