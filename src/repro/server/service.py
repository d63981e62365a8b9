"""Query execution service: a worker pool over one shared database.

The server's event loop never executes PSQL itself — searches are
CPU-bound pure Python, so they run on a pool and the loop only frames
bytes.  Two pool flavours:

- ``"thread"`` (default): workers share the parent's
  :class:`~repro.relational.catalog.Database` object.  Correct under
  concurrent *reads* (in-memory trees are read-only during search; disk
  trees serialise page access through the now-locked
  :class:`~repro.storage.buffer.BufferPool`), and mutations performed
  between queries are immediately visible.  Throughput is bounded by
  the GIL.
- ``"process"``: workers are separate interpreters, each building an
  identical database from a **factory spec** at startup.  True CPU
  scaling for a read-only/static serving shape (the paper's packed
  database); parent-side mutations are *not* propagated to workers.

Either way a worker returns a plain :class:`QueryOutcome` — the result
rendered in the one encoding its connection negotiated, plus an isolated
observability snapshot — which is cheap to ship across a process
boundary and trivial for the event loop to merge into server-wide
metrics.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor, ProcessPoolExecutor, \
    ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.psql.errors import PsqlError
from repro.psql.executor import Session
from repro.psql.result import QueryResult
from repro.relational.catalog import Database
from repro.server.cache import CachedResult
from repro.server.demo import DEFAULT_FACTORY_SPEC, resolve_factory
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
    """What one worker produced for one query (always picklable)."""

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


# -- process-pool worker side -------------------------------------------------

_worker_session: Optional[Session] = None


def _init_process_worker(factory_spec: str) -> None:
    """Build this worker's private database from the factory spec."""
    global _worker_session
    db = resolve_factory(factory_spec)()
    _worker_session = Session(db)
    # Workers meter their queries through scoped registries; the flag
    # must be on in the worker process for call sites to record.
    obs.enable()


def _run_in_process_worker(text: str, binary: bool) -> QueryOutcome:
    assert _worker_session is not None, "worker initializer did not run"
    return _outcome_from(lambda: _worker_session.execute(text), binary)


# -- the service --------------------------------------------------------------


class QueryService:
    """A worker pool executing PSQL text against one database.

    Args:
        db: the database to serve (thread mode).  When omitted, it is
            built by calling the resolved *factory_spec*.
        workers: pool size.
        executor: ``"thread"`` or ``"process"``.
        factory_spec: ``"module:callable"`` producing the database;
            required for process mode (workers rebuild it), optional for
            thread mode when *db* is given.
        session_factory: builds the per-connection
            :class:`~repro.psql.executor.Session` in thread mode —
            inject one to pre-register application pictorial functions.
        capture: attach a shared :class:`repro.advisor.QueryLog` to
            every session (thread mode only) so ``ADVISE`` has a
            workload to analyse.
    """

    def __init__(self, db: Optional[Database] = None, workers: int = 4,
                 executor: str = "thread",
                 factory_spec: str = DEFAULT_FACTORY_SPEC,
                 session_factory: Optional[
                     Callable[[Database], Session]] = None,
                 capture: bool = True):
        if workers < 1:
            raise ValueError("worker count must be positive")
        if executor not in ("thread", "process"):
            raise ValueError(f"unknown executor kind {executor!r}; "
                             f"choose 'thread' or 'process'")
        if executor == "process" and db is not None:
            raise ValueError(
                "process mode builds databases from factory_spec; "
                "passing a live db object would silently diverge from "
                "what the workers serve")
        self.workers = workers
        self.executor_kind = executor
        self.factory_spec = factory_spec
        self.session_factory = session_factory or Session
        self.db = db if db is not None else resolve_factory(factory_spec)()
        # Workload capture for the advisor (ADVISE verb).  Thread mode
        # only: process workers execute in separate interpreters, so a
        # parent-side log would never see their queries.
        self.query_log = None
        if capture and executor == "thread":
            from repro.advisor import QueryLog
            self.query_log = QueryLog()
        self._pool: Optional[Executor] = None
        self._closed = False
        # The obs flag is process-global: turn it on for the service's
        # lifetime instead of racing per-query toggles across threads.
        self._obs_was_enabled = obs.ENABLED
        obs.enable()

    # -- pool lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Create (and for process pools, warm up) the worker pool."""
        if self._pool is not None:
            return
        if self.executor_kind == "thread":
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="psql-worker")
        else:
            import multiprocessing

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_process_worker,
                initargs=(self.factory_spec,))
            # Force worker startup now (spawn + database build is slow);
            # serving-time latency should not pay for it.
            self._pool.submit(_noop).result()

    @property
    def generation(self) -> int:
        return self.db.generation

    def make_session(self) -> Session:
        """A fresh per-connection session (thread mode)."""
        session = self.session_factory(self.db)
        if self.query_log is not None:
            session.query_log = self.query_log
        return session

    def submit(self, text: str, binary: bool,
               execute: Callable[[], QueryResult]):
        """Submit one query; returns the ``concurrent.futures.Future``.

        The future resolves to a :class:`QueryOutcome` rendered for a
        *binary* or a text connection.  Thread mode runs *execute*, a
        call on the connection's session — for a prepared statement,
        :meth:`Session.execute_prepared`, whose bound AST is memoized
        per parameter set so repeats skip the parser and hit the plan
        cache.  Process workers hold private sessions that never saw a
        PREPARE, so they run *text* (the query, parameters substituted)
        as a plain query: same results, full parse.

        A ``cancel_event`` set before a thread worker picks the task up
        makes it return a cancelled outcome without executing — the
        timeout path uses this so an abandoned-but-unstarted query does
        not burn a worker slot.
        """
        if self._pool is None:
            self.start()
        assert self._pool is not None
        if self.executor_kind == "process":
            return self._pool.submit(_run_in_process_worker, text, binary)
        cancel_event = threading.Event()

        def run() -> QueryOutcome:
            if cancel_event.is_set():
                return QueryOutcome(cancelled=True)
            return _outcome_from(execute, binary)

        future = self._pool.submit(run)
        future.cancel_event = cancel_event  # type: ignore[attr-defined]
        return future

    def rebuild_index(self, picture: str, relation: str,
                      column: str = "loc") -> int:
        """Offline index rebuild (the ``REPACK`` verb); thread mode only.

        Runs :meth:`~repro.relational.catalog.Database.rebuild_index`
        against the shared database.  Process-pool workers each hold a
        *private* database built from the factory spec, so a parent-side
        rebuild would silently diverge from what they serve — refuse it.

        Raises:
            ValueError: in process-executor mode.
        """
        if self.executor_kind == "process":
            raise ValueError(
                "REPACK is not available with the process executor: "
                "workers serve private database copies that an offline "
                "rebuild in the parent would not update")
        return self.db.rebuild_index(picture, relation, column=column)

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


def _noop() -> None:
    """Pool warm-up task."""
