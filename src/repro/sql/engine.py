"""The shared database engine: everything sessions have in common.

:class:`Engine` owns the process-wide substrate — catalog, buffer
cache, plan cache, lock manager, LOB/file stores, event manager, and
the ODCI callback dispatcher — while per-connection state (transaction,
current user, tracing, settings) lives in
:class:`~repro.sql.session.Session` objects created by
:meth:`Engine.connect`.  This mirrors Oracle's split between the shared
instance (SGA: shared pool, buffer cache, enqueues) and per-session
state (UGA), which is what lets ODCIIndex maintenance and scans from
concurrent sessions hit the same domain indexes under the regular lock
manager (§2.5).

Thread-safety layers, coarsest to finest:

* **Transaction locks** (:class:`~repro.txn.locks.LockManager`) —
  logical S/X locks on ``table:<name>`` resources held until
  commit/rollback, now blocking with timeout + deadlock detection.
* **Latches** — short-duration mutexes guarding shared in-memory
  structures for the duration of one operation: the catalog, the plan
  cache, the buffer cache, the file store, and each cartridge's
  in-memory index state.  The documented latch *order* (deadlock
  avoidance — never take an earlier latch while holding a later one)::

      catalog → plan cache → lock-manager internals → buffer cache

  In practice latch scopes never nest across components, so the order
  is belt-and-braces; it matters only if a future change grows a latch
  scope.
* **Thread confinement** — a :class:`Session` (and its transaction) is
  used by one thread at a time; the engine binds the entering session
  to the current thread so shared components (the dispatcher's trace
  hook) can resolve per-session state without plumbing it through
  every call.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional

from repro.core.dispatch import CallbackDispatcher
from repro.sql.builtins import register_builtins
from repro.sql.catalog import Catalog, SQLFunction
from repro.sql.plan_cache import PlanCache
from repro.storage.buffer import BufferCache, IOStats
from repro.storage.filestore import FileStore
from repro.storage.iot import IndexOrganizedTable
from repro.storage.lob import LobManager
from repro.txn.events import EventManager
from repro.txn.locks import LockManager
from repro.txn.mvcc import MVCCManager

__all__ = ["Engine"]

#: engine-wide default for how long a session blocks on a lock conflict
DEFAULT_LOCK_TIMEOUT = 10.0


class _RemovedParallelStats:
    """Shim: see the comment in :meth:`Engine.__init__`."""

    def snapshot(self) -> dict:
        return {"morsels_dispatched": 0, "prefetch_batches": 0}


class Engine:
    """One in-process database instance shared by many sessions."""

    def __init__(self, buffer_capacity: int = 512,
                 fetch_batch_size: int = 32,
                 lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
                 data_dir: Optional[str] = None,
                 wal_fsync_delay: float = 0.0,
                 wal_checkpoint_interval: int = 256,
                 durability_event_hook: Any = None,
                 storage_fault_plan: Any = None,
                 parallel_execution: bool = True):
        self.stats = IOStats()
        self.buffer = BufferCache(self.stats, capacity=buffer_capacity)
        self.catalog = Catalog()
        self.locks = LockManager(default_timeout=lock_timeout)
        self.lobs = LobManager(self.buffer, lock_manager=self.locks)
        self.files = FileStore(self.stats)
        self.events = EventManager()
        self.plan_cache = PlanCache()
        #: SCN clock + snapshot registry; SELECT reads resolve against
        #: snapshots from here instead of taking LockManager S locks
        self.mvcc = MVCCManager()
        #: fault-isolation seam every ODCI callback routes through;
        #: shared so routine metrics/timeouts/fault plans are engine-wide
        self.dispatcher = CallbackDispatcher(self)
        #: default for Session.lock_timeout
        self.default_lock_timeout = lock_timeout
        #: default for Session.fetch_batch_size
        self.fetch_batch_size = fetch_batch_size
        # compatibility shims for benchmarks/e2e, which only a benchmark
        # change edits: ``parallel_execution`` is accepted and ignored
        # (oltp_wire passes it through Server(**engine_options)), and
        # ``parallel_stats.snapshot()`` reports the constant zeros of the
        # removed morsel and async-prefetch counters (enginestats.py reads
        # both keys).  Delete both with their readers (ROADMAP item 5).
        self.parallel_stats = _RemovedParallelStats()
        #: counters behind the user_executor_stats dictionary view
        from repro.sql.columnar import ExecutorStats
        self.executor_stats = ExecutorStats()
        self._id_latch = threading.Lock()
        self._next_txn_id = 1
        self._next_session_id = 1
        self._tls = threading.local()
        register_builtins(self.catalog)
        self.catalog.add_function(SQLFunction(
            name="varray", fn=lambda *args: tuple(args), cost=0.0001))
        from repro.sql.dictionary import dictionary_view
        self.catalog.view_provider = (
            lambda name: dictionary_view(self.catalog, name, engine=self))
        #: opt-in durability: with a data_dir the engine logs every DML
        #: to a WAL, checkpoints pages, and runs restart recovery here;
        #: without one it keeps the original all-in-memory behaviour
        self.durability = None
        self.recovery_stats = None
        #: set by repro.server.Server.start() when this engine is being
        #: served over the network; feeds the user_server_stats view
        self.server_stats = None
        self._closed = False
        if data_dir is not None:
            from repro.storage.durability import DurabilityManager
            self.durability = DurabilityManager(
                self, data_dir, fsync_delay=wal_fsync_delay,
                checkpoint_interval=wal_checkpoint_interval,
                event_hook=durability_event_hook,
                fault_plan=storage_fault_plan)
            self.buffer.durability = self.durability
            self.recovery_stats = self.durability.open()

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------

    def connect(self, user: str = "main") -> Any:
        """Open a new session against this engine."""
        from repro.sql.session import Session
        return Session(self, user=user)

    # ------------------------------------------------------------------
    # MVCC maintenance
    # ------------------------------------------------------------------

    def _version_stores(self):
        """What a prune pass visits: for each catalog table whose store
        maps anything, the heap's version store or the IOT itself (its
        ``prune`` prunes its store and drops the ghosts that settles).
        A table with nothing mapped has nothing to cut or forget."""
        with self.catalog.latch:
            tables = list(self.catalog.tables.values())
        stores = []
        for table in tables:
            storage = table.storage
            versions = getattr(storage, "versions", None)
            if versions is None:
                continue
            if isinstance(storage, IndexOrganizedTable):
                if storage.ghost_count or not versions.clean:
                    stores.append(storage)
            elif not versions.clean:
                stores.append(versions)
        return stores

    def prune_versions(self) -> int:
        """One low-water-mark prune pass; returns versions removed."""
        return self.mvcc.prune(self._version_stores())

    def allocate_txn_id(self) -> int:
        """Next globally-ordered transaction id (shared by all sessions)."""
        with self._id_latch:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            return txn_id

    def allocate_session_id(self) -> int:
        with self._id_latch:
            session_id = self._next_session_id
            self._next_session_id += 1
            return session_id

    def peek_next_txn_id(self) -> int:
        """Allocator position without allocating (checkpoint records)."""
        with self._id_latch:
            return self._next_txn_id

    def restore_txn_id(self, next_id: int) -> None:
        """Advance the txn-id allocator past recovered transactions."""
        with self._id_latch:
            self._next_txn_id = max(self._next_txn_id, next_id)

    # ------------------------------------------------------------------
    # durability lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: flush the WAL and take a final checkpoint.
        Reopening the same data_dir after close() reports a clean
        (zero-redo, zero-undo) recovery pass.

        Then the engine drops the references that lead back to it — the
        dispatcher's, the catalog's dictionary-view hook and the sessions
        bound to threads — so a closed engine and its data are freed as
        soon as the last outside reference goes, without waiting for a
        full collection.  Dictionary views and ODCI tracing end here.
        """
        if self._closed:
            return
        if self.durability is not None:
            self.durability.close()
        self._closed = True
        self.dispatcher.db = None
        self.catalog.view_provider = None
        self._tls = threading.local()

    # ------------------------------------------------------------------
    # thread ↔ session binding
    # ------------------------------------------------------------------

    def bind_session(self, session: Any) -> None:
        """Mark ``session`` as the one driving the current thread.

        Sessions bind themselves on every public entry point; shared
        components that need per-session state without an explicit
        session argument (the dispatcher's trace hook) resolve it here.
        """
        self._tls.session = session

    @property
    def trace_log(self) -> Optional[List[str]]:
        """The bound session's trace log — the dispatcher's trace sink."""
        session = getattr(self._tls, "session", None)
        return session.trace_log if session is not None else None
