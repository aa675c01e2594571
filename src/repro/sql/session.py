"""Sessions: per-connection state over a shared engine.

:class:`Session` fronts the staged statement pipeline
(:mod:`repro.sql.pipeline`) for one connection.  The session owns only
per-connection state — the open transaction, current user and
privileges, tracing, ODCI environments, and settings such as
``skip_unusable_indexes`` and ``lock_timeout``; everything shared
between connections (catalog, buffer cache, plan cache, lock manager,
dispatcher) lives in the :class:`~repro.sql.engine.Engine` and is
reached through delegating properties.  Statement processing is
delegated:

* **Parse → Bind → Plan → Execute** with the engine's shared plan cache
  lives in :class:`~repro.sql.pipeline.StatementPipeline`;
* **DML + implicit domain-index maintenance**
  (``ODCIIndexInsert/Update/Delete`` fan-out, §2.4.1) lives in
  :class:`~repro.sql.dml.DMLEngine`;
* **DDL** (including ``ODCIIndexCreate/Alter/Truncate/Drop`` and the
  ODCIStats wiring of §2.4.2) lives in
  :class:`~repro.sql.ddl.DDLEngine`.

Transactions: DML runs inside a transaction (autocommit when none is
open); index data written through server callbacks shares the same
undo, so rollback restores base table and in-database index state
together (§2.5).  Commit/rollback fire registered database events (§5).
Transaction ids come from the engine so they are globally ordered —
deadlock victim selection compares them across sessions.

A session comes from ``Engine(**options).connect()``, or as
``conn.session`` of a :mod:`repro.dbapi` connection.  A session (and
its transaction) is confined to one thread at a time; concurrency
comes from many sessions, not from sharing one.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import (
    Any, Callable, List, Optional, Sequence, Tuple, Type)

from repro.core.callbacks import CallbackPhase, CallbackSession
from repro.core.domain_index import DomainIndex
from repro.core.odci import IndexMethods, ODCIEnv
from repro.core.scan_context import Workspace
from repro.core.stats import StatsMethods
from repro.errors import ExecutionError, PrivilegeError, TransactionError
from repro.sql.catalog import SQLFunction, TableDef
from repro.sql.cursor import Cursor
from repro.sql.ddl import DDLEngine
from repro.sql.dml import DMLEngine
from repro.sql.engine import Engine
from repro.sql.pipeline import StatementPipeline
from repro.sql.plan_cache import PlanCache
from repro.sql.planner import Planner
from repro.storage.heap import RowId
from repro.txn.events import DatabaseEvent
from repro.txn.transaction import TransactionManager
from repro.types.datatypes import DataType
from repro.types.objects import ObjectType

__all__ = ["Cursor", "Session"]


class Session:
    """One connection: transaction state + settings over a shared engine."""

    def __init__(self, engine: Engine, user: str = "main"):
        self.engine = engine
        self.session_id = engine.allocate_session_id()
        #: per-session transaction manager drawing engine-global txn ids
        self.txns = TransactionManager(id_allocator=engine.allocate_txn_id)
        #: per-session scan workspace (ODCI handles, spill accounting)
        self.workspace = Workspace(engine.stats)
        self.fetch_batch_size = engine.fetch_batch_size
        #: current session user; "main" is the superuser/DBA
        self.session_user = user.lower()
        self.trace_log: Optional[List[str]] = None
        #: Oracle's SKIP_UNUSABLE_INDEXES session setting (default TRUE):
        #: DML skips maintenance of non-VALID domain indexes, and a
        #: maintenance failure degrades the index to UNUSABLE and retries
        #: the statement once, instead of failing it outright.
        self.skip_unusable_indexes = True
        #: seconds a lock request blocks before LockTimeoutError
        self.lock_timeout = engine.default_lock_timeout
        #: MVCC consistent reads (default): SELECTs resolve rows against
        #: a statement snapshot, taking *no* table locks.  Off (in
        #: process only: the wire handshake refuses it) reads current
        #: mode, uncommitted rows included — the reference path of the
        #: MVCC differential suite and the baseline of bench_mvcc
        self.snapshot_reads = True
        #: snapshot pinned by a callback scope (ODCIIndexStart/Fetch):
        #: callback SQL reads at the opening statement's SCN
        self._pinned_snapshot = None
        #: statement cursors this session handed out that are still
        #: alive; Session.close() closes them so domain-index scans
        #: abandoned mid-fetch get their ODCIIndexClose and give their
        #: workspace handles back (weak: a collected cursor drops out)
        self._open_cursors: "weakref.WeakSet" = weakref.WeakSet()
        self.planner = Planner(engine.catalog, db=self)
        self.pipeline = StatementPipeline(self, cache=engine.plan_cache)
        self.dml = DMLEngine(self)
        self.ddl = DDLEngine(self)
        engine.bind_session(self)

    def _bind(self) -> None:
        if self.pipeline is None:
            raise ExecutionError("session is closed")
        # thread ↔ session binding: lets shared components (dispatcher
        # tracing) resolve the driving session without plumbing it through
        self.engine.bind_session(self)

    # ------------------------------------------------------------------
    # shared substrate (delegates to the engine)
    # ------------------------------------------------------------------

    @property
    def stats(self):
        """Engine-wide I/O statistics."""
        return self.engine.stats

    @property
    def buffer(self):
        """The shared buffer cache."""
        return self.engine.buffer

    @property
    def catalog(self):
        """The shared catalog."""
        return self.engine.catalog

    @property
    def locks(self):
        """The shared lock manager."""
        return self.engine.locks

    @property
    def lobs(self):
        """The shared LOB manager."""
        return self.engine.lobs

    @property
    def files(self):
        """The shared external file store."""
        return self.engine.files

    @property
    def events(self):
        """The shared database-event manager."""
        return self.engine.events

    @property
    def dispatcher(self):
        """The shared ODCI callback dispatcher."""
        return self.engine.dispatcher

    @property
    def plan_cache(self) -> PlanCache:
        """The engine-wide plan cache fronting the statement pipeline."""
        return self.pipeline.cache

    # ------------------------------------------------------------------
    # registration API (stands in for PL/SQL bodies; see DESIGN.md §5)
    # ------------------------------------------------------------------

    def create_function(self, name: str, fn: Callable[..., Any],
                        cost: float = 1.0) -> None:
        """Register a SQL-visible function backed by a Python callable.

        ``cost`` is the optimizer's per-call estimate in page-I/O units;
        give expensive domain functions a high cost so the §2.4.2
        functional-vs-index choice is meaningful.
        """
        self.catalog.add_function(SQLFunction(name=name.lower(), fn=fn,
                                              cost=cost))

    def register_methods(self, name: str, cls: Type[IndexMethods]) -> None:
        """Register an ODCIIndex implementation type (CREATE TYPE body)."""
        self.catalog.register_method_type(name, cls)

    def register_stats_type(self, name: str, cls: Type[StatsMethods]) -> None:
        """Register an ODCIStats implementation type."""
        self.catalog.register_stats_type(name, cls)

    def create_object_type(self, name: str,
                           attributes: Sequence[Tuple[str, DataType]]
                           ) -> ObjectType:
        """Create an object type and its SQL constructor function."""
        object_type = ObjectType(name, list(attributes))
        self.catalog.add_object_type(object_type)
        self.catalog.add_function(SQLFunction(
            name=name.lower(), fn=object_type.new, cost=0.0001))
        return object_type

    # ------------------------------------------------------------------
    # users and privileges (§2.5)
    # ------------------------------------------------------------------

    def set_user(self, name: str) -> None:
        """Switch the session user (any name; "main" is the superuser)."""
        self.session_user = name.lower()

    @contextlib.contextmanager
    def as_user(self, name: str):
        """Context manager running a block as another user.

        This is the definer-rights mechanism: indextype routines execute
        "under the privileges of the owner of the index" by wrapping
        their callbacks in ``db.as_user(index_owner)``.
        """
        previous = self.session_user
        self.session_user = name.lower()
        try:
            yield self
        finally:
            self.session_user = previous

    def _check_table_privilege(self, table: TableDef, privilege: str) -> None:
        user = self.session_user
        if user == "main" or table.owner == user:
            return
        if self.catalog.has_grant(user, table.key, privilege):
            return
        raise PrivilegeError(
            f"user {user!r} lacks {privilege.upper()} on {table.name} "
            f"(owner {table.owner!r})")

    def _check_table_ownership(self, table: TableDef, action: str) -> None:
        user = self.session_user
        if user != "main" and table.owner != user:
            raise PrivilegeError(
                f"user {user!r} cannot {action} {table.name} "
                f"(owner {table.owner!r})")

    # ------------------------------------------------------------------
    # tracing (architecture figure F1)
    # ------------------------------------------------------------------

    def enable_tracing(self) -> None:
        """Start recording framework call events into ``trace_log``."""
        self.trace_log = []

    def disable_tracing(self) -> None:
        """Stop recording framework call events."""
        self.trace_log = None

    def _trace(self, message: str) -> None:
        if self.trace_log is not None:
            self.trace_log.append(message)

    # ------------------------------------------------------------------
    # ODCI environments
    # ------------------------------------------------------------------

    def make_env(self, phase: CallbackPhase,
                 domain: Optional[DomainIndex] = None,
                 snapshot=None) -> ODCIEnv:
        """Build the session-scoped ODCIEnv passed into cartridge routines.

        ``snapshot`` pins every SQL statement the callback runs to the
        opening statement's snapshot — the §2.5 consistency story:
        ``ODCIIndexStart/Fetch/Close`` reads the index data tables at
        the same SCN the executor reads the base table.
        """
        base_table = domain.table_name if domain is not None else None
        definer = domain.owner if domain is not None else self.session_user
        callback = CallbackSession(self, phase, base_table=base_table,
                                   definer=definer, snapshot=snapshot)
        return ODCIEnv(callback=callback, workspace=self.workspace,
                       stats=self.stats, trace=self.trace_log,
                       invoker=self.session_user, definer=definer,
                       lobs=self.lobs, files=self.files, events=self.events)

    def make_stats_env(self, domain: Optional[DomainIndex] = None) -> ODCIEnv:
        """Environment for optimizer statistics routines (query-only).

        When the routine concerns a specific domain index, its callbacks
        run with the index owner's privileges (definer rights) so cost
        estimation can read the cartridge's index tables regardless of
        who issued the query.

        Costing runs at plan time, before the statement has locked its
        own tables; its callback reads cannot invert the base-table →
        index-table lock order writers follow, because reads take no
        table locks at all.
        """
        return self.make_env(CallbackPhase.SCAN, domain)

    # ------------------------------------------------------------------
    # snapshots (consistent reads; see repro.txn.mvcc)
    # ------------------------------------------------------------------

    def statement_snapshot(self):
        """The snapshot this statement's reads should resolve against.

        Priority: a callback-pinned snapshot (domain-index fetch SQL
        reads at the opening statement's SCN), then the transaction
        snapshot (``SET TRANSACTION READ ONLY`` / SERIALIZABLE), then a
        fresh read-committed statement snapshot.  Returns None when
        ``snapshot_reads`` is off (bare current-mode reads).
        """
        if self._pinned_snapshot is not None:
            return self._pinned_snapshot
        if not self.snapshot_reads:
            return None
        txn = self.txns.current
        if txn is not None and txn.active and txn.snapshot is not None:
            return txn.snapshot
        txn_id = txn.txn_id if txn is not None and txn.active else None
        return self.engine.mvcc.take_snapshot(txn_id, kind="statement")

    @contextlib.contextmanager
    def _pin_snapshot(self, snapshot):
        """Scope in which all reads use ``snapshot`` (callback SQL)."""
        if snapshot is None:
            yield
            return
        prev = self._pinned_snapshot
        self._pinned_snapshot = snapshot
        try:
            yield
        finally:
            self._pinned_snapshot = prev

    def set_transaction(self, read_only: bool = False,
                        isolation: Optional[str] = None) -> None:
        """SET TRANSACTION: open a txn with a transaction-duration snapshot.

        ``READ ONLY`` and ``ISOLATION LEVEL SERIALIZABLE`` both pin one
        snapshot for the whole transaction (Oracle's transaction-level
        read consistency); READ ONLY additionally rejects DML.
        """
        self._bind()
        if self.txns.in_transaction and self.txns.current.undo_depth:
            raise TransactionError(
                "SET TRANSACTION must be the first statement of the "
                "transaction")
        txn = self.txns.ensure()
        txn.read_only = read_only
        level = (isolation or "").upper()
        if read_only or level == "SERIALIZABLE":
            txn.snapshot = self.engine.mvcc.take_snapshot(
                txn.txn_id, kind="transaction")
        else:
            txn.snapshot = None

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Open an explicit transaction."""
        self._bind()
        self.txns.begin()

    def commit(self) -> None:
        """Commit: discard undo, release locks, fire COMMIT events."""
        txn = self.txns.current
        if txn is None or not txn.active:
            return  # commit with no open transaction is a no-op
        # stamp this txn's row versions with the commit SCN, atomically
        # with respect to snapshot handout
        prune_due = self.engine.mvcc.commit_transaction(txn)
        # the durable ack point: the commit record is fsynced (group
        # commit batches it with concurrent sessions) before commit()
        # returns; read-only transactions skip the log entirely
        durability = self.engine.durability
        if durability is not None:
            durability.commit(txn)
        txn.commit()
        self.locks.release_all(txn.txn_id)
        self.events.fire(DatabaseEvent.COMMIT)
        if prune_due:
            self.engine.prune_versions()

    def rollback(self, savepoint: Optional[str] = None) -> None:
        """Roll back the open transaction (or to a savepoint)."""
        txn = self.txns.current
        if txn is None or not txn.active:
            if savepoint is not None:
                raise TransactionError("no transaction to roll back")
            return
        if savepoint is not None:
            txn.rollback_to_savepoint(savepoint)
            return
        txn.rollback()  # undo closures log CLRs as they compensate
        durability = self.engine.durability
        if durability is not None:
            durability.abort(txn)
        self.locks.release_all(txn.txn_id)
        self.events.fire(DatabaseEvent.ROLLBACK)

    def savepoint(self, name: str) -> None:
        """Create a savepoint in the open transaction."""
        self.txns.ensure().savepoint(name)

    @property
    def in_transaction(self) -> bool:
        """True while an explicit or statement transaction is open."""
        return self.txns.in_transaction

    def _autocommit_ddl(self) -> None:
        # Oracle semantics: DDL implicitly commits the open transaction.
        if self.txns.in_transaction:
            self.commit()

    # ------------------------------------------------------------------
    # statement execution (delegates to the pipeline)
    # ------------------------------------------------------------------

    def execute(self, sql: str, params: Optional[Any] = None) -> Cursor:
        """Parse and execute one SQL statement through the pipeline.

        ``params`` supplies bind-variable values: a sequence for
        positional binds (``:1``, ``:2``, ...) or a mapping for named
        binds (``:rid``).  A repeated cacheable text — SELECT or DML —
        reuses its compiled plan from the engine's shared plan cache.
        """
        self._bind()
        return self._track(self.pipeline.execute(sql, params))

    def executemany(self, sql: str,
                    seq_of_params: Sequence[Any]) -> Cursor:
        """Execute ``sql`` once per parameter set.

        The array-DML entry point behind ``dbapi.Cursor.executemany``:
        an ``INSERT ... VALUES`` is prepared once and its batch runs as a
        single maintained statement with one index-maintenance flush;
        other statements execute per set, each a plan-cache hit after
        the first.  The returned cursor's ``rowcount`` is the exact
        total across all sets.
        """
        self._bind()
        return self._track(self.pipeline.executemany(sql, seq_of_params))

    def _track(self, cursor: Cursor) -> Cursor:
        self._open_cursors.add(cursor)
        return cursor

    def close(self) -> None:
        """End the session: close tracked cursors (abandoned domain-index
        scans fire ``ODCIIndexClose`` and return their workspace handles
        *before* the rollback releases locks), then roll back.  Idempotent;
        the shared engine stays up.

        The statement layers, which point back at the session, go last:
        a closed session holds no reference cycle, so it — and an engine
        only it still names — is freed with its last outside reference.
        """
        for cursor in list(self._open_cursors):
            try:
                cursor.close()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        self._open_cursors.clear()
        self.rollback()
        self.planner = self.pipeline = self.dml = self.ddl = None

    def explain(self, sql: str, params: Optional[Any] = None) -> List[str]:
        """Return the EXPLAIN plan lines (plus a plan-cache status line)."""
        self._bind()
        return self.pipeline.explain_lines(sql, params)

    # ------------------------------------------------------------------
    # direct-value DML (delegates to the DML engine)
    # ------------------------------------------------------------------

    def insert_row(self, table_name: str, values: Sequence[Any]) -> RowId:
        """Insert one row of Python values (bypasses the parser).

        Used by application code that holds non-literal values (rowids,
        object instances, LOB locators) — e.g. the legacy text baseline
        writing rowids to its temporary result table.
        """
        self._bind()
        return self.dml.insert_row(table_name, values)

    def insert_rows(self, table_name: str,
                    rows: Sequence[Sequence[Any]]) -> int:
        """Bulk :meth:`insert_row`; returns the number of rows inserted."""
        self._bind()
        return self.dml.insert_rows(table_name, rows)

    def delete_rows(self, table_name: str,
                    keys: Sequence[Sequence[Any]]) -> int:
        """Delete an IOT's rows by full primary key (absent: skipped)."""
        self._bind()
        return self.dml.delete_rows(table_name, keys)

    def direct_load(self, table_name: str,
                    rows: Sequence[Sequence[Any]],
                    payloads: Optional[Sequence[Tuple[Any, ...]]] = None,
                    presorted: bool = False) -> int:
        """Direct-path load of cartridge-built rows (no row validation),
        one batch like any insert.  An index-organized table may be
        loaded as two aligned columns: ``rows`` its key tuples and
        ``payloads`` its payload tuples.  ``presorted`` additionally
        promises strictly increasing key order for key-organized
        storage (skips the sort when the table is empty).
        """
        self._bind()
        return self.dml.direct_load(table_name, rows, payloads, presorted)

