"""DML execution and implicit index maintenance.

:class:`DMLEngine` owns the write side of the statement pipeline:
INSERT/UPDATE/DELETE execution, statement-level atomicity (each DML
statement runs under an implicit savepoint), and the paper's *implicit
domain-index maintenance* — every mutation of a table fans out to
``ODCIIndexInsert/Update/Delete`` on its domain indexes and to direct
structure maintenance on its native indexes, with undo records so
rollback restores base table and index state together (§2.4.1, §2.5).

Maintenance callbacks are dispatched through the
:class:`~repro.core.dispatch.CallbackDispatcher`, and a failed callback
triggers the degradation policy (§2.6 analogue): the statement's
savepoint rolls back base table *and* index undo together, then — under
the ``skip_unusable_indexes`` session setting (default on) — the failing
index is marked ``UNUSABLE`` (bumping the catalog version, which drops
cached plans pinned to it) and the statement is retried once, this time
skipping maintenance of the now-UNUSABLE index.  With the setting off
the statement simply fails, mirroring ORA-01502.

Maintenance is *batched per statement*: instead of one dispatcher
crossing per row per index, each statement accumulates its domain-index
entries in a :class:`MaintenanceQueue` and flushes once per index via
``ODCIIndex{Insert,Delete,Update}Batch`` (scalar-only cartridges are
served by the dispatcher's looping shim).  A mid-batch fault therefore
fails the statement exactly as a per-row fault did — the savepoint has
everything.  The queue flushes exactly once, at the end of the statement
that filled it, so an index never lags its table past a statement
boundary.  ``batch_index_maintenance = False`` restores the historical
per-row dispatch, which the differential tests use to prove both paths
build identical indexes.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.callbacks import CallbackPhase
from repro.core.domain_index import DomainIndex, IndexState
from repro.core.odci import IndexMethods
from repro.errors import (
    CallbackError, ConstraintError, ExecutionError, IndexUnusableError,
    TransactionError)
from repro.sql import ast_nodes as ast
from repro.sql import planner as pl
from repro.sql.binds import normalize_params
from repro.sql.catalog import TableDef
from repro.sql.cursor import Cursor
from repro.sql.expressions import Binder, RowContext, Scope
from repro.storage.heap import RowId
from repro.txn.locks import LockMode
from repro.types.values import NULL, is_null


def index_key(row: List[Any], positions: List[int]) -> Any:
    """The native-index key for ``row`` restricted to ``positions``.

    Returns None for rows with any NULL key column (NULL keys are not
    indexed, Oracle semantics); a bare value for single-column keys.
    """
    values = [row[p] for p in positions]
    if any(is_null(v) for v in values):
        return None
    return values[0] if len(values) == 1 else tuple(values)


def _structure_insert(structure, key, rowid) -> None:
    """Insert into a native index under its latch (snapshot scans probe
    these structures without locks)."""
    with structure.latch:
        structure.insert(key, rowid)


def _structure_delete(structure, key, rowid) -> None:
    """Delete from a native index under its latch."""
    with structure.latch:
        structure.delete(key, rowid)


#: kind -> (batch routine, scalar routine, batch method, scalar method)
_BATCH_SPECS = {
    "insert": ("ODCIIndexInsertBatch", "ODCIIndexInsert",
               "index_insert_batch", "index_insert"),
    "delete": ("ODCIIndexDeleteBatch", "ODCIIndexDelete",
               "index_delete_batch", "index_delete"),
    "update": ("ODCIIndexUpdateBatch", "ODCIIndexUpdate",
               "index_update_batch", "index_update"),
}


class _IndexBatch:
    """One index's slice of a maintenance queue (FIFO, kind-tagged)."""

    __slots__ = ("index", "domain", "ops")

    def __init__(self, index: Any, domain: DomainIndex):
        self.index = index
        self.domain = domain
        #: (kind, entry) in arrival order; ``entry`` is the tuple the
        #: array routine receives — (rowid, new_vals) for an insert,
        #: (rowid, old_vals) for a delete, (rowid, old_vals, new_vals)
        #: for an update
        self.ops: List[Tuple[str, tuple]] = []


class MaintenanceQueue:
    """Domain-index maintenance entries awaiting a batched flush.

    One queue per statement scope (nested callback DML gets its own
    level).  Entries keep arrival order per index; the flush dispatches
    each contiguous same-kind run as one batch, so cross-kind ordering
    on a rowid (insert before delete, etc.) is preserved.
    """

    def __init__(self) -> None:
        #: index key -> _IndexBatch, in first-touch order
        self.batches: dict = {}

    def add(self, index: Any, domain: DomainIndex, kind: str,
            entry: tuple) -> None:
        batch = self.batches.get(index.key)
        if batch is None:
            batch = self.batches[index.key] = _IndexBatch(index, domain)
        batch.ops.append((kind, entry))


class DMLEngine:
    """Executes DML statements and maintains every index implicitly."""

    def __init__(self, db: Any):
        self.db = db
        self._stmt_depth = 0
        #: statement-scoped maintenance queues (a stack: callback DML
        #: issued from inside a flush gets its own level)
        self._queue_stack: List[MaintenanceQueue] = []

    # ------------------------------------------------------------------
    # statement scope
    # ------------------------------------------------------------------

    def statement_transaction(self):
        """Open the statement scope: (txn, autocommit_flag).

        Every DML statement gets an implicit savepoint so a failure
        rolls back exactly that statement's changes (statement-level
        atomicity) while an enclosing explicit transaction survives.
        The depth counter keeps nested DML issued by maintenance
        callbacks from clobbering the outer statement's savepoint.
        """
        db = self.db
        if db.txns.in_transaction:
            txn, autocommit = db.txns.current, False
            if txn.read_only:
                raise TransactionError(
                    "cannot execute DML in a READ ONLY transaction")
        else:
            txn, autocommit = db.txns.begin(), True
        self._stmt_depth += 1
        txn.savepoint(f"__stmt_{self._stmt_depth}__")
        return txn, autocommit

    def finish(self, autocommit: bool, failed: bool = False) -> None:
        """Close the statement scope opened by :meth:`statement_transaction`."""
        db = self.db
        depth = self._stmt_depth
        self._stmt_depth -= 1
        if failed:
            txn = db.txns.current
            if txn is not None and txn.active:
                txn.rollback_to_savepoint(f"__stmt_{depth}__")
            if autocommit:
                db.rollback()
            return
        if autocommit:
            db.commit()

    def run_maintained(self, table: TableDef, body: Callable[[Any], Any]):
        """Run one DML statement body under the degradation policy.

        The table's X lock is taken *before* ``body(txn)`` runs, so the
        body may both select its targets and mutate them — UPDATE/DELETE
        plan their target rows inside the body, under the lock, which is
        what makes read-modify-write statements from concurrent sessions
        serialize instead of losing updates.  On a maintenance
        :class:`CallbackError` the statement savepoint has already
        rolled back base table and index undo together; then, when
        ``skip_unusable_indexes`` is on, the failing index degrades to
        ``UNUSABLE`` and the body runs once more (re-planning its
        targets against the restored data) with that index's maintenance
        skipped.  Any second failure — or any failure with the setting
        off — propagates.
        """
        db = self.db
        for attempt in (0, 1):
            txn, autocommit = self.statement_transaction()
            queue = MaintenanceQueue()
            self._queue_stack.append(queue)
            try:
                try:
                    db.locks.acquire(txn.txn_id, f"table:{table.key}",
                                     LockMode.EXCLUSIVE,
                                     timeout=db.lock_timeout)
                    result = body(txn)
                    self._flush(queue)
                finally:
                    self._queue_stack.pop()
            except CallbackError as exc:
                self.finish(autocommit, failed=True)
                if (attempt == 0 and exc.phase == "maintenance"
                        and exc.index_name and db.skip_unusable_indexes
                        and db.catalog.has_index(exc.index_name)):
                    db.catalog.set_index_state(exc.index_name,
                                               IndexState.UNUSABLE)
                    db._trace(
                        f"dml:degrade index {exc.index_name} -> UNUSABLE; "
                        f"retrying statement [{exc.routine}]")
                    continue
                raise
            except Exception:
                self.finish(autocommit, failed=True)
                raise
            self.finish(autocommit)
            return result

    def _maintainable(self, index_name: str, domain: DomainIndex) -> bool:
        """Whether a domain index participates in maintenance right now.

        Non-VALID indexes are skipped under ``skip_unusable_indexes``
        (with a trace line); with the setting off the statement fails
        immediately (ORA-01502 analogue).
        """
        if domain.valid:
            return True
        if not self.db.skip_unusable_indexes:
            raise IndexUnusableError(index_name, domain.state.value)
        self.db._trace(f"dml:skip({index_name}) state={domain.state.value}")
        return False

    # ------------------------------------------------------------------
    # maintenance queue (array ODCI dispatch)
    # ------------------------------------------------------------------

    def _flush(self, queue: MaintenanceQueue) -> None:
        """Dispatch every queued entry, one batch per index per kind-run.

        Runs once, at the end of the statement that filled ``queue``,
        inside that statement's savepoint.  Raises the first
        :class:`CallbackError` — the statement scope owns rollback and
        degradation.  Indexes that degraded (or were dropped) after
        their entries were queued are skipped: their entries are moot
        once the index is no longer VALID.
        """
        db = self.db
        for batch in queue.batches.values():
            domain = batch.domain
            if not domain.valid or not db.catalog.has_index(
                    batch.index.name):
                db._trace(f"dml:skip({batch.index.name}) "
                          f"state={domain.state.value}")
            else:
                self._flush_index(batch.index, domain, batch.ops)

    def _flush_index(self, index: Any, domain: DomainIndex,
                     ops: List[Tuple[str, tuple]]) -> None:
        db = self.db
        env = db.make_env(CallbackPhase.MAINTENANCE, domain)
        methods = domain.methods
        ia = domain.index_info()
        methods_type = type(methods)
        for kind, run in groupby(ops, key=itemgetter(0)):
            entries = [entry for __, entry in run]
            batch_routine, scalar_routine, batch_attr, scalar_attr = \
                _BATCH_SPECS[kind]
            native = (getattr(methods_type, batch_attr)
                      is not getattr(IndexMethods, batch_attr))
            if env.trace_enabled:
                # per-entry lines record the logical maintenance events
                # (the architecture-figure trace); the batch marker
                # records the physical dispatch
                for __ in entries:
                    env.trace(f"dml:{scalar_routine}({index.name})")
                env.trace(f"dml:{batch_routine}({index.name})"
                          f"[n={len(entries)}, "
                          f"{'native' if native else 'shim'}]")
            fn = getattr(methods, batch_attr if native else scalar_attr)
            db.dispatcher.call_batch(
                batch_routine, scalar_routine, fn, ia, entries, env,
                native=native, index_name=index.name, phase="maintenance")

    # ------------------------------------------------------------------
    # row validation / physical insert
    # ------------------------------------------------------------------

    def validate_row(self, table: TableDef, row: Sequence[Any]
                     ) -> List[Any]:
        """A full-width row coerced to the column types; every insert
        front-end reaches the arity and NOT NULL checks here."""
        if len(row) != len(table.columns):
            raise ExecutionError(
                f"{table.name} has {len(table.columns)} columns, "
                f"got {len(row)} values")
        out = []
        for col, value in zip(table.columns, row):
            validated = col.datatype.validate(value)
            if col.not_null and is_null(validated):
                raise ConstraintError(
                    f"column {table.name}.{col.name} is NOT NULL")
            out.append(validated)
        return out

    def insert_row(self, table_name: str, values: Sequence[Any]) -> RowId:
        """Insert one row of Python values (bypasses the parser).

        Used by application code that holds non-literal values (rowids,
        object instances, LOB locators) — e.g. the legacy text baseline
        writing rowids to its temporary result table.
        """
        db = self.db
        table = db.catalog.get_table(table_name)
        db._check_table_privilege(table, "insert")
        return self.run_maintained(
            table, lambda txn: self.insert_physical(table, values, txn))

    def insert_rows(self, table_name: str,
                    rows: Sequence[Sequence[Any]]) -> int:
        """Bulk :meth:`insert_row`; returns the number of rows inserted."""
        db = self.db
        table = db.catalog.get_table(table_name)
        db._check_table_privilege(table, "insert")

        def body(txn) -> int:
            bulk = self._bulk_load_plan(table, len(rows))
            if bulk is not None:
                return self._insert_bulk(table, rows, bulk, txn)
            for values in rows:
                self.insert_physical(table, values, txn)
            return len(rows)

        return self.run_maintained(table, body)

    def delete_rows(self, table_name: str,
                    keys: Sequence[Sequence[Any]]) -> int:
        """Delete the rows of an index-organized table stored under the
        full primary keys ``keys``; returns the number deleted.

        The mirror of :meth:`insert_rows` for callers that know which
        entries they wrote: each key costs one descent of the table's
        own B-tree, however large the table.  A key that is not there
        is skipped.  Each row found goes through the same per-row path
        as a ``DELETE`` statement's targets.
        """
        db = self.db
        table = db.catalog.get_table(table_name)
        db._check_table_privilege(table, "delete")
        if not table.is_iot:
            raise ExecutionError(
                f"delete_rows needs an index-organized table; "
                f"{table.name} is a heap table")
        width = table.storage.key_width

        def body(txn) -> int:
            count = 0
            locate = table.storage.locate
            for key in keys:
                if len(key) != width:
                    raise ExecutionError(
                        f"{table.name} has a {width}-column key, "
                        f"got {len(key)} values")
                found = locate(key)
                if found is not None:
                    self.delete_physical(table, found[0], found[1], txn)
                    count += 1
            return count

        return self.run_maintained(table, body)

    def direct_load(self, table_name: str,
                    rows: Sequence[Sequence[Any]],
                    presorted: bool = False) -> int:
        """Direct-path load: bulk-append ``rows`` without row validation.

        The analogue of Oracle's direct-path insert for index data
        tables: the caller (a cartridge's ``ODCIIndexCreate``/REBUILD
        routine) constructed the rows itself from already-validated
        base-table values, so the per-row type-coercion pass of the
        conventional path is skipped.  Only applies when the bulk-load
        plan does (empty storage, empty bulk-loadable native indexes);
        any other shape falls back to :meth:`insert_rows`, which
        validates normally.
        """
        db = self.db
        table = db.catalog.get_table(table_name)
        if self._bulk_load_plan(table, len(rows)) is None:
            return self.insert_rows(table_name, rows)
        db._check_table_privilege(table, "insert")

        def body(txn) -> int:
            bulk = self._bulk_load_plan(table, len(rows))
            if bulk is None:  # raced with another writer: conventional path
                for values in rows:
                    self.insert_physical(table, values, txn)
                return len(rows)
            return self._insert_bulk(table, rows, bulk, txn,
                                     validate=False, presorted=presorted)

        return self.run_maintained(table, body)

    def _bulk_load_plan(self, table: TableDef, n_rows: int):
        """The bulk-append plan for loading ``table``, or None.

        Bulk loading applies to empty storage whose indexes are all
        empty bulk-loadable native structures — the shape of a freshly
        created index data table (text IOT, spatial tiles, VIR coarse
        table) being populated by ``ODCIIndexCreate``/REBUILD.  Domain
        indexes, populated tables, and the ``bulk_index_build = False``
        seed path all take the per-row route.
        """
        db = self.db
        if n_rows < 2 or not db.bulk_index_build:
            return None
        storage = table.storage
        if not hasattr(storage, "insert_bulk") or storage.row_count != 0:
            return None
        versions = getattr(storage, "versions", None)
        if versions is not None and not versions.clean:
            # version chains from prior DML may still be visible to live
            # snapshots; the one-undo-per-structure load can't honor them
            return None
        native = []
        for index in db.catalog.indexes_on(table.name):
            structure = index.structure
            if (index.is_domain or structure is None
                    or not hasattr(structure, "bulk_load")
                    or structure.entry_count != 0):
                return None
            positions = [table.column_position(c)
                         for c in index.column_names]
            native.append((structure, positions))
        return native

    def _insert_bulk(self, table: TableDef, rows: Sequence[Sequence[Any]],
                     native: list, txn, validate: bool = True,
                     presorted: bool = False) -> int:
        """Bulk-append ``rows`` and bottom-up-build the native indexes.

        One undo record per structure instead of one per row; rollback
        restores the empty pre-load state (the plan above guarantees
        storage and indexes started empty).  ``validate=False`` is the
        direct-path contract: rows were built by a cartridge from
        already-validated values, so only the column arity is checked.
        """
        if validate:
            validated = [self.validate_row(table, values) for values in rows]
        else:
            # no per-row copy: both storages copy on write (heap pages
            # copy the row, the IOT splits it into fresh key/payload)
            validated = rows if isinstance(rows, list) else list(rows)
            n_cols = len(table.columns)
            if set(map(len, validated)) - {n_cols}:
                raise ExecutionError(
                    f"{table.name} direct load: rows must all have "
                    f"{n_cols} values")
        storage = table.storage
        versions = getattr(storage, "versions", None)
        if versions is not None:
            # one fence version covers the whole load: snapshots older
            # than this txn's commit see none of the bulk rows
            fence = versions.set_fence(txn)
            txn.track_version(fence)
            txn.record_undo(lambda: versions.drop_fence(fence))
        rowids = storage.insert_bulk(validated, with_rowids=bool(native),
                                     presorted=presorted)
        durability = self.db.engine.durability
        if durability is None:
            txn.record_undo(lambda s=storage: s.truncate())
        else:
            # one WAL record for the whole load; its undo (and CLR) is a
            # truncate, valid because the plan guaranteed empty storage
            prev = durability.log_bulk(
                txn, table.key, storage, validated,
                None if table.is_iot else rowids)
            txn.record_undo(durability.wrap_undo(
                lambda s=storage: s.truncate(), txn, table.key, storage,
                "truncate", None, None, None, prev))
        for structure, positions in native:
            pairs = []
            for rowid, row in zip(rowids, validated):
                key = index_key(row, positions)
                if key is not None:
                    pairs.append((key, rowid))
            with structure.latch:
                structure.bulk_load(pairs)
            txn.record_undo(lambda s=structure: s.clear())
        return len(validated)

    def _record_version(self, storage, rowid, new_value, old_value,
                        txn) -> None:
        """Chain an uncommitted row version (MVCC write path).

        Must run *before* the slot/tree mutates: a snapshot reader that
        races the write resolves through the chain, never through the
        raw slot.  The pop is recorded as undo so statement savepoints
        and rollback unlink exactly the versions they undo.
        """
        versions = getattr(storage, "versions", None)
        if versions is None:
            return
        version = versions.push(rowid, new_value, old_value, txn)
        txn.track_version(version)
        txn.record_undo(lambda: versions.pop(rowid, version))
        self.db.engine.mvcc.stats.versions_created += 1

    def _durable_undo(self, txn, table: TableDef, op: str, rowid,
                      old, new, action) -> None:
        """Register a row change's undo; with durability on, first log
        the change to the WAL and wrap the undo so running it writes a
        compensation record (CLR).

        Called *after* the storage mutation: the WAL rule only requires
        the log durable before a page image is, which the checkpoint
        enforces — and logging after the mutation means a fuzzy
        checkpoint can never stamp a page with an LSN whose change it
        does not contain.
        """
        durability = self.db.engine.durability
        if durability is None:
            txn.record_undo(action)
            return
        storage = table.storage
        # IOT rows are logged logically (surrogate rowids die with the
        # process); heap rows physiologically by (segment, page, slot)
        rid = None if table.is_iot else rowid
        prev = durability.log_row(txn, table.key, storage, op, rid,
                                  old, new)
        if op == "insert":
            comp_op, comp_old, comp_new = "delete", new, None
        elif op == "update":
            comp_op, comp_old, comp_new = "update", new, old
        else:
            comp_op, comp_old, comp_new = "insert", None, old
        txn.record_undo(durability.wrap_undo(
            action, txn, table.key, storage, comp_op, rid,
            comp_old, comp_new, prev))

    def insert_physical(self, table: TableDef, row: List[Any], txn) -> RowId:
        row = self.validate_row(table, row)
        storage = table.storage
        if getattr(storage, "versions", None) is not None:
            rowid = storage.insert(
                row, on_rowid=lambda rid: self._record_version(
                    storage, rid, list(row), None, txn))
        else:
            rowid = storage.insert(row)
        self._durable_undo(txn, table, "insert", rowid, None, list(row),
                           lambda: storage.delete(rowid))
        self.maintain(table, rowid, None, row, txn)
        return rowid

    # ------------------------------------------------------------------
    # implicit index maintenance (ODCIIndexInsert/Update/Delete fan-out)
    # ------------------------------------------------------------------

    def maintain(self, table: TableDef, rowid: RowId,
                 old_row: Optional[List[Any]], new_row: Optional[List[Any]],
                 txn) -> None:
        """Carry one row change to every index on ``table``.

        An insert has no ``old_row``, a delete no ``new_row``.  A native
        index moves the rowid from the old key to the new one when they
        differ (NULL keys are not indexed), with undo.  A domain index
        whose indexed columns changed gets one entry on the statement's
        queue, dispatched by :meth:`_flush` when the statement ends —
        or, with ``batch_index_maintenance`` off, one scalar
        ``ODCIIndexInsert/Update/Delete`` call right here (the
        differential suites' reference path: no queue, no
        ``IndexMaintenanceStats`` record).
        """
        db = self.db
        kind = ("insert" if old_row is None
                else "delete" if new_row is None else "update")
        for index in db.catalog.indexes_on(table.name):
            positions = [table.column_position(c)
                         for c in index.column_names]
            if index.is_domain and index.domain is not None:
                values = [[row[p] for p in positions]
                          for row in (old_row, new_row) if row is not None]
                if kind == "update" and values[0] == values[1]:
                    continue  # indexed columns unchanged
                domain = index.domain
                if not self._maintainable(index.name, domain):
                    continue
                if db.batch_index_maintenance:
                    self._queue_stack[-1].add(index, domain, kind,
                                              (rowid, *values))
                    db.dispatcher.maintenance_for(
                        index.name).entries_queued += 1
                    continue
                __, routine, __, method = _BATCH_SPECS[kind]
                env = db.make_env(CallbackPhase.MAINTENANCE, domain)
                if env.trace_enabled:
                    env.trace(f"dml:{routine}({index.name})")
                db.dispatcher.call(
                    routine, getattr(domain.methods, method),
                    domain.index_info(), rowid, *values, env,
                    index_name=index.name, phase="maintenance")
                continue
            structure = index.structure
            old_key = (None if old_row is None
                       else index_key(old_row, positions))
            new_key = (None if new_row is None
                       else index_key(new_row, positions))
            if old_key == new_key:
                continue
            if old_key is not None:
                _structure_delete(structure, old_key, rowid)
                txn.record_undo(
                    lambda s=structure, k=old_key, r=rowid:
                    _structure_insert(s, k, r))
            if new_key is not None:
                _structure_insert(structure, new_key, rowid)
                txn.record_undo(
                    lambda s=structure, k=new_key, r=rowid:
                    _structure_delete(s, k, r))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _insert_target(self, stmt: ast.Insert):
        """Resolve an INSERT's target: ``(table, build_row)``.

        ``build_row`` spreads one VALUES/SELECT row over the statement's
        column list (the table's own order when none is given), NULL
        elsewhere.
        """
        db = self.db
        table = db.catalog.get_table(stmt.table)
        db._check_table_privilege(table, "insert")
        column_order = [c.lower() for c in stmt.columns] \
            if stmt.columns else [c.name for c in table.columns]
        positions = [table.column_position(c) for c in column_order]
        n_cols = len(table.columns)

        def build_row(values: Sequence[Any]) -> List[Any]:
            if len(values) != len(positions):
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values, "
                    f"got {len(values)}")
            row: List[Any] = [NULL] * n_cols
            for pos, value in zip(positions, values):
                row[pos] = value
            return row

        return table, build_row

    def _insert_statement_rows(self, table: TableDef,
                               rows: List[List[Any]]) -> Cursor:
        """One maintained statement inserting ``rows``: one savepoint,
        one maintenance flush."""
        def body(txn) -> int:
            for row in rows:
                self.insert_physical(table, row, txn)
            return len(rows)

        return Cursor(rowcount=self.run_maintained(table, body))

    def execute_insert(self, stmt: ast.Insert) -> Cursor:
        db = self.db
        table, build_row = self._insert_target(stmt)
        if stmt.select is not None:
            rows = [build_row(out)
                    for out in db.pipeline.run_select(stmt.select)]
        else:
            empty = RowContext()
            binder = Binder(db.catalog, Scope([]))
            rows = [build_row([db.evaluator.evaluate(binder.bind(e), empty)
                               for e in value_row])
                    for value_row in stmt.rows]
        return self._insert_statement_rows(table, rows)

    def execute_insert_many(self, stmt: ast.Insert,
                            param_sets: List[Any]) -> Cursor:
        """Array INSERT: one parse, one statement scope, one flush.

        The ``executemany`` fast path for ``INSERT ... VALUES`` whose
        row expressions are plain binds/literals: the VALUES template is
        resolved once, each parameter set instantiates it, and the whole
        batch runs as a single maintained statement — so index
        maintenance flushes once per index for the entire batch, and the
        batch is atomic (a failing set rolls back every set, like Oracle
        array DML without SAVE EXCEPTIONS).
        """
        db = self.db
        table, build_row = self._insert_target(stmt)
        empty = RowContext()
        binder = Binder(db.catalog, Scope([]))
        # per-cell resolvers: a bind key, or a once-evaluated constant
        templates = [
            [(expr.name.lower(), None) if isinstance(expr, ast.BindParam)
             else (None, db.evaluator.evaluate(binder.bind(expr), empty))
             for expr in value_row]
            for value_row in stmt.rows]

        rows: List[List[Any]] = []
        for params in param_sets:
            values_map = normalize_params(params)
            for cells in templates:
                values = []
                for bind_key, const in cells:
                    if bind_key is None:
                        values.append(const)
                    elif bind_key in values_map:
                        values.append(values_map[bind_key])
                    else:
                        raise ExecutionError(
                            f"no value supplied for bind :{bind_key}")
                rows.append(build_row(values))
        return self._insert_statement_rows(table, rows)

    def plan_target_rows(self, table: TableDef, binding: str,
                         where: Optional[ast.Expr]
                         ) -> List[Tuple[RowId, RowContext]]:
        db = self.db
        select = ast.Select(
            items=[ast.SelectItem(ast.Star())],
            tables=[ast.TableRef(name=table.name, alias=binding)],
            where=where)
        plan = db.planner.plan_select(select, one_shot=True)
        node = plan.root
        while isinstance(node, (pl.ProjectNode, pl.DistinctNode,
                                pl.LimitNode, pl.SortNode)):
            node = node.child
        # materialize fully before mutating (Halloween-problem avoidance)
        return [(ctx.rowids[binding], ctx)
                for ctx in db.executor.iter_node(node)]

    def execute_update(self, stmt: ast.Update) -> Cursor:
        db = self.db
        table = db.catalog.get_table(stmt.table)
        db._check_table_privilege(table, "update")
        binding = (stmt.alias or stmt.table).lower()
        scope = Scope([(binding, table)])
        binder = Binder(db.catalog, scope)
        where = stmt.where
        if where is not None:
            where = binder.bind(db.planner.materialize_subqueries(where))
        assignments = [(table.column_position(col), binder.bind(expr))
                       for col, expr in stmt.assignments]

        def body(txn) -> int:
            # target selection runs under the table X lock taken by
            # run_maintained: SET expressions see current values, and
            # concurrent read-modify-write UPDATEs serialize (no lost
            # updates); materialized fully before mutating (Halloween)
            targets = self.plan_target_rows(table, binding, where)
            count = 0
            for rowid, ctx in targets:
                old_row = table.storage.fetch_or_none(rowid)
                if old_row is None:
                    continue
                new_row = list(old_row)
                for pos, expr in assignments:
                    new_row[pos] = db.evaluator.evaluate(expr, ctx)
                new_row = self.validate_row(table, new_row)
                storage = table.storage
                old_copy = list(old_row)
                self._record_version(storage, rowid, list(new_row),
                                     old_copy, txn)
                storage.update(rowid, new_row)
                self._durable_undo(
                    txn, table, "update", rowid, old_copy, list(new_row),
                    lambda s=storage, r=rowid, o=old_copy: s.update(r, o))
                self.maintain(table, rowid, old_copy, new_row, txn)
                count += 1
            return count

        return Cursor(rowcount=self.run_maintained(table, body))

    def execute_delete(self, stmt: ast.Delete) -> Cursor:
        db = self.db
        table = db.catalog.get_table(stmt.table)
        db._check_table_privilege(table, "delete")
        binding = (stmt.alias or stmt.table).lower()
        scope = Scope([(binding, table)])
        binder = Binder(db.catalog, scope)
        where = stmt.where
        if where is not None:
            where = binder.bind(db.planner.materialize_subqueries(where))

        def body(txn) -> int:
            # targets planned under the table X lock (see execute_update)
            targets = self.plan_target_rows(table, binding, where)
            count = 0
            for rowid, __ in targets:
                old_row = table.storage.fetch_or_none(rowid)
                if old_row is None:
                    continue
                self.delete_physical(table, rowid, old_row, txn)
                count += 1
            return count

        return Cursor(rowcount=self.run_maintained(table, body))

    def delete_physical(self, table: TableDef, rowid: RowId,
                        old_row: List[Any], txn) -> None:
        """Delete one located row: version, storage, WAL + undo, and
        index maintenance."""
        storage = table.storage
        old_copy = list(old_row)
        self._record_version(storage, rowid, None, old_copy, txn)
        storage.delete(rowid)
        self._durable_undo(
            txn, table, "delete", rowid, old_copy, None,
            lambda s=storage, r=rowid, o=old_copy: s.undelete(r, o))
        self.maintain(table, rowid, old_copy, None, txn)
