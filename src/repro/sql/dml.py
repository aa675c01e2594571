"""DML execution and implicit index maintenance.

:class:`DMLEngine` owns the write side of the statement pipeline:
INSERT/UPDATE/DELETE execution — each statement is compiled once into a
:class:`PreparedDML` that the shared plan cache holds, then run with
each execution's binds as arguments — statement-level atomicity (each DML
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

Maintenance is *batched per statement*: each statement queues its
domain-index entries in a :class:`MaintenanceQueue` and flushes it once,
at its end, per index via ``ODCIIndex{Insert,Delete,Update}Batch`` (for
a cartridge that writes the scalar routines, the ``IndexMethods`` array
defaults loop them).  An index never lags its table past a statement
boundary, and a mid-batch fault fails the statement as a per-row fault
would — the savepoint has everything.
"""

from __future__ import annotations

import copy
from contextlib import suppress
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import add, itemgetter
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.callbacks import CallbackPhase
from repro.core.domain_index import DomainIndex, IndexState
from repro.errors import (
    CallbackError, ConstraintError, ExecutionError, IndexUnusableError,
    TransactionError, WALError)
from repro.sql import ast_nodes as ast
from repro.sql import planner as pl
from repro.sql.catalog import TableDef, index_key
from repro.sql.cursor import Cursor
from repro.sql.executor import Executor
from repro.sql.expressions import Binder, Evaluator, RowContext, Scope
from repro.storage.durability import clr_record
from repro.storage.heap import RowId
from repro.txn.locks import LockMode
from repro.types.values import NULL, is_null


def _structure_insert(structure, key, rowid) -> None:
    """Insert into a native index under its latch (snapshot scans probe
    these structures without locks)."""
    with structure.latch:
        structure.insert(key, rowid)


def _structure_delete(structure, key, rowid) -> None:
    """Delete from a native index under its latch."""
    with structure.latch:
        structure.delete(key, rowid)


def _structure_unload(structure, pairs) -> None:
    """Take a load's ``pairs`` out of a native index under its latch
    (None: the load found it empty, so empty it)."""
    with structure.latch:
        if pairs is None:
            structure.clear()
        for key, rowid in pairs or ():
            structure.delete(key, rowid)


def _undo_change(durability, txn, table_key, storage, op, rowid, rid,
                 old, new, version, prev_lsn) -> None:
    """Roll back one row change (or a heap's insert batch,
    ``op="bulk_insert"``, ``rid`` its mark): restore the slot as the
    change's CLR says, log that CLR when the engine is durable, then
    unlink the change's row version — after the slot, so no snapshot
    resolves past a chain to an unrestored slot.  ``prev_lsn`` is the
    transaction's last LSN before the change."""
    clr = clr_record(txn.txn_id, table_key, op, rid, old, new,
                     txn.last_lsn, prev_lsn)
    comp = clr["op"]
    if comp == "insert":
        storage.undelete(rowid, clr["new"])
    elif comp == "update":
        storage.update(rowid, clr["new"])
    else:
        storage.cut_to(rid)
    if durability is not None:
        # a dead log fails no rollback: restart undoes what it holds
        with suppress(WALError):
            durability.log_change(txn, storage, clr)
    if version is not None:
        storage.versions.pop(rowid, version)


def _undo_iot_batch(durability, txn, table_key, storage, rowids, rows,
                    chained, prev_lsn) -> None:
    """Roll back one IOT insert batch: its keys leave the tree and its
    fence, and the versions it chained over ghosts go
    (:meth:`~repro.storage.iot.IndexOrganizedTable.delete_bulk`); then
    its ``bulk_delete`` CLR of ``rows`` is logged when the engine is
    durable."""
    clr = clr_record(txn.txn_id, table_key, "bulk_insert", None, None,
                     rows, txn.last_lsn, prev_lsn)
    storage.delete_bulk(rowids, chained)
    if durability is not None:
        with suppress(WALError):
            durability.log_change(txn, storage, clr)


#: kind -> (array routine, scalar routine, array method)
_BATCH_SPECS = {
    "insert": ("ODCIIndexInsertBatch", "ODCIIndexInsert",
               "index_insert_batch"),
    "delete": ("ODCIIndexDeleteBatch", "ODCIIndexDelete",
               "index_delete_batch"),
    "update": ("ODCIIndexUpdateBatch", "ODCIIndexUpdate",
               "index_update_batch"),
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
            entries: List[tuple]) -> None:
        batch = self.batches.get(index.key)
        if batch is None:
            batch = self.batches[index.key] = _IndexBatch(index, domain)
        batch.ops.extend(zip(repeat(kind), entries))


@dataclass
class PreparedDML:
    """An INSERT, UPDATE or DELETE compiled once and run per bind set.

    What a DML statement's plan-cache entry holds (a SELECT's holds its
    :class:`~repro.sql.planner.QueryPlan`): the statement, which the
    callback ``check`` hook inspects on every hit; the target table and
    the catalog version it was compiled at; the column ``positions``
    the statement writes (an UPDATE's SET columns, an INSERT's column
    list); and its work — an UPDATE's or DELETE's ``plan`` selects the
    targets, ``SELECT rowid[, <SET expressions>] FROM <table> WHERE
    <where>``, with BindParam placeholders and a compiled residual; an
    INSERT ... SELECT's ``plan`` is its source; an INSERT ... VALUES has
    the bound VALUES rows as its ``template``.
    """

    statement: ast.Statement
    table: TableDef
    version: int
    positions: List[int]
    plan: Optional[pl.QueryPlan] = None
    template: Optional[List[List[ast.Expr]]] = None

    def referenced_tables(self) -> List[TableDef]:
        """The tables the plan reads (the cache's size signature)."""
        return [] if self.plan is None else self.plan.referenced_tables()

    def explain(self) -> List[str]:
        head = f"{type(self.statement).__name__.upper()} {self.table.name}"
        return [head] + ([] if self.plan is None
                         else self.plan.root.explain(1))


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
        select their target rows inside the body, under the lock, which
        is what makes read-modify-write statements from concurrent
        sessions serialize instead of losing updates.  On a maintenance
        :class:`CallbackError` the statement savepoint has already
        rolled back base table and index undo together; then, when
        ``skip_unusable_indexes`` is on, the failing index degrades to
        ``UNUSABLE`` and the body runs once more (re-planning its
        targets, since the catalog moved, against the restored data)
        with that index's maintenance skipped.  Any second failure — or
        any failure with the setting off — propagates.
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
            if domain.error is not None:
                # the carried error, as a fresh instance per statement
                raise copy.copy(domain.error)
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
        for kind, run in groupby(ops, key=itemgetter(0)):
            entries = [entry for __, entry in run]
            batch_routine, scalar_routine, batch_attr = _BATCH_SPECS[kind]
            if env.trace_enabled:
                # per-entry lines record the logical maintenance events
                # (the architecture-figure trace); the batch marker
                # records the physical dispatch
                for __ in entries:
                    env.trace(f"dml:{scalar_routine}({index.name})")
                env.trace(f"dml:{batch_routine}({index.name})"
                          f"[n={len(entries)}]")
            db.dispatcher.call_batch(
                batch_routine, scalar_routine, getattr(methods, batch_attr),
                ia, entries, env, index_name=index.name,
                phase="maintenance")

    # ------------------------------------------------------------------
    # row validation / physical insert
    # ------------------------------------------------------------------

    def validate_row(self, table: TableDef, row: Sequence[Any]
                     ) -> Tuple[Any, ...]:
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
        return tuple(out)

    def _table(self, table_name: str, privilege: str) -> TableDef:
        """``table_name``'s entry, once the session holds ``privilege``."""
        table = self.db.catalog.writable_table(table_name)
        self.db._check_table_privilege(table, privilege)
        return table

    def insert_row(self, table_name: str, values: Sequence[Any]) -> RowId:
        """Insert one row of Python values (bypasses the parser), for
        code holding non-literal values: rowids, objects, LOB locators."""
        return self._load(self._table(table_name, "insert"), [values], None,
                          True, False)[0]

    def insert_rows(self, table_name: str,
                    rows: Sequence[Sequence[Any]]) -> int:
        """Bulk :meth:`insert_row`; returns the number of rows inserted."""
        return len(self._load(self._table(table_name, "insert"), rows, None,
                              True, False))

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
        table = self._table(table_name, "delete")
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
                    self.change_physical(table, found[0], found[1], None, txn)
                    count += 1
            return count

        return self.run_maintained(table, body)

    def direct_load(self, table_name: str,
                    rows: Sequence[Sequence[Any]],
                    payloads: Optional[Sequence[Tuple[Any, ...]]] = None,
                    presorted: bool = False) -> int:
        """Direct-path load: insert ``rows`` as one unvalidated batch.

        Oracle's direct-path insert for index data tables: the caller (a
        cartridge's ``ODCIIndexCreate``/REBUILD routine) built the values
        from already-validated base-table values, so no per-row type
        coercion runs; only each row's arity is checked.  An IOT target
        may take its two columns instead — ``rows`` the key tuples,
        ``payloads`` the aligned payload tuples — so no row is built per
        entry."""
        table = self._table(table_name, "insert")
        if payloads is not None and not table.is_iot:
            raise ExecutionError(f"{table.name} is a heap table: only an "
                                 "IOT loads key and payload columns")
        return len(self._load(table, rows, payloads, False, presorted))

    def _load(self, table: TableDef, rows: Sequence[Sequence[Any]],
              payloads: Optional[Sequence[Tuple[Any, ...]]],
              validate: Optional[bool], presorted: bool) -> List[RowId]:
        """One statement inserting ``rows`` into a heap or an IOT, empty
        or not, as one :meth:`_insert_bulk` batch; returns the rowids."""
        return self.run_maintained(table, lambda txn: self._insert_bulk(
            table, rows, txn, validate, presorted, payloads) if rows else [])

    def _insert_bulk(self, table: TableDef, rows: Sequence[Sequence[Any]],
                     txn, validate: Optional[bool], presorted: bool,
                     payloads: Optional[Sequence[Tuple[Any, ...]]]
                     ) -> List[RowId]:
        """Insert ``rows`` as one batch under one fence per transaction,
        with one undo entry and one WAL record, batch-insert each native
        index with one undo entry, and queue the rows for the domain
        ones; returns the rowids.  An IOT takes key and payload columns:
        ``rows`` are the keys when ``payloads`` is given, else the rows
        are split here, once.  ``validate`` True validates each row,
        False checks only each column's arity, None trusts the rows."""
        storage = table.storage
        n_cols = len(table.columns)
        iot = table.is_iot
        if validate:
            rows = [self.validate_row(table, values) for values in rows]
        elif not isinstance(rows, list):
            rows = list(rows)  # no per-row copy: storage copies on write
        keys, shapes = rows, [(rows, n_cols)]
        if iot:
            kw = storage.key_width
            if payloads is None:
                keys = list(map(tuple, map(itemgetter(slice(kw)), rows)))
                payloads = list(map(tuple, map(itemgetter(slice(kw, None)),
                                               rows)))
            else:
                rows = None  # joined only for a log record or an index
            shapes = [(keys, kw), (payloads, n_cols - kw)]
        if validate is False and (len(shapes[-1][0]) != len(keys) or any(
                set(map(len, column)) - {width} for column, width in shapes)):
            raise ExecutionError(f"{table.name} direct load: every entry "
                                 f"must have {n_cols} values")
        versions = storage.versions
        mark = None if iot else storage.high_water_mark()
        # snapshots older than this txn's commit see no row it inserts
        fence = versions.set_fence(txn, mark)
        if fence is not None:
            txn.track_version(fence)
            txn.record_undo(versions.drop_fence, fence)
        if iot:
            rowids, chained = storage.insert_bulk(keys, payloads, txn,
                                                  presorted)
            for __, version in chained:
                txn.track_version(version)
            self.db.engine.mvcc.stats.versions_created += len(chained)
        else:
            rowids, chained = storage.insert_bulk(rows), ()
        # the fence commit stamps counts toward the prune pass for a row
        txn.loaded += len(keys) - len(chained) - (fence is not None)
        durability = self.db.engine.durability
        indexes = self.db.catalog.indexes_on(table.name)
        if rows is None and (durability is not None or indexes):
            rows = list(map(add, keys, payloads))
        if iot:
            txn.record_undo(_undo_iot_batch, durability, txn, table.key,
                            storage, rowids, rows, chained, txn.last_lsn)
        else:
            txn.record_undo(_undo_change, durability, txn, table.key,
                            storage, "bulk_insert", None, mark, None, None,
                            None, txn.last_lsn)
        if durability is not None:
            durability.log_bulk(txn, table.key, storage, rows,
                                None if iot else rowids, mark)
        for index in indexes:
            positions = [table.column_position(c)
                         for c in index.column_names]
            if index.is_domain:
                self._queue_domain(index, "insert", [
                    (rowid, [row[p] for p in positions])
                    for rowid, row in zip(rowids, rows)])
                continue
            structure = index.structure
            pairs = [pair for pair in zip(map(index_key, rows,
                                              repeat(positions)), rowids)
                     if pair[0] is not None]
            with structure.latch:
                empty = not structure.entry_count
                structure.insert_batch(pairs)
            txn.record_undo(_structure_unload, structure,
                            None if empty else pairs)
        return rowids

    # ------------------------------------------------------------------
    # implicit index maintenance (ODCIIndexInsert/Update/Delete fan-out)
    # ------------------------------------------------------------------

    def maintain(self, table: TableDef, rowid: RowId,
                 old_row: Sequence[Any], new_row: Optional[Sequence[Any]],
                 txn) -> None:
        """Carry one row UPDATE or DELETE (no ``new_row``) to every
        index on ``table``.

        A native index moves the rowid from the old key to the new one
        when they differ (NULL keys are not indexed), with undo.  A
        domain index whose indexed columns changed gets one entry on the
        statement's queue, dispatched by :meth:`_flush` when the
        statement ends.
        """
        db = self.db
        kind = "delete" if new_row is None else "update"
        for index in db.catalog.indexes_on(table.name):
            positions = [table.column_position(c)
                         for c in index.column_names]
            if index.is_domain:
                values = [[row[p] for p in positions]
                          for row in (old_row, new_row) if row is not None]
                if kind == "delete" or values[0] != values[1]:
                    self._queue_domain(index, kind, [(rowid, *values)])
                continue
            structure = index.structure
            old_key = index_key(old_row, positions)
            new_key = (None if new_row is None
                       else index_key(new_row, positions))
            if old_key == new_key:
                continue
            if old_key is not None:
                _structure_delete(structure, old_key, rowid)
                txn.record_undo(_structure_insert, structure, old_key, rowid)
            if new_key is not None:
                _structure_insert(structure, new_key, rowid)
                txn.record_undo(_structure_delete, structure, new_key, rowid)

    def _queue_domain(self, index: Any, kind: str,
                      entries: List[tuple]) -> None:
        """Queue ``entries`` for a domain index on the statement's queue,
        unless it has no domain yet or :meth:`_maintainable` skips it."""
        domain = index.domain
        if domain is not None and self._maintainable(index.name, domain):
            self._queue_stack[-1].add(index, domain, kind, entries)
            self.db.dispatcher.maintenance[index.name].entries_queued \
                += len(entries)

    # ------------------------------------------------------------------
    # statements: prepare once, run per bind set
    # ------------------------------------------------------------------

    def prepare(self, stmt: ast.Statement,
                binds: Dict[str, Any]) -> PreparedDML:
        """Compile an INSERT, UPDATE or DELETE for :meth:`run`.

        ``binds`` are the values of the execution that asked: the
        planner peeks at them for costing, and materializes an IN/EXISTS
        subquery with them (such a statement is never cached).
        """
        db = self.db
        table = db.catalog.writable_table(stmt.table)
        version = db.catalog.version
        if isinstance(stmt, ast.Insert):
            columns = [c.lower() for c in stmt.columns] if stmt.columns \
                else [c.name for c in table.columns]
            positions = [table.column_position(c) for c in columns]
            if stmt.select is not None:
                plan = db.planner.plan_select(stmt.select, peek_binds=binds)
                prepared = PreparedDML(stmt, table, version, positions, plan)
                widths = {len(plan.column_names)}
            else:
                binder = Binder(db.catalog, Scope([]))
                template = [[binder.bind(e) for e in row] for row in stmt.rows]
                prepared = PreparedDML(stmt, table, version, positions,
                                       template=template)
                widths = set(map(len, template))
            for width in widths - {len(positions)}:
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values, got {width}")
            return prepared
        binding = (stmt.alias or stmt.table).lower()
        items = [ast.SelectItem(ast.ColumnRef(path=[binding, "rowid"]))]
        positions = []
        if isinstance(stmt, ast.Update):
            positions = [table.column_position(col)
                         for col, __ in stmt.assignments]
            items += [ast.SelectItem(expr) for __, expr in stmt.assignments]
        select = ast.Select(items=items, where=stmt.where,
                            tables=[ast.TableRef(table.name, binding)])
        return PreparedDML(stmt, table, version, positions,
                           db.planner.plan_select(select, peek_binds=binds))

    def run(self, prepared: PreparedDML,
            bind_sets: Iterable[Dict[str, Any]]) -> Cursor:
        """Execute ``prepared`` as one maintained statement: one
        savepoint, one maintenance flush.

        An INSERT ... VALUES reads every bind set once (``executemany``'s
        array INSERT: the batch succeeds or fails as a whole); UPDATE,
        DELETE and INSERT ... SELECT take a list of one.  The binds are arguments
        only — a prepared statement is shared through the plan cache and
        never specialized to one execution's values.
        """
        db = self.db
        stmt = prepared.statement
        db._check_table_privilege(prepared.table, type(stmt).__name__.lower())
        if isinstance(stmt, ast.Insert):
            n_cols, positions = len(prepared.table.columns), prepared.positions
            if prepared.plan is not None:
                sources = db.pipeline.execute_plan(prepared.plan,
                                                   bind_sets[0])
            else:
                empty = RowContext()
                sources = ([evaluate(e, empty) for e in exprs]
                           for evaluate in (Evaluator(db.catalog, b).evaluate
                                            for b in bind_sets)
                           for exprs in prepared.template)
            # every row is read and validated into the tuple the heap
            # stores before the first insert; none stays tracked
            rows = []
            for values in sources:
                row: List[Any] = [NULL] * n_cols
                for pos, value in zip(positions, values):
                    row[pos] = value
                rows.append(self.validate_row(prepared.table, row))
            return Cursor(rowcount=len(self._load(
                prepared.table, rows, None, None, False)))
        binds = bind_sets[0]

        def body(txn) -> int:
            # targets are selected under the table X lock run_maintained
            # took, so SET expressions read current values and concurrent
            # read-modify-write UPDATEs serialize (no lost updates); a
            # catalog change since prepare — DDL, or the index a failed
            # first attempt degraded — replans; materialized fully before
            # mutating (Halloween-problem avoidance)
            target = prepared if prepared.version == db.catalog.version \
                else self.prepare(stmt, binds)
            table, storage = target.table, target.table.storage
            # an IOT row's rowid is its key: one whose key changes is
            # deleted and inserted under the new key, a one-row batch
            key_width = storage.key_width if table.is_iot else 0
            count = 0
            for rowid, *values in list(Executor(db, binds).run(target.plan)):
                # none once an earlier target of this statement deleted it
                __, rows = storage.fetch_batch([rowid])
                if not rows:
                    continue
                old_row = rows[0]
                count += 1
                if isinstance(stmt, ast.Delete):
                    self.change_physical(table, rowid, old_row, None, txn)
                    continue
                # rows are never changed in place: the fetched row is
                # the before-image, and the new row one fresh tuple
                new_row = list(old_row)
                for pos, value in zip(target.positions, values):
                    new_row[pos] = value
                new_row = self.validate_row(table, new_row)
                if new_row[:key_width] != tuple(old_row[:key_width]):
                    self.change_physical(table, rowid, old_row, None, txn)
                    self._insert_bulk(table, [new_row], txn, None, False,
                                      None)
                    continue
                self.change_physical(table, rowid, old_row, new_row, txn)
            return count

        return Cursor(rowcount=self.run_maintained(prepared.table, body))

    def change_physical(self, table: TableDef, rowid: RowId,
                        old_row: Sequence[Any],
                        new_row: Optional[Sequence[Any]], txn) -> None:
        """Update the row at ``rowid`` in place, or delete it (no
        ``new_row``); every insert is a batch (:meth:`_insert_bulk`).
        Chains the row version, mutates storage, records the change's
        one undo entry, logs the change on a durable engine and
        maintains the indexes.  ``old_row`` is the row as fetched and
        ``new_row`` one :meth:`validate_row` tuple: each is the stored
        row, its version, its log image and what maintenance reads,
        changed by nothing."""
        storage = table.storage
        op = "delete" if new_row is None else "update"
        # the uncommitted version is chained before the slot or tree
        # mutates: a racing reader resolves through the chain, never
        # through the raw slot
        version = storage.versions.push(rowid, new_row, old_row, txn)
        txn.track_version(version)
        self.db.engine.mvcc.stats.versions_created += 1
        if new_row is None:
            storage.delete(rowid)
        else:
            storage.update(rowid, new_row)
        durability = self.db.engine.durability
        # IOT rows are logged logically (a row carries its key, which is
        # its rowid); heap rows physiologically by (segment, page, slot)
        rid = None if table.is_iot else rowid
        txn.record_undo(_undo_change, durability, txn, table.key, storage,
                        op, rowid, rid, old_row, new_row, version,
                        txn.last_lsn)
        if durability is not None:
            # logged after the mutation: the WAL rule only needs the log
            # durable before a page image is, which the checkpoint
            # enforces, and a fuzzy checkpoint then never stamps a page
            # with an LSN whose change it does not contain
            durability.log_row(txn, table.key, storage, op, rid, old_row,
                               new_row)
        self.maintain(table, rowid, old_row, new_row, txn)
