"""The staged statement pipeline: Parse → Bind → Plan → Execute.

Every statement a :class:`~repro.sql.session.Session` accepts flows
through :class:`StatementPipeline`.  Each stage produces an
inspectable artifact:

* **Parse** (:class:`ParseArtifact`) — the AST, the statement class
  (query / dml / ddl / tcl), the bind-variable names it references, and
  whether the statement is *plan-cacheable*;
* **Bind** (:class:`BindArtifact`) — normalized bind values and the
  bind-variable *signature* (the sorted name tuple that is part of the
  plan-cache key);
* **Plan** (:class:`PlanArtifact`) — the compiled
  :class:`~repro.sql.planner.QueryPlan` plus whether it came out of the
  shared :class:`~repro.sql.plan_cache.PlanCache`;
* **Execute** — a :class:`~repro.sql.cursor.Cursor` streaming rows from
  a per-execution :class:`~repro.sql.executor.Executor`.

The shared plan cache fronts the pipeline: a repeated statement text
with the same bind signature skips Parse and Plan entirely (like
Oracle8i's soft parse against the shared pool).  SELECT, INSERT, UPDATE
and DELETE are all cached — a SELECT as its ``QueryPlan``, DML as a
:class:`~repro.sql.dml.PreparedDML` — when the compiled form is
execution-independent:

* no IN/EXISTS subquery — the planner materializes subquery results at
  plan time, freezing data into the plan;
* every referenced table is a real catalog table — dictionary views
  synthesize a fresh TableDef per lookup.

A hit still runs every per-execution check: the entry keeps its parsed
statement for the callback ``check`` hook, the privilege check runs
against the executing user, and the bind check against the supplied
values.  Cached plans are shared read-only templates.  Each execution
gets its own :class:`~repro.sql.executor.Executor` carrying that call's
bind values (a SELECT's also a
:class:`~repro.core.scan_context.ScanTracker`, so closing the returned
cursor drives ``ODCIIndexClose`` for any still-open domain index scan).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.domain_index import IndexState
from repro.core.scan_context import ScanTracker
from repro.errors import CallbackError, ExecutionError
from repro.sql import ast_nodes as ast
from repro.sql.binds import (
    collect_bind_names, normalize_params, statement_has_subquery)
from repro.sql.cursor import Cursor
from repro.sql.dml import PreparedDML
from repro.sql.executor import Executor
from repro.sql.parser import parse
from repro.sql.plan_cache import (
    CachedPlan, PlanCache, normalize_sql, size_bucket)

_EXPLAIN_RE = re.compile(r"^\s*EXPLAIN(\s+PLAN\s+FOR)?\s", re.IGNORECASE)
#: cheap gate for the pre-parse cache probe — only queries and DML are
#: ever stored, so probing for DDL/TCL would just inflate miss counts
_CACHED_RE = re.compile(r"^\s*(SELECT|INSERT|UPDATE|DELETE)\b",
                        re.IGNORECASE)

_TCL_TYPES = (ast.Commit, ast.Rollback, ast.BeginTransaction, ast.Savepoint,
              ast.SetTransaction)
_DML_TYPES = (ast.Insert, ast.Update, ast.Delete)
#: statements the Plan stage compiles (and the cache may hold)
_PLANNED = (ast.Select,) + _DML_TYPES


def _statement_tables(statement: ast.Statement) -> Optional[List[str]]:
    """The tables a SELECT or DML statement names; None for any other."""
    if isinstance(statement, ast.Select):
        return [tref.name for tref in statement.tables]
    if isinstance(statement, _DML_TYPES):
        source = getattr(statement, "select", None)
        return [statement.table] + (
            [] if source is None else [t.name for t in source.tables])
    return None


@dataclass
class ParseArtifact:
    """Output of the Parse stage."""

    sql: str
    normalized_sql: str
    statement: ast.Statement
    #: 'query' | 'dml' | 'ddl' | 'tcl'
    kind: str
    #: sorted bind-variable names referenced by the statement
    bind_names: Tuple[str, ...]
    #: True when the compiled plan may enter the shared plan cache
    cacheable: bool


@dataclass
class BindArtifact:
    """Output of the Bind stage."""

    #: normalized name → value mapping (positional binds become '1', '2', ...)
    values: Dict[str, Any]
    #: sorted name tuple — the bind part of the plan-cache key
    signature: Tuple[str, ...]


@dataclass
class PlanArtifact:
    """Output of the Plan stage."""

    #: a QueryPlan for a SELECT, a PreparedDML for DML
    plan: Any
    #: True when the plan came out of the shared cache (soft parse)
    cache_hit: bool
    #: True when the plan was (or could have been) cached
    cacheable: bool


class StatementPipeline:
    """Drives statements through Parse → Bind → Plan → Execute."""

    def __init__(self, db: Any, cache: PlanCache):
        self.db = db
        #: the engine's shared plan cache: a statement compiled by one
        #: connection soft-parses on all
        self.cache = cache

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------

    def parse(self, sql: str) -> ParseArtifact:
        """Parse stage: AST + statement class + cacheability."""
        statement = parse(sql)
        return self.parse_artifact(sql, statement)

    def parse_artifact(self, sql: str,
                       statement: ast.Statement) -> ParseArtifact:
        """Build the Parse artifact for an already-parsed statement."""
        if isinstance(statement, (ast.Select, ast.Explain)):
            kind = "query"
        elif isinstance(statement, _DML_TYPES):
            kind = "dml"
        elif isinstance(statement, _TCL_TYPES):
            kind = "tcl"
        else:
            kind = "ddl"
        return ParseArtifact(
            sql=sql, normalized_sql=normalize_sql(sql), statement=statement,
            kind=kind, bind_names=tuple(collect_bind_names(statement)),
            cacheable=self._cacheable(statement))

    def bind(self, params: Optional[Any]) -> BindArtifact:
        """Bind stage: normalize values and derive the bind signature."""
        values = normalize_params(params)
        return BindArtifact(values=values, signature=tuple(sorted(values)))

    def plan(self, parsed: ParseArtifact, bound: BindArtifact,
             probed: bool = False) -> PlanArtifact:
        """Plan stage: cache probe, then compile — and store, when
        cacheable — on a miss.

        Valid for SELECT, INSERT, UPDATE and DELETE; DDL and TCL never
        reach this stage.  ``probed=True`` means the caller already
        probed the cache for this key and missed, so the lookup (and its
        stats accounting) is not repeated here.
        """
        cacheable = parsed.cacheable
        if cacheable and not probed:
            entry = self.cache.lookup(parsed.normalized_sql,
                                      bound.signature, self.db.catalog)
            if entry is not None:
                return PlanArtifact(plan=entry.plan, cache_hit=True,
                                    cacheable=True)
        plan = self._compile(parsed.statement, bound.values)
        if cacheable:
            self.cache.store(parsed.normalized_sql, bound.signature,
                             self._entry_for(parsed, plan))
        return PlanArtifact(plan=plan, cache_hit=False, cacheable=cacheable)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def execute(self, sql: str, params: Optional[Any] = None,
                check: Optional[Any] = None) -> Cursor:
        """Run one SQL text through the pipeline.

        ``check`` is a pre-execution hook ``check(statement, sql)`` used
        by restricted callback sessions.  It runs on every path, a
        plan-cache hit included — DML is cached too, and DML is what the
        callback phases restrict — and so do the privilege and bind
        checks.
        """
        if _EXPLAIN_RE.match(sql):
            lines = self.explain_lines(sql, params, check=check)
            return Cursor(columns=["plan"],
                          rows=iter([(line,) for line in lines]))
        bound = self.bind(params)
        compiled = self._compiled(sql, bound, check)
        if isinstance(compiled, ast.Statement):
            return self.execute_statement(compiled, sql)
        return self.execute_plan(compiled, bound.values)

    def executemany(self, sql: str, seq_of_params: Any) -> Cursor:
        """Run one SQL text once per parameter set.

        An ``INSERT ... VALUES`` is array DML: prepared once, like any
        DML, its rows from every set are validated and inserted under a
        *single* maintained statement, so index maintenance flushes once
        for the whole batch and a failing set fails them all.  Anything
        else (UPDATE, DELETE, INSERT ... SELECT) runs through
        :meth:`execute` per set — a plan-cache hit after the first, each
        set its own statement; ``rowcount`` is the exact total either
        way.
        """
        param_sets = list(seq_of_params)
        if not param_sets:
            return Cursor(rowcount=0)
        compiled = self._compiled(sql, self.bind(param_sets[0]))
        if isinstance(compiled, PreparedDML) and compiled.template is not None:
            # one bind dict at a time: none outlives its row
            return self.db.dml.run(compiled, map(normalize_params,
                                                 param_sets))
        total = 0
        for params in param_sets:
            cursor = self.execute(sql, params)
            if cursor.rowcount > 0:
                total += cursor.rowcount
        return Cursor(rowcount=total)

    def execute_statement(self, statement: ast.Statement,
                          sql: str = "") -> Cursor:
        """Execute an already-parsed statement (no plan caching).

        Entry point for callers that build ASTs directly: the statement
        carries no binds.
        """
        db = self.db
        if isinstance(statement, _PLANNED):
            return self.execute_plan(self._compile(statement, {}), {})
        if isinstance(statement, ast.Explain):
            plan = db.planner.plan_select(statement.query)
            return Cursor(columns=["plan"],
                          rows=iter([(line,) for line in plan.explain()]))
        if isinstance(statement, ast.Commit):
            db.commit()
            return Cursor(rowcount=0)
        if isinstance(statement, ast.Rollback):
            db.rollback(statement.savepoint)
            return Cursor(rowcount=0)
        if isinstance(statement, ast.BeginTransaction):
            db.begin()
            return Cursor(rowcount=0)
        if isinstance(statement, ast.Savepoint):
            db.savepoint(statement.name)
            return Cursor(rowcount=0)
        if isinstance(statement, ast.SetTransaction):
            db.set_transaction(read_only=statement.read_only,
                               isolation=statement.isolation)
            return Cursor(rowcount=0)
        handler = self._DDL_DISPATCH.get(type(statement))
        if handler is not None:
            return getattr(db.ddl, handler)(statement)
        raise ExecutionError(
            f"unsupported statement {type(statement).__name__}")

    _DDL_DISPATCH = {
        ast.CreateTable: "execute_create_table",
        ast.DropTable: "execute_drop_table",
        ast.TruncateTable: "execute_truncate",
        ast.CreateIndex: "execute_create_index",
        ast.AlterIndex: "execute_alter_index",
        ast.DropIndex: "execute_drop_index",
        ast.CreateOperator: "execute_create_operator",
        ast.DropOperator: "execute_drop_operator",
        ast.CreateIndextype: "execute_create_indextype",
        ast.DropIndextype: "execute_drop_indextype",
        ast.CreateType: "execute_create_type",
        ast.AssociateStatistics: "execute_associate",
        ast.GrantStatement: "execute_grant",
        ast.AnalyzeTable: "execute_analyze",
    }

    def explain_lines(self, sql: str, params: Optional[Any] = None,
                      check: Optional[Any] = None) -> List[str]:
        """EXPLAIN surface: plan tree plus a plan-cache status line.

        Takes a SELECT, INSERT, UPDATE or DELETE (DML shows the plan
        that selects its targets or its source rows).  Shares the
        statement's cache slot — explaining a statement warms the cache
        for its execution and vice versa.
        """
        statement = parse(sql)
        if check is not None:
            check(statement, sql)
        if isinstance(statement, ast.Explain):
            query: ast.Statement = statement.query
            inner_sql = _EXPLAIN_RE.sub("", sql, count=1)
        else:
            query = statement
            inner_sql = sql
        if not isinstance(query, _PLANNED):
            raise ExecutionError(
                "explain requires a SELECT, INSERT, UPDATE or DELETE")
        bound = self.bind(params)
        parsed = self.parse_artifact(inner_sql, query)
        if not parsed.cacheable:
            return self._compile(query, bound.values).explain() + \
                ["plan cache: BYPASS (not cacheable)"]
        entry = self.cache.lookup(parsed.normalized_sql, bound.signature,
                                  self.db.catalog)
        if entry is not None:
            return entry.plan.explain() + \
                [f"plan cache: HIT (executions={entry.hits})"]
        plan = self.plan(parsed, bound, probed=True).plan
        return plan.explain() + ["plan cache: MISS (stored)"]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _compiled(self, sql: str, bound: BindArtifact,
                  check: Optional[Any] = None) -> Any:
        """What ``sql`` runs as: the plan (a QueryPlan or PreparedDML)
        cached under its text and bind signature, else the one Parse and
        Plan make (and store, when cacheable) — or, for DDL and TCL, the
        parsed statement.  ``check`` and the bind check run either way."""
        probed = _CACHED_RE.match(sql) is not None
        if probed:
            entry = self.cache.lookup(normalize_sql(sql), bound.signature,
                                      self.db.catalog)
            if entry is not None:
                if check is not None:
                    check(entry.statement, sql)
                self._require_binds(entry.bind_names, bound)
                return entry.plan
        parsed = self.parse(sql)
        if check is not None:
            check(parsed.statement, sql)
        if not isinstance(parsed.statement, _PLANNED):
            return parsed.statement
        self._require_binds(parsed.bind_names, bound)
        return self.plan(parsed, bound, probed=probed).plan

    def _compile(self, statement: ast.Statement,
                 binds: Dict[str, Any]) -> Any:
        """Plan a SELECT, prepare DML; ``binds`` are peeked at, and an
        IN/EXISTS subquery (never cached) is materialized with them."""
        if isinstance(statement, ast.Select):
            return self.db.planner.plan_select(statement, peek_binds=binds)
        return self.db.dml.prepare(statement, binds)

    def _cacheable(self, statement: ast.Statement) -> bool:
        tables = _statement_tables(statement)
        if tables is None:
            return False
        if statement_has_subquery(statement):
            return False  # subquery results are frozen into the plan
        # a dictionary view (or a table that will fail downstream)
        return all(map(self.db.catalog.has_table, tables))

    def _entry_for(self, parsed: ParseArtifact, plan: Any) -> CachedPlan:
        catalog = self.db.catalog
        table_sig = tuple(
            (table.key, size_bucket(table.storage.row_count))
            for table in plan.referenced_tables()
            if not table.stats.analyzed)
        tables = frozenset(
            name.lower() for name in _statement_tables(parsed.statement))
        return CachedPlan(plan=plan, catalog_version=catalog.version,
                          table_sig=table_sig, bind_names=parsed.bind_names,
                          sql=parsed.sql, statement=parsed.statement,
                          tables=tables)

    @staticmethod
    def _require_binds(names: Tuple[str, ...], bound: BindArtifact) -> None:
        for name in names:
            if name not in bound.values:
                raise ExecutionError(f"no value supplied for bind :{name}")

    def execute_plan(self, plan: Any, values: Dict[str, Any]) -> Cursor:
        """Execute stage for a compiled (possibly shared) plan: DML runs
        on the DML engine, which checks the privilege its statement
        needs; a query needs SELECT on every table it reads."""
        db = self.db
        if isinstance(plan, PreparedDML):
            return db.dml.run(plan, [values])
        for table in plan.referenced_tables():
            db._check_table_privilege(table, "select")
        return self._run_plan(plan, values)

    def _run_plan(self, plan: Any, values: Dict[str, Any]) -> Cursor:
        """Shared Execute stage: snapshot reads, no table locks.

        SELECTs no longer acquire LockManager S locks — the statement
        snapshot (taken here, *before* any rows stream) gives each query
        a consistent view regardless of concurrent DML, and the cursor
        holds the snapshot until it closes so the low-water mark can't
        prune versions out from under an open result set.
        """
        db = self.db
        snapshot = db.statement_snapshot()
        tracker = ScanTracker()
        rows = self._rows_with_degrade(plan, values, tracker, snapshot)
        return Cursor(columns=plan.column_names, rows=rows, tracker=tracker,
                      snapshot=snapshot)

    def _rows_with_degrade(self, plan: Any, values: Dict[str, Any],
                           tracker: ScanTracker, snapshot: Any):
        """Row stream with the scan-phase degradation policy (§2.6).

        A domain-index scan callback that fails before the first row —
        under ``skip_unusable_indexes`` — marks the index UNUSABLE,
        replans (the degraded index is no longer a candidate, so the
        optimizer falls back to functional evaluation), and re-runs
        against the *same* snapshot and tracker: the retry reads the
        exact SCN the statement started at, and cursor close still
        drives ``ODCIIndexClose`` once per opened scan.  A failure after
        rows have streamed cannot retry (rows would repeat) and
        propagates.
        """
        db = self.db
        source = getattr(plan, "source", None)
        for attempt in (0, 1):
            rows = Executor(db, values, tracker, snapshot=snapshot).run(plan)
            emitted = False
            try:
                for row in rows:
                    emitted = True
                    yield row
                return
            except CallbackError as exc:
                if (attempt == 1 or emitted or exc.phase != "scan"
                        or not exc.index_name
                        or not db.skip_unusable_indexes
                        or not db.catalog.has_index(exc.index_name)
                        or source is None):
                    raise
                db.catalog.set_index_state(exc.index_name,
                                           IndexState.UNUSABLE)
                db._trace(f"select:degrade index {exc.index_name} -> "
                          f"UNUSABLE; retrying statement [{exc.routine}]")
                plan = db.planner.plan_select(source, peek_binds=values)
