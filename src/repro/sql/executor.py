"""The batch-pipelined executor.

Runs :class:`~repro.sql.planner.QueryPlan` trees over
:class:`~repro.sql.expressions.RowContext` values.  Everything still
streams: a LIMIT or a consumer that stops early never pulls the rest of
the pipeline — which is precisely the §3.2.1 "pipelined fashion ... all
rows that satisfy the text predicate do not have to be identified before
the first result row can be returned" behaviour the E1 benchmark
measures via time-to-first-row.  The unit of streaming, however, is a
*batch* of rows where the producer is naturally batched: full scans move
page-at-a-time (:meth:`~repro.storage.heap.HeapTable.scan_batches`), and
domain scans materialize each ODCIIndexFetch result — which the protocol
already returns in batches — into one row batch.

Row expressions come lowered on the plan: the planner runs
:func:`repro.sql.compile.compile_plan` once, at plan time, so the
generated row functions ride the shared plan cache across sessions.
The executor resolves each slot through :meth:`Executor._truth_fn` /
:meth:`Executor._value_fns`; the tree-walking
:class:`~repro.sql.expressions.Evaluator` is the one fallback, for any
expression the generator declined (per-expression, so one OperatorCall
in a filter does not deoptimize its neighbours), any execution whose
binds a factory declines, and any row or batch generated code raises
on.

The :meth:`Executor._domain_batches` method is the server side of
the ODCI scan protocol: it builds the ODCIPredInfo/ODCIQueryInfo
descriptors, invokes ``index_start``, re-enters ``index_fetch`` batch by
batch until the cartridge reports the null-terminator, fetches the
streamed rowids from the base table, and finally calls ``index_close``.

Every index-driven row source — B-tree/hash/bitmap scans, the inner
sides of the index joins, ODCI-returned rowids — fetches its rowids
through one :class:`_RowidSource`: a batch at a time, one buffer get
per distinct heap page, the residual filter as a vector kernel over the
fetched batch when the plan has one, row contexts for survivors only.

The whole ODCI scan — Start, every Fetch, Close and any callback SQL
the cartridge runs inside them — executes on the thread running the
statement (:meth:`Executor._odci_scan`).
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, \
    Tuple

from repro.core.callbacks import CallbackPhase
from repro.core.odci import ODCIPredInfo, ODCIQueryInfo
from repro.errors import ExecutionError, ODCIError
from repro.sql import ast_nodes as ast
from repro.sql import planner as pl
from repro.sql.catalog import TableDef
from repro.sql.columnar import ColumnBatch, ExecutorStats
from repro.sql.expressions import (
    AggregateCall, Evaluator, RowContext, aggregate_key)
from repro.types.values import NULL, is_null, sql_compare

#: cap on the per-executor constant-expression memo (safety valve for
#: the session's long-lived bindless executor)
_CONST_CACHE_LIMIT = 1024

#: native index scans: a probe yields rowids, the batched base-table
#: fetch (:class:`_RowidSource`) turns them into rows
_INDEX_SCANS = pl.NATIVE_INDEX_SCANS

#: single-table scans a LIMIT's row budget can be pushed into
_SCAN_NODES = (pl.FullScan,) + pl.ROWID_SCANS

#: nodes whose rows arrive in producer-shaped batches (iter_batches)
_BATCHED_NODES = _SCAN_NODES + (pl.FilterNode,)

#: marks a fetched row the cartridge supplied no ancillary value for
_NO_AUX = object()


def _chunked(items: Iterable[Any], size: int,
             grow_to: int = 0) -> Iterator[List[Any]]:
    """Regroup a stream (rows, rowids) into batches of at most ``size``;
    with ``grow_to``, each batch may be twice the last up to that many."""
    size = max(1, size)
    batch: List[Any] = []
    for item in items:
        batch.append(item)
        if len(batch) >= size:
            yield batch
            batch = []
            if size < grow_to:
                size = min(size * 2, grow_to)
    if batch:
        yield batch


def _group_key(values: Iterable[Any]) -> Tuple[Any, ...]:
    """What ``GROUP BY`` and ``DISTINCT`` identify a row by: values
    that compare equal share a key (``1`` and ``1.0``), every null is
    one key, and unhashable values go by their ``repr``.  Runs once per
    input row: pass a list or a tuple, not a generator."""
    key = tuple(["\x00NULL" if v is None or v is NULL else v
                 for v in values])
    try:
        hash(key)
    except TypeError:
        key = tuple([repr(k) for k in key])
    return key


def _flatten(batches: Iterable[List[RowContext]]) -> Iterator[RowContext]:
    for batch in batches:
        yield from batch


class Executor:
    """Runs query plans against the database's storage and framework.

    One instance is created per statement execution: ``binds`` carries
    that execution's bind-variable values (cached plans keep BindParam
    nodes in the tree — and generated factories take the bind set as an
    argument — so the shared plan is never specialized to one
    execution's values), and ``tracker`` (a
    :class:`~repro.core.scan_context.ScanTracker`) collects closers for
    any domain-index scans opened, so an abandoned cursor can release
    them deterministically.
    """

    def __init__(self, db: Any, binds: Optional[Dict[str, Any]] = None,
                 tracker: Optional[Any] = None,
                 snapshot: Optional[Any] = None):
        self.db = db
        self.binds = binds or {}
        self.evaluator = Evaluator(db.catalog, binds)
        self.tracker = tracker
        #: MVCC snapshot all reads resolve against (None → current mode:
        #: DML target selection and the snapshot_reads=False seed path)
        self.snapshot = snapshot
        engine = getattr(db, "engine", None)
        self.xstats: ExecutorStats = (
            engine.executor_stats
            if engine is not None
            and getattr(engine, "executor_stats", None) is not None
            else ExecutorStats())
        self.batch_size = getattr(db, "fetch_batch_size", 32)
        #: LIMIT-derived row budget for the statement's single scan
        #: (None = unbounded); lets batched producers stop issuing
        #: work — ODCIIndexFetch calls, rowid chunks — once met
        self._scan_budget: Optional[int] = None
        #: id(expr) -> (expr, value); the expr reference keeps the id
        #: from being recycled while the entry lives
        self._const_cache: Dict[int, Tuple[ast.Expr, Any]] = {}

    # -- public entry points -----------------------------------------------

    def run(self, plan: pl.QueryPlan) -> Iterator[Tuple[Any, ...]]:
        """Yield output tuples for the plan (streaming)."""
        root = plan.root
        if isinstance(root, pl.LimitNode):
            self._scan_budget = self._limit_budget(root)
            yield from self._apply_limit(root)
            return
        self._scan_budget = None
        yield from self._project_rows(root)

    def _limit_budget(self, node: pl.LimitNode) -> Optional[int]:
        """Row budget a LIMIT imposes on the scan feeding it, or None.

        Only valid when every scanned row that passes the scan's own
        filter becomes exactly one output row — a plain projection over
        a single scan.  Sorts, grouping, DISTINCT, joins, and detached
        FILTER nodes all consume more input rows than they emit, so any
        of those between the LIMIT and the scan voids the budget.
        """
        if node.limit is None:
            return None
        child = node.child
        if isinstance(child, pl.ProjectNode) \
                and isinstance(child.child, _SCAN_NODES):
            return node.limit + (node.offset or 0)
        return None

    def _apply_limit(self, node: pl.LimitNode) -> Iterator[Tuple[Any, ...]]:
        # Yield-then-check: testing the limit only *after* emitting row N
        # means the producer is never pulled for row N+1 — for a batched
        # domain scan whose batch boundary lands exactly on the LIMIT,
        # the old check-then-yield order issued one extra ODCIIndexFetch
        # just to discover it wasn't needed.
        limit = node.limit
        if limit is not None and limit <= 0:
            return
        produced = 0
        skipped = 0
        for row in self._project_rows(node.child):
            if node.offset and skipped < node.offset:
                skipped += 1
                continue
            yield row
            produced += 1
            if limit is not None and produced >= limit:
                return

    def _project_rows(self, node: pl.PlanNode) -> Iterator[Tuple[Any, ...]]:
        if isinstance(node, pl.DistinctNode):
            seen = set()
            for row in self._project_rows(node.child):
                key = _group_key(row)
                if key in seen:
                    continue
                seen.add(key)
                yield row
            return
        if not isinstance(node, pl.ProjectNode):
            raise ExecutionError(f"expected projection at plan top, got "
                                 f"{node.label()}")
        fused = self._vector_project_scan(node, node.child)
        if fused is not None:
            yield from fused
            return
        fns = self._value_fns(node, "items", [e for e, _ in node.items])
        for batch in self.iter_batches(node.child):
            for ctx in batch:
                yield tuple(fn(ctx) for fn in fns)

    # -- generated code, else the interpreter ------------------------------

    @property
    def _interpret_only(self) -> bool:
        """Ignore every generated artifact on the plan.  Not an option:
        only :func:`repro.testing.interpreter_forced` sets it, for the
        differential suites and the executor micro-benchmark."""
        return getattr(self.db, "_interpret_only", False)

    def _row_fn(self, factory: Optional[Callable], expr: ast.Expr,
                truth: bool = False) -> Callable[[RowContext], Any]:
        """Per-row callable for ``expr`` — its value, or with ``truth``
        whether it is TRUE: the generated row function for this
        execution's binds (which answers with the interpreter for a row
        it raises on), or the interpreter itself when there is none or
        the factory declines the binds."""
        evaluator = self.evaluator
        if truth:
            def interpret(ctx: RowContext) -> bool:
                return evaluator.truth(expr, ctx) is True
        else:
            def interpret(ctx: RowContext) -> Any:
                return evaluator.evaluate(expr, ctx)
        if factory is not None and not self._interpret_only:
            fn = factory(self.binds, interpret)
            if fn is not None:
                return fn
        return interpret

    def _truth_fn(self, node: pl.PlanNode, slot: str,
                  predicate: Optional[ast.Expr]
                  ) -> Optional[Callable[[RowContext], bool]]:
        """Per-row predicate callable (is the predicate TRUE), or None."""
        if predicate is None:
            return None
        return self._row_fn(node.compiled.get(slot), predicate, truth=True)

    def _value_fns(self, node: pl.PlanNode, slot: str,
                   exprs: List[ast.Expr]
                   ) -> List[Callable[[RowContext], Any]]:
        """Per-row value callables for a list slot (per index: one
        declined expression does not send its neighbours to the
        interpreter)."""
        factories = node.compiled.get(slot) or [None] * len(exprs)
        return [self._row_fn(factory, expr)
                for factory, expr in zip(factories, exprs)]

    # -- node dispatch ----------------------------------------------------------

    def iter_node(self, node: pl.PlanNode) -> Iterator[RowContext]:
        """Yield row contexts for any relational plan node."""
        if isinstance(node, _BATCHED_NODES):
            return _flatten(self.iter_batches(node))
        if isinstance(node, pl.IOTPrefixScan):
            return self._iter_iot_prefix_scan(node)
        if isinstance(node, pl.NestedLoopJoin):
            return self._iter_nl_join(node)
        if isinstance(node, pl.IndexedNLJoin):
            return self._iter_indexed_nl_join(node)
        if isinstance(node, pl.DomainNLJoin):
            return self._iter_domain_nl_join(node)
        if isinstance(node, pl.HashJoin):
            return self._iter_hash_join(node)
        if isinstance(node, pl.SortNode):
            return self._iter_sort(node)
        if isinstance(node, pl.GroupByNode):
            return self._iter_group_by(node)
        raise ExecutionError(f"cannot execute plan node {node.label()}")

    def iter_batches(self, node: pl.PlanNode
                     ) -> Iterator[List[RowContext]]:
        """Yield row contexts in batches.

        Scans whose producers are naturally batched (heap pages, ODCI
        fetch results, rowid chunks of an index probe) keep their batch
        shape through the pipeline;
        other nodes are regrouped into ``fetch_batch_size`` chunks so
        batch consumers (filter, project) always run their tight loop.
        """
        if isinstance(node, pl.FullScan):
            return self._batches_full_scan(node)
        if isinstance(node, pl.DomainScan):
            return self._batches_domain_scan(node)
        if isinstance(node, _INDEX_SCANS):
            return self._batches_index_scan(node)
        if isinstance(node, pl.FilterNode):
            return self._batches_filter(node)
        return _chunked(self.iter_node(node), self.batch_size)

    # -- scans ---------------------------------------------------------------

    def _ctx_factory(self, table: TableDef, binding: str
                     ) -> Callable[[Any, List[Any]], RowContext]:
        """A (rowid, row) -> RowContext constructor with the column keys
        precomputed once per scan instead of once per row."""
        cols = [(binding, col.name.lower()) for col in table.columns]
        rowid_key = (binding, "rowid")

        def make(rowid: Any, row: List[Any]) -> RowContext:
            values = dict(zip(cols, row))
            values[rowid_key] = rowid
            ctx = RowContext(values=values)
            ctx.rowids[binding] = rowid
            return ctx
        return make

    def _batches_full_scan(self, node: pl.FullScan
                           ) -> Iterator[List[RowContext]]:
        # Row consumer over a vector-eligible filtered scan (joins, DML
        # subselects): run the vector filter over columns, then cross
        # the materialization boundary for survivors only — the kernel
        # win pays for the transpose when the filter is selective.
        if node.filter is not None:
            cbatches = self._vector_scan(node)
            if cbatches is not None:
                make = self._ctx_factory(node.table, node.binding_name)
                self.xstats.record_materialize_boundary()
                for cbatch in cbatches:
                    batch = [make(rowid, row)
                             for rowid, row in cbatch.iter_rows()]
                    if batch:
                        yield batch
                return
        make = self._ctx_factory(node.table, node.binding_name)
        passes = self._truth_fn(node, "filter", node.filter)
        storage = node.table.storage
        # storage capabilities were probed once at plan time
        # (node.has_scan_batches / node.versioned), not per statement
        snapshot = self.snapshot if node.versioned else None
        if node.has_scan_batches:
            pages = storage.scan_batches(snapshot) if snapshot is not None \
                else storage.scan_batches()
        elif snapshot is not None:
            pages = _chunked(storage.scan(snapshot), self.batch_size)
        else:
            pages = _chunked(storage.scan(), self.batch_size)
        if passes is None:
            for page in pages:
                yield [make(rowid, row) for rowid, row in page]
            return
        for page in pages:
            batch = []
            for rowid, row in page:
                ctx = make(rowid, row)
                if passes(ctx):
                    batch.append(ctx)
            if batch:
                yield batch

    # -- vectorized columnar scan ----------------------------------------------

    def _vector_filter(self, node: pl.PlanNode
                       ) -> Tuple[bool, Optional[Callable]]:
        """``(vectorized, kernel)`` for a scan node's filter this
        execution.

        ``vectorized`` is plan-time eligibility (``vector_mode ==
        "VECTORIZED"``, which implies the filter — if any — has a
        vector kernel) plus the kernel factory's per-execution bind
        inspection; a declined factory sends the whole statement to the
        row pipeline.  ``kernel`` is None for a filterless scan.
        """
        if self._interpret_only or node.vector_mode != "VECTORIZED":
            return False, None
        if node.filter is None:
            return True, None
        factory = node.compiled.get("vector_kernel")
        if factory is None:
            return False, None
        kernel = factory(self.binds)
        if kernel is None:
            # bind values outside the kernel contract (NULL, bool,
            # non-string LIKE pattern)
            self.xstats.record_factory_decline()
            return False, None
        return True, kernel

    def _vector_scan(self, node: pl.FullScan
                     ) -> Optional[Iterator[ColumnBatch]]:
        """Columnar batches for a full scan, or None for the row path."""
        if not node.has_scan_columns:
            return None
        ok, kernel = self._vector_filter(node)
        return self._cbatches(node, kernel) if ok else None

    def _vector_cbatches(self, scan: pl.PlanNode
                         ) -> Optional[Iterator[ColumnBatch]]:
        """Filtered columnar batches of any vector-capable scan — full,
        native index, or domain — or None for the row path."""
        if isinstance(scan, pl.FullScan):
            return self._vector_scan(scan)
        source = self._scan_source(scan, columnar=True)
        if source is None:
            return None
        if isinstance(scan, pl.DomainScan):
            return self._domain_batches(
                scan, lambda result: source.cbatch(result.rowids))
        return self._index_batches(scan, source.cbatch)

    def _run_kernel(self, kernel: Callable, cbatch: ColumnBatch,
                    node: pl.PlanNode) -> None:
        """Set ``cbatch.sel`` from the scan ``node``'s vector kernel.  A
        kernel failing mid-batch re-runs THIS batch on the interpreter,
        so accept/reject outcomes, evaluation order, and error classes
        are the reference's."""
        try:
            cbatch.sel = kernel(cbatch.columns, cbatch.rowids, cbatch.n)
            self.xstats.record_vector_batch(cbatch.n)
        except Exception:  # noqa: BLE001 — degrade to exact semantics
            self.xstats.record_fallback_batch()
            make = self._ctx_factory(node.table, node.binding_name)
            truth, predicate = self.evaluator.truth, node.filter
            rowids = cbatch.rowids
            cbatch.sel = [
                i for i in range(cbatch.n)
                if truth(predicate, make(rowids[i], cbatch.row(i))) is True]

    def _cbatches(self, node: pl.FullScan, kernel: Optional[Callable]
                  ) -> Iterator[ColumnBatch]:
        storage = node.table.storage
        snapshot = self.snapshot if node.versioned else None
        width = len(node.table.columns)
        for rowids, columns in storage.scan_batches_columnar(width, snapshot):
            cbatch = ColumnBatch(rowids, columns)
            if kernel is not None:
                self._run_kernel(kernel, cbatch, node)
            else:
                self.xstats.record_vector_batch(cbatch.n)
            if cbatch.selected_count():
                yield cbatch

    def _vector_project_scan(self, node: pl.ProjectNode, scan: pl.PlanNode
                             ) -> Optional[Iterator[Tuple[Any, ...]]]:
        """Fused filter→project over columnar batches, or None.

        Output tuples are gathered straight from the column vectors
        through the selection vector — selected rows are never
        materialized as row tuples between the two operators.  The
        planner stamps the projection ``VECTORIZED`` only over a scan
        that produces column batches (full, native index, or domain).
        """
        if self._interpret_only or node.vector_mode != "VECTORIZED":
            return None
        factory = node.compiled.get("vector_items")
        if factory is None:
            return None
        project = factory(self.binds)
        if project is None:
            self.xstats.record_factory_decline()
            return None
        cbatches = self._vector_cbatches(scan)
        if cbatches is None:
            return None
        return self._project_cbatches(node, scan, project, cbatches)

    def _project_cbatches(self, node: pl.ProjectNode, scan: pl.PlanNode,
                          project: Callable,
                          cbatches: Iterator[ColumnBatch]
                          ) -> Iterator[Tuple[Any, ...]]:
        xstats = self.xstats
        for cbatch in cbatches:
            try:
                rows = project(cbatch.columns, cbatch.rowids,
                               cbatch.selected())
            except Exception:  # noqa: BLE001 — degrade to exact semantics
                # a projection item hit a value outside the generated
                # code's contract: materialize this batch and re-project
                # through the interpreter, which yields the same prefix
                # then raises the proper taxonomy error if one is real
                xstats.record_fallback_batch()
                xstats.record_materialize_boundary()
                yield from self._interpreted_tuples(
                    [e for e, _ in node.items], scan, cbatch)
                continue
            yield from rows

    def _interpreted_tuples(self, exprs: List[ast.Expr], scan: pl.PlanNode,
                            cbatch: ColumnBatch
                            ) -> Iterator[Tuple[Any, ...]]:
        """``exprs`` over each selected row of ``cbatch``, on the
        interpreter: what a failed generated gather falls back to."""
        make = self._ctx_factory(scan.table, scan.binding_name)
        evaluate = self.evaluator.evaluate
        for rowid, row in cbatch.iter_rows():
            ctx = make(rowid, row)
            yield tuple(evaluate(e, ctx) for e in exprs)

    def _const(self, expr: Optional[ast.Expr]) -> Any:
        """Evaluate a constant expression, once per statement.

        The same expression object often appears at several call sites
        of one plan (an equality sarg feeds both the low and high bound
        of a B-tree scan); memoize by object identity, holding the expr
        so its id cannot be recycled while the entry lives.
        """
        if expr is None:
            return None
        hit = self._const_cache.get(id(expr))
        if hit is not None and hit[0] is expr:
            return hit[1]
        value = self.evaluator.evaluate(expr, RowContext())
        if len(self._const_cache) >= _CONST_CACHE_LIMIT:
            self._const_cache.clear()
        self._const_cache[id(expr)] = (expr, value)
        return value

    def _batch_fetcher(self, table: TableDef
                       ) -> Callable[[List[Any]], Tuple[List[Any], List[Any]]]:
        """``fetch(rowids) -> (rowids, rows)`` over a table's storage:
        the batch's live, visible rows in the order the rowids came in.

        Resolved against the executor's snapshot when the storage is
        versioned; unversioned storages (dictionary views, test doubles)
        and current-mode statements (DML target selection) read current
        values.  Heaps fetch page-batched; any other storage is read one
        rowid at a time — the executor's only such loop.
        """
        storage = table.storage
        snapshot = self.snapshot \
            if getattr(storage, "versions", None) is not None else None
        fetch_batch = getattr(storage, "fetch_batch", None)
        if fetch_batch is not None:
            if snapshot is None:
                return fetch_batch
            return lambda rowids: fetch_batch(rowids, snapshot)
        if snapshot is None:
            fetch = storage.fetch_or_none
        else:
            def fetch(rowid: Any) -> Optional[List[Any]]:
                return storage.fetch_or_none(rowid, snapshot)

        def fetch_rows(rowids: List[Any]) -> Tuple[List[Any], List[Any]]:
            found, rows = [], []
            for rowid in rowids:
                row = fetch(rowid)
                if row is not None:
                    found.append(rowid)
                    rows.append(row)
            return found, rows
        return fetch_rows

    def _probe(self, structure: Any,
               produce: Callable[[], Iterable[Any]]) -> Iterable[Any]:
        """Run a native-index probe.

        Under a snapshot, readers hold no table locks, so a concurrent
        writer may restructure the index mid-iteration; materialize the
        probe under the structure's latch instead of streaming it."""
        if self.snapshot is None:
            return produce()
        latch = getattr(structure, "latch", None)
        if latch is None:
            return produce()
        with latch:
            return list(produce())

    def _iter_iot_prefix_scan(self, node: pl.IOTPrefixScan
                              ) -> Iterator[RowContext]:
        key = [self._const(expr) for expr in node.key]
        if any(is_null(value) for value in key):
            return
        make = self._ctx_factory(node.table, node.binding_name)
        passes = self._truth_fn(node, "filter", node.filter)
        storage = node.table.storage
        if self.snapshot is not None \
                and getattr(storage, "versions", None) is not None:
            pairs = storage.key_prefix_scan(key, snapshot=self.snapshot)
        else:
            pairs = storage.key_prefix_scan(key)
        for rowid, row in pairs:
            ctx = make(rowid, row)
            if passes is None or passes(ctx):
                yield ctx

    # -- native index scans ----------------------------------------------------

    def _probe_rowids(self, node: pl.PlanNode) -> Iterable[Any]:
        """The rowids a native index scan's probe returns, in index
        order.  A NULL key or bound compares unknown to every entry:
        the probe is empty."""
        structure = node.index.structure
        if isinstance(node, pl.BTreeScan):
            low = self._const(node.low)
            if node.low is node.high and node.low is not None:
                # equality sarg: one descent, no leaf walk
                if is_null(low):
                    return ()
                return self._probe(structure, lambda: structure.search(low))
            high = self._const(node.high)
            if (node.low is not None and is_null(low)) \
                    or (node.high is not None and is_null(high)):
                return ()
            return map(itemgetter(1), self._probe(
                structure,
                lambda: structure.range_scan(low, high, node.low_inclusive,
                                             node.high_inclusive)))
        if isinstance(node, pl.HashScan):
            key = self._const(node.key)
            if is_null(key):
                return ()
            return self._probe(structure, lambda: structure.search(key))
        keys = [key for key in map(self._const, node.keys)
                if not is_null(key)]
        return self._probe(structure, lambda: structure.search_any_of(keys))

    def _scan_source(self, node: pl.PlanNode, columnar: bool
                     ) -> Optional["_RowidSource"]:
        """The batched base-table fetch behind an index-driven scan.

        A ``columnar`` consumer (the fused projection) needs the
        residual filter to run as the plan's vector kernel: None when it
        cannot, and the caller takes the row path.  A row consumer gets
        the kernel when there is one — crossing a materialization
        boundary for the survivors — and a row function otherwise."""
        ok, kernel = self._vector_filter(node)
        if columnar and not ok:
            return None
        if not columnar and kernel is not None:
            self.xstats.record_materialize_boundary()
        label = node.operator_call.label \
            if isinstance(node, pl.DomainScan) else None
        return _RowidSource(self, node, node.table, node.binding_name,
                            node.filter, "filter", kernel, label)

    def _index_batches(self, node: pl.PlanNode,
                       materialize: Callable[[List[Any]], Any]
                       ) -> Iterator[Any]:
        """Probe a native index and materialize its rowids a chunk at a
        time, in probe order, so a LIMIT or an abandoned cursor never
        fetches the rest of the range.  The first chunk is
        ``fetch_batch_size`` rowids (first rows come fast); each later
        one may be twice the last, up to eight times that, because a
        long probe shares heap pages and kernel entries across a larger
        batch.  Without a residual filter every live fetched row is an
        output row, so a LIMIT's row budget also caps the chunk."""
        budget = self._scan_budget
        size = self.batch_size
        if budget is not None and node.filter is None:
            size = min(size, budget)
        rowids = self._probe_rowids(node)
        if isinstance(rowids, list) and len(rowids) <= size:
            chunks: Iterable[List[Any]] = (rowids,)  # the point probe
        else:
            chunks = _chunked(rowids, size, grow_to=8 * size)
        emitted = 0
        for chunk in chunks:
            batch = materialize(chunk)
            if batch:
                yield batch
                emitted += len(batch)
                if budget is not None and emitted >= budget:
                    return

    def _batches_index_scan(self, node: pl.PlanNode
                            ) -> Iterator[List[RowContext]]:
        source = self._scan_source(node, columnar=False)
        return self._index_batches(node, source.contexts)

    # -- the domain index scan (ODCI orchestration) ----------------------------

    def _batches_domain_scan(self, node: pl.DomainScan
                             ) -> Iterator[List[RowContext]]:
        source = self._scan_source(node, columnar=False)
        return self._domain_batches(
            node, lambda result: source.contexts(result.rowids, result.aux))

    def _domain_batches(self, node: pl.DomainScan,
                        materialize: Callable[[Any], Any]) -> Iterator[Any]:
        """One domain index scan: each ODCIIndexFetch result goes
        through ``materialize`` (row contexts for a row consumer, a
        filtered ``ColumnBatch`` under a fused projection)."""
        call = node.operator_call
        # the operator's value arguments are constants here
        const_ctx = RowContext()
        evaluated_args = tuple(self.evaluator.evaluate(a, const_ctx)
                               for a in call.value_args)
        # the plan (and its pred_info) may be shared via the plan cache:
        # never mutate it — take a per-execution copy with these args
        pred_info = node.pred_info.with_args(evaluated_args)
        query_info = ODCIQueryInfo(first_rows=node.first_rows,
                                   ancillary_label=call.label)
        return self._odci_scan(node, pred_info, query_info, materialize,
                               self._scan_budget)

    def _odci_scan(self, node: pl.PlanNode, pred_info: ODCIPredInfo,
                   query_info: ODCIQueryInfo,
                   materialize: Callable[[Any], Any],
                   budget: Optional[int] = None) -> Iterator[Any]:
        """The server side of the ODCI scan protocol, on the statement's
        thread: Start, Fetch until the null-terminator, Close.  Yields
        each non-empty materialized fetch result; ``budget`` stops
        fetching once that many rows are out."""
        domain = node.index.domain
        if domain is None or domain.methods is None:
            raise ODCIError(type(node).__name__, f"index {node.index.name} "
                            "has no methods instance")
        # pin any callback-SQL the cartridge runs during this scan to the
        # statement's snapshot: ODCIIndexStart/Fetch observe one frozen
        # database state no matter how long the fetch loop streams
        env = self.db.make_env(CallbackPhase.SCAN, domain,
                               snapshot=self.snapshot)
        methods = domain.methods
        if env.trace_enabled:
            env.trace(f"exec:ODCIIndexStart({domain.indextype_name}:"
                      f"{node.index.name})")
        dispatcher = self.db.dispatcher
        context = dispatcher.call(
            "ODCIIndexStart", methods.index_start,
            domain.index_info(), pred_info, query_info, env,
            index_name=node.index.name, phase="scan")
        closer = self._make_closer(methods, context, env,
                                   index_name=node.index.name)
        batch_size = self.batch_size
        emitted = 0
        try:
            while True:
                if env.trace_enabled:
                    env.trace(f"exec:ODCIIndexFetch(n={batch_size})")
                result = dispatcher.call(
                    "ODCIIndexFetch", methods.index_fetch,
                    context, batch_size, env,
                    index_name=node.index.name, phase="scan")
                # index-returned rowids are hints: the snapshot-aware
                # base-table fetch re-validates each one, dropping rows
                # whose versions are not visible to this statement
                batch = materialize(result)
                if batch:
                    yield batch
                emitted += len(batch)
                if result.done or not result.rowids:
                    break
                if budget is not None and emitted >= budget:
                    # the LIMIT above is satisfied: stop re-entering the
                    # cartridge instead of fetching rows nobody will see
                    break
        finally:
            if env.trace_enabled:
                env.trace("exec:ODCIIndexClose()")
            closer()

    def _make_closer(self, methods, context, env, index_name: str = ""):
        """An idempotent ODCIIndexClose callable, registered with the
        statement's scan tracker (if any) so cursor close can run it."""
        closed = [False]

        def closer() -> None:
            if closed[0]:
                return
            closed[0] = True
            if self.tracker is not None:
                self.tracker.unregister(closer)
            self.db.dispatcher.call(
                "ODCIIndexClose", methods.index_close, context, env,
                index_name=index_name, phase="scan")

        if self.tracker is not None:
            self.tracker.register(closer)
        return closer

    # -- composite nodes ------------------------------------------------------

    def _batches_filter(self, node: pl.FilterNode
                        ) -> Iterator[List[RowContext]]:
        passes = self._truth_fn(node, "predicate", node.predicate)
        if passes is None:
            yield from self.iter_batches(node.child)
            return
        for batch in self.iter_batches(node.child):
            out = [ctx for ctx in batch if passes(ctx)]
            if out:
                yield out

    def _iter_nl_join(self, node: pl.NestedLoopJoin) -> Iterator[RowContext]:
        inner_rows = list(self.iter_node(node.inner))
        accepts = self._truth_fn(node, "condition", node.condition)
        for outer_ctx in self.iter_node(node.outer):
            for inner_ctx in inner_rows:
                merged = outer_ctx.merged_with(inner_ctx)
                if accepts is None or accepts(merged):
                    yield merged

    def _iter_indexed_nl_join(self, node: pl.IndexedNLJoin
                              ) -> Iterator[RowContext]:
        structure = node.index.structure
        outer_key = self._row_fn(node.compiled.get("outer_key"),
                                 node.outer_key)
        accepts = self._truth_fn(node, "condition", node.condition)
        inner = self._join_source(node)
        for outer_ctx in self.iter_node(node.outer):
            key = outer_key(outer_ctx)
            if is_null(key):
                continue
            rowids = self._probe(structure, lambda: structure.search(key))
            for inner_ctx in inner.contexts(rowids):
                merged = outer_ctx.merged_with(inner_ctx)
                if accepts is None or accepts(merged):
                    yield merged

    def _join_source(self, node: pl.PlanNode,
                     label: Optional[Any] = None) -> "_RowidSource":
        """The inner side of an index join: one probe's rowids are one
        fetch batch; the inner filter runs as a row function."""
        return _RowidSource(self, node, node.inner_table, node.inner_binding,
                            node.inner_filter, "inner_filter", None, label)

    def _iter_domain_nl_join(self, node: pl.DomainNLJoin
                             ) -> Iterator[RowContext]:
        """Per outer row, re-run the domain index scan with bound args.

        "Multiple sets of invocations of operators can be interleaved.
        At any given time, a number of operators can be evaluated using
        the same indextype routines." (§2.2.3)
        """
        call = node.operator_call
        arg_fns = self._value_fns(node, "value_args", call.value_args)
        accepts = self._truth_fn(node, "condition", node.condition)
        inner = self._join_source(node, call.label)
        query_info = ODCIQueryInfo(ancillary_label=call.label)
        for outer_ctx in self.iter_node(node.outer):
            pred_info = ODCIPredInfo(
                operator_name=call.operator.name,
                operator_args=tuple(fn(outer_ctx) for fn in arg_fns),
                lower_bound=node.lower, upper_bound=node.upper,
                include_lower=node.include_lower,
                include_upper=node.include_upper)
            for batch in self._odci_scan(
                    node, pred_info, query_info,
                    lambda result: inner.contexts(result.rowids,
                                                  result.aux)):
                for inner_ctx in batch:
                    merged = outer_ctx.merged_with(inner_ctx)
                    if accepts is None or accepts(merged):
                        yield merged

    def _iter_hash_join(self, node: pl.HashJoin) -> Iterator[RowContext]:
        left_keys = self._value_fns(node, "left_keys", node.left_keys)
        right_keys = self._value_fns(node, "right_keys", node.right_keys)
        accepts = self._truth_fn(node, "condition", node.condition)
        build: Dict[Tuple[Any, ...], List[RowContext]] = {}
        for right_ctx in self.iter_node(node.right):
            key = tuple(fn(right_ctx) for fn in right_keys)
            if any(is_null(v) for v in key):
                continue
            build.setdefault(key, []).append(right_ctx)
        for left_ctx in self.iter_node(node.left):
            key = tuple(fn(left_ctx) for fn in left_keys)
            if any(is_null(v) for v in key):
                continue
            for right_ctx in build.get(key, ()):
                merged = left_ctx.merged_with(right_ctx)
                if accepts is None or accepts(merged):
                    yield merged

    @staticmethod
    def _order_compare(descending: List[bool]) -> Callable[..., int]:
        """The ORDER BY comparator over (key-tuple, ctx) pairs
        (NULLS LAST, per-key direction)."""
        def compare(a: Tuple[Tuple[Any, ...], RowContext],
                    b: Tuple[Tuple[Any, ...], RowContext]) -> int:
            for va, vb, desc in zip(a[0], b[0], descending):
                if is_null(va) and is_null(vb):
                    continue
                if is_null(va):
                    return 1  # NULLS LAST
                if is_null(vb):
                    return -1
                cmp = sql_compare(va, vb)
                if is_null(cmp) or cmp == 0:
                    continue
                return -cmp if desc else cmp
            return 0
        return compare

    def _iter_sort(self, node: pl.SortNode) -> Iterator[RowContext]:
        """Decorate–sort–undecorate: ORDER BY expressions are evaluated
        once per row, not once per comparison."""
        descending = [item.descending for item in node.order_items]
        sort_key = functools.cmp_to_key(self._order_compare(descending))
        vectored = self._vector_sort(node, sort_key)
        if vectored is not None:
            return vectored
        key_fns = self._value_fns(node, "keys",
                                  [item.expr for item in node.order_items])
        decorated = [(tuple(fn(ctx) for fn in key_fns), ctx)
                     for ctx in self.iter_node(node.child)]
        decorated.sort(key=sort_key)
        return iter([ctx for __, ctx in decorated])

    def _vector_sort(self, node: pl.SortNode,
                     sort_key) -> Optional[Iterator[RowContext]]:
        """ORDER BY over a vector-eligible scan: the filter and the sort
        keys both evaluate on column vectors (decorate on columns); each
        surviving row materializes exactly once, into the decorated
        pair.  Tie order matches the row path — both decorate in scan
        order and the sort is stable.  Returns None for the row path.
        """
        if self._interpret_only or node.vector_mode != "VECTORIZED":
            return None
        child = node.child
        if not isinstance(child, pl.FullScan):
            return None
        factory = node.compiled.get("vector_keys")
        if factory is None:
            return None
        keys_of = factory(self.binds)
        if keys_of is None:
            self.xstats.record_factory_decline()
            return None
        cbatches = self._vector_scan(child)
        if cbatches is None:
            return None
        make = self._ctx_factory(child.table, child.binding_name)
        xstats = self.xstats
        decorated = []
        for cbatch in cbatches:
            try:
                keys = keys_of(cbatch.columns, cbatch.rowids,
                               cbatch.selected())
            except Exception:  # noqa: BLE001 — degrade to exact semantics
                xstats.record_fallback_batch()
                keys = self._interpreted_tuples(
                    [item.expr for item in node.order_items], child, cbatch)
            xstats.record_materialize_boundary()
            for key, (rowid, row) in zip(keys, cbatch.iter_rows()):
                decorated.append((key, make(rowid, row)))
        decorated.sort(key=sort_key)
        return iter([ctx for __, ctx in decorated])

    def _iter_group_by(self, node: pl.GroupByNode) -> Iterator[RowContext]:
        vectored = self._vector_group_by(node)
        if vectored is not None:
            return vectored
        return self._iter_group_by_rows(node)

    def _vector_group_by(self, node: pl.GroupByNode
                         ) -> Optional[Iterator[RowContext]]:
        """Grouped column folds over columnar batches, or None.

        Plan time restricted the group keys and aggregate arguments to
        bare columns, so accumulation reads column vectors directly; the
        accumulator semantics (NULL skip, DISTINCT markers, result
        typing) live in :class:`_Accumulator` for both pipelines.
        """
        if self._interpret_only or node.vector_mode != "VECTORIZED":
            return None
        child = node.child
        if not isinstance(child, pl.FullScan):
            return None
        slots = node.compiled.get("vector_group")
        if slots is None:
            return None
        cbatches = self._vector_scan(child)
        if cbatches is None:
            return None
        return self._group_cbatches(node, child, slots, cbatches)

    def _group_cbatches(self, node: pl.GroupByNode, scan: pl.FullScan,
                        slots: Tuple, cbatches: Iterator[ColumnBatch]
                        ) -> Iterator[RowContext]:
        group_indices, agg_indices = slots
        aggregates = node.aggregates
        make = self._ctx_factory(scan.table, scan.binding_name)
        self.xstats.record_materialize_boundary()
        groups: Dict[Tuple[Any, ...], Tuple[RowContext, List]] = {}
        for cbatch in cbatches:
            columns = cbatch.columns
            group_cols = [columns[i] for i in group_indices]
            agg_cols = [None if i is None else columns[i]
                        for i in agg_indices]
            for i in cbatch.selected():
                key = _group_key([col[i] for col in group_cols])
                state = groups.get(key)
                if state is None:
                    # one materialized row per group (first seen), for
                    # HAVING and the projection above
                    state = groups[key] = (
                        make(cbatch.rowids[i], cbatch.row(i)),
                        [_Accumulator(a) for a in aggregates])
                for acc, col in zip(state[1], agg_cols):
                    if col is None:
                        acc.count += 1  # COUNT(*)
                    else:
                        acc.add_value(col[i])
        return self._group_rows(node, groups)

    def _iter_group_by_rows(self, node: pl.GroupByNode
                            ) -> Iterator[RowContext]:
        groups: Dict[Tuple[Any, ...], Tuple[RowContext, List]] = {}
        aggregates = node.aggregates
        group_fns = self._value_fns(node, "group_exprs", node.group_exprs)
        factories = node.compiled.get("agg_args") or {}
        arg_fns = [
            None if agg.arg is None else self._row_fn(
                factories.get(aggregate_key(agg)), agg.arg)
            for agg in aggregates]
        for ctx in self.iter_node(node.child):
            key = _group_key([fn(ctx) for fn in group_fns])
            state = groups.get(key)
            if state is None:
                state = groups[key] = (
                    ctx, [_Accumulator(a) for a in aggregates])
            for acc, fn in zip(state[1], arg_fns):
                if fn is None:
                    acc.count += 1  # COUNT(*)
                else:
                    acc.add_value(fn(ctx))
        return self._group_rows(node, groups)

    def _group_rows(self, node: pl.GroupByNode,
                    groups: Dict[Tuple[Any, ...], Tuple[RowContext, List]]
                    ) -> Iterator[RowContext]:
        """One output row per group, in first-seen order, through
        HAVING: the group's first row plus its aggregate results."""
        aggregates = node.aggregates
        if not groups and not node.group_exprs:
            # global aggregate over an empty input still yields one row
            groups = {(): (RowContext(),
                           [_Accumulator(a) for a in aggregates])}
        having = self._truth_fn(node, "having", node.having)
        for out, accs in groups.values():
            for agg, acc in zip(aggregates, accs):
                out.agg[aggregate_key(agg)] = acc.result()
            if having is None or having(out):
                yield out


class _RowidSource:
    """One index-driven row source of a running statement.

    Everything that turns index-returned rowids into rows — the native
    index scans, the inner sides of the index joins, the domain scan —
    builds one of these per execution and hands it rowid batches in
    probe order.  A batch is fetched from the base table in one go (see
    :meth:`Executor._batch_fetcher`); when the statement has a vector
    kernel for the residual filter the batch is transposed into a
    ``ColumnBatch`` and the kernel picks the survivors, and
    ``RowContext``s are built for those only.  Without a kernel
    (factory declined, filter outside the batch subset) the filter runs
    as a row function over the batch's contexts.
    Either way the output keeps the order the rowids came in.
    """

    def __init__(self, executor: Executor, node: pl.PlanNode, table: TableDef,
                 binding: str, predicate: Optional[ast.Expr], slot: str,
                 kernel: Optional[Callable], label: Optional[Any]):
        self._executor = executor
        self._node = node
        self._table = table
        self._binding = binding
        #: context constructor, built at the first row boundary (a fused
        #: projection never crosses one)
        self._make: Optional[Callable] = None
        self._fetch = executor._batch_fetcher(table)
        #: row form of the residual filter, for when there is no kernel
        self._passes = executor._truth_fn(node, slot, predicate) \
            if kernel is None else None
        self.kernel = kernel
        #: ancillary-operator label the ODCIIndexFetch aux values feed
        self._label = label

    def _ctx_maker(self) -> Callable[[Any, List[Any]], RowContext]:
        make = self._make
        if make is None:
            make = self._make = self._executor._ctx_factory(
                self._table, self._binding)
        return make

    def _filtered(self, rowids: List[Any], rows: List[Any]) -> ColumnBatch:
        """The fetched batch as columns, ``sel`` set by the kernel (only
        scan nodes have one; its mid-batch fallback is the scan's)."""
        cbatch = ColumnBatch.from_rows(rowids, rows,
                                       len(self._table.columns))
        if self.kernel is not None and rows:
            self._executor._run_kernel(self.kernel, cbatch, self._node)
        return cbatch

    def cbatch(self, rowids: List[Any]) -> ColumnBatch:
        """Fetch one rowid batch for a columnar consumer."""
        return self._filtered(*self._fetch(rowids))

    def contexts(self, rowids: List[Any],
                 aux: Optional[List[Any]] = None) -> List[RowContext]:
        """Fetch one rowid batch for a row consumer: contexts for the
        surviving rows only.  ``aux[i]`` is the ancillary value the
        index returned with ``rowids[i]``."""
        found, rows = self._fetch(rowids)
        label = self._label
        if aux and label is not None:
            aux = _aligned_aux(aux, rowids, found)
        else:
            aux = None
        if self.kernel is not None and rows:
            sel = self._filtered(found, rows).sel
            found = [found[i] for i in sel]
            rows = [rows[i] for i in sel]
            if aux is not None:
                aux = [aux[i] for i in sel]
        make = self._ctx_maker()
        batch = [make(rowid, row) for rowid, row in zip(found, rows)]
        if aux is not None:
            for ctx, value in zip(batch, aux):
                if value is not _NO_AUX:
                    ctx.aux[label] = value
        if self._passes is not None:
            passes = self._passes
            batch = [ctx for ctx in batch if passes(ctx)]
        return batch


def _aligned_aux(aux: List[Any], rowids: List[Any],
                 fetched: List[Any]) -> List[Any]:
    """Ancillary values for ``fetched`` — the order-preserving
    subsequence (same objects) of ``rowids`` the base-table fetch kept —
    given ``aux[i]`` belongs to ``rowids[i]``; ``_NO_AUX`` where the
    cartridge supplied fewer values than rowids."""
    if len(fetched) == len(rowids) and len(aux) >= len(rowids):
        return aux
    supplied = len(aux)
    aligned = []
    j = 0
    for rowid in fetched:
        while rowids[j] is not rowid:
            j += 1
        aligned.append(aux[j] if j < supplied else _NO_AUX)
        j += 1
    return aligned


class _Accumulator:
    """Streaming state for one aggregate call (COUNT(*) bumps
    ``count`` directly)."""

    def __init__(self, call: AggregateCall):
        self.call = call
        self.count = 0
        self.total: Any = 0
        self.min_value: Any = None
        self.max_value: Any = None
        self.distinct_seen = set() if call.distinct else None

    def add_value(self, value: Any) -> None:
        """Fold one argument value in (row pipeline and vectorized
        column folds alike)."""
        call = self.call
        if is_null(value):
            return
        if self.distinct_seen is not None:
            marker = value if isinstance(value, (int, float, str, bool)) \
                else repr(value)
            if marker in self.distinct_seen:
                return
            self.distinct_seen.add(marker)
        self.count += 1
        if call.func in ("sum", "avg"):
            self.total += value
        if call.func == "min":
            if self.min_value is None or value < self.min_value:
                self.min_value = value
        if call.func == "max":
            if self.max_value is None or value > self.max_value:
                self.max_value = value

    def result(self) -> Any:
        func = self.call.func
        if func == "count":
            return self.count
        if self.count == 0:
            return NULL
        if func == "sum":
            return self.total
        if func == "avg":
            return self.total / self.count
        if func == "min":
            return self.min_value
        return self.max_value
