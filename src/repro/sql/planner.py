"""The cost-based planner.

Responsible for the paper's central optimizer behaviour (§2.4.2): an
operator predicate in the WHERE clause is evaluated either by invoking
its functional implementation as a per-row filter, or — when the operated
column has a domain index whose indextype supports the operator — by a
domain-index scan.  The choice is made on estimated cost, using
cartridge-supplied ODCIStats selectivity/cost routines when associated,
and documented defaults otherwise.

Cost unit: one simulated page I/O.  Per-row CPU for simple predicates and
per-call cost of registered functions are expressed in the same unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple)

from repro.core.odci import ODCIPredInfo
from repro.errors import CatalogError, ExecutionError
from repro.sql import ast_nodes as ast
from repro.sql.catalog import Catalog, IndexDef, TableDef
from repro.sql.expressions import (
    AggregateCall, Binder, OperatorCall, Scope, child_exprs,
    contains_aggregate, static_type)

#: CPU cost (in page-I/O units) of evaluating one simple predicate on one row.
CPU_PER_PREDICATE = 0.001
#: Base per-row processing cost during a full scan.
ROW_CPU = 0.01
#: Cost of fetching one row by rowid out of an index scan (random access).
FETCH_COST = 0.1
#: Default per-call cost of a registered function with no explicit cost.
DEFAULT_FUNCTION_COST = 0.01
#: Default selectivity of an equality predicate without statistics.
DEFAULT_EQ_SELECTIVITY = 0.01
#: Default selectivity of a range predicate without statistics.
DEFAULT_RANGE_SELECTIVITY = 0.05
#: Default selectivity of a user-defined operator predicate (Oracle's
#: documented default for operators without associated statistics).
DEFAULT_OPERATOR_SELECTIVITY = 0.01
#: Fixed startup cost charged to every domain index scan (ODCI call
#: overhead), in page-I/O units.
DOMAIN_SCAN_STARTUP = 2.0
#: Per-returned-row cost of a domain index scan with default statistics.
DOMAIN_SCAN_PER_ROW = 0.05
#: B-tree traversal cost (root-to-leaf) in page-I/O units.
BTREE_DESCENT = 2.0


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------

@dataclass
class PlanNode:
    """Base class for plan nodes; cost/cardinality filled by the planner."""

    est_rows: float = field(default=0.0, init=False)
    est_cost: float = field(default=0.0, init=False)
    #: optimizer remarks shown under the node in EXPLAIN — e.g. the
    #: functional-evaluation fallback notice when a matching domain
    #: index was skipped because it is not VALID
    annotations: List[str] = field(default_factory=list, init=False)
    #: generated row-function factories keyed by slot name, filled by
    #: :func:`repro.sql.compile.compile_plan` (None = interpreter)
    compiled: Dict[str, Any] = field(default_factory=dict, init=False)
    #: "COMPILED" when every row expression on this node has a
    #: generated row function, "INTERPRETED" when one was declined,
    #: None when the node has none
    exec_mode: Optional[str] = field(default=None, init=False)
    #: "VECTORIZED" when this node operates on columnar batches, "ROW"
    #: when this node runs on the row pipeline instead, None for nodes
    #: outside the vectorizable chain
    vector_mode: Optional[str] = field(default=None, init=False)

    def label(self) -> str:
        """One-line description used by EXPLAIN."""
        return type(self).__name__

    def children(self) -> List["PlanNode"]:
        """Input nodes: a single-input node's ``child``; joins override."""
        child = getattr(self, "child", None)
        return [] if child is None else [child]

    def explain(self, depth: int = 0) -> List[str]:
        """Indented EXPLAIN lines for this subtree."""
        mode = f" [{self.exec_mode}]" if self.exec_mode else ""
        vector = f" [{self.vector_mode}]" if self.vector_mode else ""
        line = (f"{'  ' * depth}{self.label()} "
                f"(rows={self.est_rows:.0f} cost={self.est_cost:.2f})"
                f"{mode}{vector}")
        lines = [line]
        for note in self.annotations:
            lines.append(f"{'  ' * (depth + 1)}{note}")
        for child in self.children():
            lines.extend(child.explain(depth + 1))
        return lines


@dataclass
class FullScan(PlanNode):
    table: TableDef
    binding_name: str
    filter: Optional[ast.Expr] = None
    #: storage capability probes, hoisted here from the executor's
    #: per-statement hot path (the executor branches on these flags
    #: instead of getattr-probing the storage on every scan)
    has_scan_batches: bool = field(default=False, init=False)
    has_scan_columns: bool = field(default=False, init=False)
    versioned: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        storage = self.table.storage
        self.has_scan_batches = hasattr(storage, "scan_batches")
        self.has_scan_columns = hasattr(storage, "scan_batches_columnar")
        self.versioned = getattr(storage, "versions", None) is not None

    def label(self) -> str:
        suffix = " FILTER" if self.filter is not None else ""
        return f"TABLE SCAN {self.table.name} [{self.binding_name}]{suffix}"


@dataclass
class BTreeScan(PlanNode):
    table: TableDef
    binding_name: str
    index: IndexDef
    low: Optional[ast.Expr] = None
    high: Optional[ast.Expr] = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    filter: Optional[ast.Expr] = None

    def label(self) -> str:
        return (f"INDEX RANGE SCAN {self.index.name} -> "
                f"{self.table.name} [{self.binding_name}]")


@dataclass
class HashScan(PlanNode):
    table: TableDef
    binding_name: str
    index: IndexDef
    key: ast.Expr = None  # type: ignore[assignment]
    filter: Optional[ast.Expr] = None

    def label(self) -> str:
        return (f"HASH INDEX SCAN {self.index.name} -> "
                f"{self.table.name} [{self.binding_name}]")


@dataclass
class BitmapScan(PlanNode):
    table: TableDef
    binding_name: str
    index: IndexDef
    keys: List[ast.Expr] = field(default_factory=list)
    filter: Optional[ast.Expr] = None

    def label(self) -> str:
        return (f"BITMAP INDEX SCAN {self.index.name} -> "
                f"{self.table.name} [{self.binding_name}]")


@dataclass
class IOTPrefixScan(PlanNode):
    """Key-prefix scan of an index-organized table (its native path)."""

    table: TableDef
    binding_name: str
    #: equality values for the leading primary-key columns, in key order
    key: List[ast.Expr] = field(default_factory=list)
    filter: Optional[ast.Expr] = None

    def label(self) -> str:
        return (f"IOT PREFIX SCAN {self.table.name} [{self.binding_name}]"
                f" key={len(self.key)}/{len(self.table.primary_key)}")


@dataclass
class DomainScan(PlanNode):
    """Evaluate an operator predicate via ODCIIndexStart/Fetch/Close."""

    table: TableDef
    binding_name: str
    index: IndexDef
    operator_call: OperatorCall = None  # type: ignore[assignment]
    pred_info: ODCIPredInfo = None  # type: ignore[assignment]
    filter: Optional[ast.Expr] = None
    first_rows: bool = False

    def label(self) -> str:
        op = self.operator_call.operator.name
        return (f"DOMAIN INDEX SCAN {self.index.name} ({op}) -> "
                f"{self.table.name} [{self.binding_name}]")


@dataclass
class FilterNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    predicate: ast.Expr = None  # type: ignore[assignment]

    def label(self) -> str:
        return "FILTER"


@dataclass
class NestedLoopJoin(PlanNode):
    outer: PlanNode = None  # type: ignore[assignment]
    inner: PlanNode = None  # type: ignore[assignment]
    condition: Optional[ast.Expr] = None

    def label(self) -> str:
        return "NESTED LOOP JOIN"

    def children(self) -> List[PlanNode]:
        return [self.outer, self.inner]


@dataclass
class IndexedNLJoin(PlanNode):
    """NL join probing the inner table through an index per outer row."""

    outer: PlanNode = None  # type: ignore[assignment]
    inner_table: TableDef = None  # type: ignore[assignment]
    inner_binding: str = ""
    index: IndexDef = None  # type: ignore[assignment]
    outer_key: ast.Expr = None  # type: ignore[assignment]
    condition: Optional[ast.Expr] = None
    inner_filter: Optional[ast.Expr] = None

    def label(self) -> str:
        return (f"INDEXED NL JOIN probe {self.index.name} -> "
                f"{self.inner_table.name} [{self.inner_binding}]")

    def children(self) -> List[PlanNode]:
        return [self.outer]


@dataclass
class DomainNLJoin(PlanNode):
    """NL join probing a *domain* index on the inner table per outer row.

    Covers operator join predicates like
    ``Sdo_Relate(p.geometry, r.geometry, 'mask=OVERLAPS')`` where the
    first argument is the inner table's indexed column and the remaining
    arguments are evaluated against each outer row — the index-based
    spatial join of §3.2.2.
    """

    outer: PlanNode = None  # type: ignore[assignment]
    inner_table: TableDef = None  # type: ignore[assignment]
    inner_binding: str = ""
    index: IndexDef = None  # type: ignore[assignment]
    operator_call: OperatorCall = None  # type: ignore[assignment]
    lower: Optional[Any] = None
    upper: Optional[Any] = None
    include_lower: bool = True
    include_upper: bool = True
    condition: Optional[ast.Expr] = None
    inner_filter: Optional[ast.Expr] = None

    def label(self) -> str:
        op = self.operator_call.operator.name
        return (f"DOMAIN NL JOIN probe {self.index.name} ({op}) -> "
                f"{self.inner_table.name} [{self.inner_binding}]")

    def children(self) -> List[PlanNode]:
        return [self.outer]


@dataclass
class HashJoin(PlanNode):
    left: PlanNode = None  # type: ignore[assignment]
    right: PlanNode = None  # type: ignore[assignment]
    left_keys: List[ast.Expr] = field(default_factory=list)
    right_keys: List[ast.Expr] = field(default_factory=list)
    condition: Optional[ast.Expr] = None

    def label(self) -> str:
        return "HASH JOIN"

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]


@dataclass
class SortNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    order_items: List[ast.OrderItem] = field(default_factory=list)

    def label(self) -> str:
        return "SORT"


@dataclass
class GroupByNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    group_exprs: List[ast.Expr] = field(default_factory=list)
    aggregates: List[AggregateCall] = field(default_factory=list)
    having: Optional[ast.Expr] = None

    def label(self) -> str:
        return f"GROUP BY ({len(self.group_exprs)} keys)"


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    items: List[Tuple[ast.Expr, str]] = field(default_factory=list)

    def label(self) -> str:
        return "DISTINCT"


@dataclass
class LimitNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    limit: Optional[int] = None
    offset: Optional[int] = None

    def label(self) -> str:
        return f"LIMIT {self.limit} OFFSET {self.offset or 0}"


@dataclass
class ProjectNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    items: List[Tuple[ast.Expr, str]] = field(default_factory=list)

    def label(self) -> str:
        return f"PROJECT [{', '.join(name for _, name in self.items)}]"


@dataclass
class QueryPlan:
    """Top-level plan: the root node plus output column names."""

    root: PlanNode
    column_names: List[str]
    scope: Scope
    #: the Select AST this plan was built from, kept so a mid-scan
    #: degrade (index marked UNUSABLE) can replan the same statement
    source: Optional[ast.Select] = None

    def explain(self) -> List[str]:
        return self.root.explain()

    def referenced_tables(self) -> List[TableDef]:
        """The tables this plan reads (one entry per FROM binding)."""
        return [table for _, table in self.scope.entries]


# ---------------------------------------------------------------------------
# Helpers over predicates
# ---------------------------------------------------------------------------

def split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Flatten top-level ANDs into a conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, ast.BoolOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_together(conjuncts: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    """Rebuild an AND tree from a conjunct list (None when empty)."""
    result: Optional[ast.Expr] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.BoolOp("AND", result, conjunct)
    return result


def referenced_aliases(expr: ast.Expr) -> set:
    """Set of table binding names an expression reads."""
    if isinstance(expr, ast.ColumnRef):
        return {expr.alias} if expr.bound else set()
    found: set = set()
    for child in child_exprs(expr):
        found |= referenced_aliases(child)
    return found


def _is_constant(expr: ast.Expr, outer: frozenset = frozenset()) -> bool:
    """True when ``expr`` is fixed while one table's rows are scanned:
    it reads no table — or only ``outer`` ones, whose row is held while
    a nested-loop join probes the inner table."""
    return referenced_aliases(expr) <= outer and not contains_aggregate(expr)


_RELOP_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
#: relop → the side of a column it bounds (``!=`` bounds none)
_SIDE = {"=": "eq", ">": "low", ">=": "low", "<": "high", "<=": "high"}


def _peek(expr: ast.Expr, binds: dict) -> Any:
    """Plan-time value of a constant: a literal's, or the value peeked
    from the execution that triggered planning (Oracle-style bind
    peeking: later executions with other values share the plan)."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.BindParam):
        return binds.get(expr.name.lower())
    return None


@dataclass
class Sarg:
    """A sargable simple predicate: column relop constant."""

    column_ref: ast.ColumnRef
    op: str
    value_expr: ast.Expr
    source: ast.Expr
    #: position of ``source`` among the table's conjuncts and the peeked
    #: plan-time value, both filled by :meth:`Planner._sarg_summary`
    conjunct: int = 0
    value: Any = None


def extract_sarg(conjunct: ast.Expr,
                 outer: frozenset = frozenset()) -> Optional[Sarg]:
    """Recognize ``col relop const`` / ``const relop col``."""
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _RELOP_FLIP:
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(left, ast.ColumnRef) and left.bound \
                and not left.attr_path and _is_constant(right, outer):
            return Sarg(left, op, right, conjunct)
        if isinstance(right, ast.ColumnRef) and right.bound \
                and not right.attr_path and _is_constant(left, outer):
            return Sarg(right, _RELOP_FLIP[op], left, conjunct)
    return None


def extract_sargs(conjunct: ast.Expr,
                  outer: frozenset = frozenset()) -> List[Sarg]:
    """Every sarg a conjunct contributes: one for a simple comparison,
    the ``>=``/``<=`` pair for ``col BETWEEN const AND const``, none
    otherwise (``NOT BETWEEN`` is two disjoint ranges: a filter)."""
    sarg = extract_sarg(conjunct, outer)
    if sarg is not None:
        return [sarg]
    if isinstance(conjunct, ast.BetweenOp) and not conjunct.negated:
        column = conjunct.operand
        if isinstance(column, ast.ColumnRef) and column.bound \
                and not column.attr_path and _is_constant(conjunct.low) \
                and _is_constant(conjunct.high):
            return [Sarg(column, ">=", conjunct.low, conjunct),
                    Sarg(column, "<=", conjunct.high, conjunct)]
    return []


@dataclass
class OperatorPred:
    """An index-evaluable operator predicate with return-value bounds.

    §2.4.2: "predicates of the form op(...) relop <value expression>
    ... are possible candidates for index scan based evaluation"; a bare
    truthy use of an operator is normalized to bounds (1, None] per the
    paper's footnote (Contains(...) = 1).
    """

    call: OperatorCall
    lower: Optional[Any] = None
    upper: Optional[Any] = None
    include_lower: bool = True
    include_upper: bool = True
    source: ast.Expr = None  # type: ignore[assignment]
    #: filled by :meth:`Planner._sarg_summary`, like :class:`Sarg`'s:
    #: the conjunct's position and the peeked values of ``call.args``
    conjunct: int = 0
    arg_values: Sequence[Any] = ()

    def pred_info(self) -> ODCIPredInfo:
        """The descriptor ODCIStats and ODCIIndexStart receive."""
        return ODCIPredInfo(
            operator_name=self.call.operator.name,
            lower_bound=self.lower, upper_bound=self.upper,
            include_lower=self.include_lower,
            include_upper=self.include_upper)


def extract_operator_pred(conjunct: ast.Expr) -> Optional[OperatorPred]:
    """Recognize an operator predicate conjunct, bare or bounded."""
    if isinstance(conjunct, OperatorCall):
        if conjunct.operator.is_ancillary:
            return None
        return OperatorPred(call=conjunct, lower=1, upper=None,
                            source=conjunct)
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _RELOP_FLIP:
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(right, OperatorCall) and isinstance(left, ast.Literal):
            left, right, op = right, left, _RELOP_FLIP[op]
        if isinstance(left, OperatorCall) and isinstance(right, ast.Literal) \
                and not left.operator.is_ancillary:
            value = right.value
            if op == "=":
                return OperatorPred(left, lower=value, upper=value,
                                    source=conjunct)
            if op == ">":
                return OperatorPred(left, lower=value, include_lower=False,
                                    source=conjunct)
            if op == ">=":
                return OperatorPred(left, lower=value, source=conjunct)
            if op == "<":
                return OperatorPred(left, upper=value, include_upper=False,
                                    source=conjunct)
            if op == "<=":
                return OperatorPred(left, upper=value, source=conjunct)
    return None


def extract_equijoin(conjunct: ast.Expr) -> Optional[Tuple[ast.ColumnRef,
                                                           ast.ColumnRef]]:
    """Recognize ``a.x = b.y`` between two different tables."""
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if (isinstance(left, ast.ColumnRef) and left.bound
                and isinstance(right, ast.ColumnRef) and right.bound
                and left.alias != right.alias):
            return left, right
    return None


# ---------------------------------------------------------------------------
# The access-path table
# ---------------------------------------------------------------------------

def _range_args(used: List[Sarg]) -> Dict[str, Any]:
    """B-tree bounds from one or two sargs (``=`` is both bounds, the
    same expression object: the executor's point probe)."""
    args: Dict[str, Any] = {}
    for sarg in used:
        if sarg.op in ("=", ">", ">="):
            args.update(low=sarg.value_expr, low_inclusive=sarg.op != ">")
        if sarg.op in ("=", "<", "<="):
            args.update(high=sarg.value_expr, high_inclusive=sarg.op != "<")
    return args


@dataclass(frozen=True)
class AccessPath:
    """One row of :data:`ACCESS_PATHS`: what a kind of indexed structure
    serves and what reaching a row through it costs."""

    #: plan-node class, and the node fields the consumed sargs fill
    node: type
    node_args: Callable[[list], Dict[str, Any]]
    #: the sarg shapes it serves (see :meth:`Planner._matches`)
    shapes: Tuple[str, ...]
    #: cost = startup + matched rows * (per_row + residual filter CPU)
    startup: float
    per_row: float
    #: its scan yields rowids for the batched base-table fetch
    rowid_source: bool = True
    #: a nested-loop join may probe it once per outer row
    join_probe: bool = False


#: ``IndexDef.kind`` (``"iot"``: an index-organized table's own key) →
#: the sarg shapes that structure serves and its cost constants.  Every
#: candidate the optimizer prices is a row of this table matched against
#: the statement's :class:`SargSummary` by the one loop in
#: :meth:`Planner._paths`; a new shape is a new entry here.
ACCESS_PATHS: Dict[str, AccessPath] = {
    "btree": AccessPath(BTreeScan, _range_args,
                        ("eq", "low", "high", "low+high"),
                        BTREE_DESCENT, FETCH_COST, join_probe=True),
    "hash": AccessPath(HashScan, lambda used: {"key": used[0].value_expr},
                       ("eq",), 1.0, FETCH_COST, join_probe=True),
    "bitmap": AccessPath(BitmapScan,
                         lambda used: {"keys": [used[0].value_expr]},
                         ("eq",), 1.0, FETCH_COST),
    "iot": AccessPath(IOTPrefixScan,
                      lambda used: {"key": [s.value_expr for s in used]},
                      ("eq-prefix",), BTREE_DESCENT, ROW_CPU,
                      rowid_source=False),
    "domain": AccessPath(DomainScan,
                         lambda used: {"operator_call": used[0].call,
                                       "pred_info": used[0].pred_info()},
                         ("op",), DOMAIN_SCAN_STARTUP,
                         FETCH_COST + DOMAIN_SCAN_PER_ROW, join_probe=True),
}

#: plan-node classes of the scans that hand the executor rowids to fetch
#: from the base table in batches; all but the domain scan get them by
#: probing one of the engine's own structures
ROWID_SCANS = tuple(path.node for path in ACCESS_PATHS.values()
                    if path.rowid_source)
NATIVE_INDEX_SCANS = tuple(node for node in ROWID_SCANS
                           if node is not DomainScan)

#: candidate order (the trace's, and the winner among equal costs):
#: one-conjunct shapes in conjunct order, then two-sided ranges, then
#: key prefixes; indexes in catalog order within each
_SHAPE_RANK = {"eq": 0, "low": 0, "high": 0, "op": 0,
               "low+high": 1, "eq-prefix": 2}


@dataclass
class SargSummary:
    """What one table's conjuncts offer its access paths: extracted,
    peeked and priced once per :meth:`Planner._access_path` call."""

    table: TableDef
    rows: float
    pages: float
    conjuncts: List[ast.Expr]
    #: per conjunct, what it contributes: its sargs (two for BETWEEN),
    #: or its one operator predicate, or nothing (a plain filter)
    parts: List[list] = field(default_factory=list)
    #: (column, "eq" | "low" | "high") → that column's sargs, in
    #: conjunct order
    sargs: Dict[Tuple[str, str], List[Sarg]] = field(default_factory=dict)
    #: operator predicates on a column of this table with constant
    #: value arguments: the index-evaluable ones
    op_preds: List[OperatorPred] = field(default_factory=list)
    #: conjunct position → selectivity, memoised on first use
    selectivity: Dict[int, float] = field(default_factory=dict)

    def residual(self, used: list) -> Optional[ast.Expr]:
        """The filter left once a path consumes ``used``.  A BETWEEN
        goes only when both of its bounds are consumed."""
        taken = [part.conjunct for part in used]
        return and_together(
            [c for i, c in enumerate(self.conjuncts)
             if taken.count(i) < max(1, len(self.parts[i]))])


def _numeric(value: Any) -> Optional[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _column_span(table: TableDef, sarg: Sarg):
    """ANALYZE's ``(stats, min, max)`` for the sarg's column; min/max
    are None unless both are numbers with min < max."""
    col_stats = table.stats.columns.get(sarg.column_ref.column or "") \
        if table.stats.analyzed else None
    if (col_stats is not None
            and isinstance(col_stats.min_value, (int, float))
            and isinstance(col_stats.max_value, (int, float))
            and col_stats.max_value > col_stats.min_value):
        return col_stats, col_stats.min_value, col_stats.max_value
    return col_stats, None, None


def _sarg_selectivity(table: TableDef, sarg: Sarg) -> float:
    col_stats, low, high = _column_span(table, sarg)
    if sarg.op == "=":
        if col_stats and col_stats.ndv > 0:
            return 1.0 / col_stats.ndv
        return DEFAULT_EQ_SELECTIVITY
    if sarg.op == "!=":
        return 1.0 - (1.0 / col_stats.ndv if col_stats and col_stats.ndv
                      else DEFAULT_EQ_SELECTIVITY)
    # range predicates: interpolate within [min, max] when ANALYZE
    # collected numeric bounds and the comparison value is known at
    # plan time (a literal, or a bind peeked from this execution)
    value = _numeric(sarg.value)
    if low is not None and value is not None:
        low, high = float(low), float(high)
        span = high - low
        if sarg.op in ("<", "<="):
            fraction = (value - low) / span
        else:  # > or >=
            fraction = (high - value) / span
        return min(1.0, max(0.0005, fraction))
    return DEFAULT_RANGE_SELECTIVITY


def _range_pair_selectivity(table: TableDef, low: Sarg, high: Sarg) -> float:
    """Selectivity of ``low AND high``, a lower and an upper bound
    on one column: the width of the interval over the column's
    ANALYZE'd span when both bounds are numbers known at plan time,
    else the product of the one-sided estimates."""
    __, col_min, col_max = _column_span(table, low)
    bounds = [_numeric(low.value), _numeric(high.value)]
    if col_min is not None and None not in bounds:
        width = min(bounds[1], col_max) - max(bounds[0], col_min)
        return min(1.0, max(0.0005, width / float(col_max - col_min)))
    return _sarg_selectivity(table, low) * _sarg_selectivity(table, high)


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------

class Planner:
    """Builds a :class:`QueryPlan` for a bound SELECT statement.

    ``db`` is the owning Database; the planner needs it to instantiate
    stats types and to record optimizer trace events.
    """

    def __init__(self, catalog: Catalog, db: Any):
        self.catalog = catalog
        self.db = db

    # -- uncorrelated subqueries --------------------------------------------

    def materialize_subqueries(self, expr: Optional[ast.Expr],
                               peek_binds: Optional[dict] = None
                               ) -> Optional[ast.Expr]:
        """Replace IN (SELECT ...) / EXISTS (SELECT ...) with their values.

        Subqueries in this dialect are uncorrelated, so they can be
        evaluated once up front: IN-subqueries become literal IN-lists,
        EXISTS becomes TRUE/FALSE.
        """
        if expr is None:
            return expr
        if isinstance(expr, ast.InSubquery):
            rows = self._run_subquery(expr.query, peek_binds,
                                      single_column=True)
            items: List[ast.Expr] = [ast.Literal(row[0]) for row in rows]
            if not items:
                # x IN (empty set) is FALSE; NOT IN (empty set) is TRUE
                return ast.Literal(not expr.negated
                                   if expr.negated else False)
            return ast.InListOp(operand=expr.operand, items=items,
                                negated=expr.negated)
        if isinstance(expr, ast.ExistsSubquery):
            rows = self._run_subquery(expr.query, peek_binds,
                                      single_column=False, limit_one=True)
            exists = bool(rows)
            return ast.Literal(exists if not expr.negated else not exists)
        if isinstance(expr, (ast.BoolOp, ast.BinaryOp)):
            expr.left = self.materialize_subqueries(expr.left, peek_binds)
            expr.right = self.materialize_subqueries(expr.right, peek_binds)
        elif isinstance(expr, (ast.NotOp, ast.UnaryMinus, ast.IsNullOp,
                               ast.InListOp)):
            expr.operand = self.materialize_subqueries(expr.operand,
                                                       peek_binds)
        return expr

    def _run_subquery(self, select: ast.Select, peek_binds: Optional[dict],
                      single_column: bool, limit_one: bool = False
                      ) -> List[Tuple[Any, ...]]:
        from repro.sql.executor import Executor  # executor imports us
        plan = self.plan_select(select, peek_binds)
        if single_column and len(plan.column_names) != 1:
            raise ExecutionError(
                "an IN subquery must select exactly one column, got "
                f"{plan.column_names}")
        rows_iter = Executor(self.db, peek_binds).run(plan)
        if limit_one:
            first = next(rows_iter, None)
            return [] if first is None else [first]
        return list(rows_iter)

    # -- entry point ----------------------------------------------------------

    def plan_select(self, select: ast.Select,
                    peek_binds: Optional[dict] = None) -> QueryPlan:
        """Bind and plan a SELECT.

        ``peek_binds`` (name → value) lets cost estimation see the bind
        values of the execution that triggered compilation, even though
        the plan tree itself keeps the BindParam placeholders; they are
        read while the sargs are extracted, so planning re-entered from a
        statistics callback or a subquery cannot disturb them.  An
        IN/EXISTS subquery runs here, with these values as its binds —
        which is why such a plan is never cached.
        """
        binds = peek_binds or {}
        if select.where is not None:
            select.where = self.materialize_subqueries(select.where, binds)
        if select.having is not None:
            select.having = self.materialize_subqueries(select.having, binds)
        scope_entries = []
        seen = set()
        for tref in select.tables:
            table = self.catalog.get_table(tref.name)
            binding = tref.binding_name
            if binding in seen:
                raise CatalogError(f"duplicate table binding {binding!r}")
            seen.add(binding)
            scope_entries.append((binding, table))
        scope = Scope(scope_entries)
        binder = Binder(self.catalog, scope)

        where = binder.bind(select.where) if select.where is not None else None
        group_by = [binder.bind(e) for e in select.group_by]
        having = binder.bind(select.having) if select.having is not None else None

        items = self._expand_items(select.items, scope, binder)
        order_by = [ast.OrderItem(self._bind_order_expr(o.expr, items,
                                                        binder),
                                  o.descending)
                    for o in select.order_by]

        conjuncts = split_conjuncts(where)
        root = self._plan_from_where(scope, conjuncts, select, binds)

        aggregates = self._collect_aggregates(items, having)
        if group_by or aggregates:
            node = GroupByNode(child=root, group_exprs=group_by,
                               aggregates=aggregates, having=having)
            node.est_rows = max(1.0, root.est_rows / 10.0)
            node.est_cost = root.est_cost + root.est_rows * CPU_PER_PREDICATE
            root = node

        if order_by:
            node = SortNode(child=root, order_items=order_by)
            node.est_rows = root.est_rows
            node.est_cost = root.est_cost + root.est_rows * CPU_PER_PREDICATE * 4
            root = node

        project = ProjectNode(child=root, items=[(e, n) for e, n in items])
        project.est_rows = root.est_rows
        project.est_cost = root.est_cost
        root = project

        if select.distinct:
            node = DistinctNode(child=root, items=project.items)
            node.est_rows = root.est_rows
            node.est_cost = root.est_cost + root.est_rows * CPU_PER_PREDICATE
            root = node

        if select.limit is not None or select.offset is not None:
            node = LimitNode(child=root, limit=select.limit,
                             offset=select.offset)
            node.est_rows = min(root.est_rows, select.limit or root.est_rows)
            node.est_cost = root.est_cost
            root = node

        plan = QueryPlan(root=root, column_names=[n for _, n in items],
                         scope=scope, source=select)
        # lower row expressions and batch kernels once, at plan time, so
        # the artifacts ride the shared plan cache across sessions
        from repro.sql.compile import compile_plan
        compile_plan(plan, self.catalog)
        return plan

    # -- select list -----------------------------------------------------------

    def _expand_items(self, raw_items, scope: Scope,
                      binder: Binder) -> List[Tuple[ast.Expr, str]]:
        items: List[Tuple[ast.Expr, str]] = []
        for item in raw_items:
            if isinstance(item.expr, ast.Star):
                star: ast.Star = item.expr
                for binding, table in scope.entries:
                    if star.alias is not None \
                            and star.alias.lower() != binding:
                        continue
                    for col in table.columns:
                        ref = ast.ColumnRef(path=[binding, col.name.lower()])
                        items.append((binder.bind(ref), col.name.lower()))
                continue
            expr = binder.bind(item.expr)
            name = item.alias
            if name is None:
                if isinstance(expr, ast.ColumnRef):
                    name = expr.column or expr.display()
                elif isinstance(expr, AggregateCall):
                    name = expr.func
                elif isinstance(expr, OperatorCall):
                    name = expr.operator.name.lower().split(".")[-1]
                elif isinstance(expr, ast.FuncCall):
                    name = expr.name.lower().split(".")[-1]
                else:
                    name = f"col{len(items) + 1}"
            items.append((expr, name.lower()))
        if not items:
            raise ExecutionError("empty select list")
        return items

    def _bind_order_expr(self, expr: ast.Expr,
                         items: List[Tuple[ast.Expr, str]],
                         binder: Binder) -> ast.Expr:
        """Resolve an ORDER BY expression: positions and select aliases.

        ``ORDER BY 2`` sorts by the second select item; ``ORDER BY len``
        resolves against a select alias before falling back to columns.
        """
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
                and not isinstance(expr.value, bool):
            position = expr.value
            if not 1 <= position <= len(items):
                raise ExecutionError(
                    f"ORDER BY position {position} is out of range "
                    f"(1..{len(items)})")
            return items[position - 1][0]
        if isinstance(expr, ast.ColumnRef) and len(expr.path) == 1:
            alias = expr.path[0].lower()
            try:
                return binder.bind(expr)
            except CatalogError:
                for item_expr, name in items:
                    if name == alias:
                        return item_expr
                raise
        return binder.bind(expr)

    def _collect_aggregates(self, items, having) -> List[AggregateCall]:
        aggregates: List[AggregateCall] = []

        def walk(node: ast.Expr) -> None:
            if isinstance(node, AggregateCall):
                aggregates.append(node)
            else:
                for child in child_exprs(node):
                    walk(child)

        for expr, _ in items:
            walk(expr)
        if having is not None:
            walk(having)
        return aggregates

    # -- FROM/WHERE planning -----------------------------------------------------

    def _plan_from_where(self, scope: Scope, conjuncts: List[ast.Expr],
                         select: ast.Select, binds: dict) -> PlanNode:
        per_table: dict = {binding: [] for binding, _ in scope.entries}
        multi: List[ast.Expr] = []  # join and constant predicates
        for conjunct in conjuncts:
            aliases = referenced_aliases(conjunct)
            if len(aliases) == 1:
                per_table[next(iter(aliases))].append(conjunct)
            else:
                multi.append(conjunct)

        first_rows = select.limit is not None

        base_plans = {binding: self._access_path(
            table, binding, per_table[binding], first_rows, binds)
            for binding, table in scope.entries}

        if len(scope.entries) == 1:
            plan = base_plans[scope.entries[0][0]]
            if multi:
                plan = self._wrap_filter(plan, and_together(multi))
            return plan
        return self._plan_joins(scope, base_plans, multi, binds)

    def _wrap_filter(self, plan: PlanNode, predicate: Optional[ast.Expr]
                     ) -> PlanNode:
        if predicate is None:
            return plan
        node = FilterNode(child=plan, predicate=predicate)
        node.est_rows = max(1.0, plan.est_rows * 0.5)
        node.est_cost = plan.est_cost + plan.est_rows * self._filter_cost(
            predicate)
        return node

    # -- single-table access paths --------------------------------------------

    def _table_stats(self, table: TableDef) -> Tuple[float, float]:
        source = table.stats if table.stats.analyzed else table.storage
        return float(source.row_count), float(max(1, source.page_count))

    def _filter_cost(self, predicate: Optional[ast.Expr]) -> float:
        """Per-row CPU cost of evaluating ``predicate``."""
        if predicate is None:
            return 0.0
        cost = CPU_PER_PREDICATE

        def walk(node: ast.Expr) -> None:
            nonlocal cost
            if isinstance(node, (OperatorCall, ast.FuncCall)):
                cost += self._call_cost(node)
                for arg in node.args:
                    walk(arg)
            elif isinstance(node, (ast.BinaryOp, ast.BoolOp)):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, (ast.NotOp, ast.UnaryMinus, ast.IsNullOp)):
                walk(node.operand)
            elif isinstance(node, ast.BetweenOp):
                walk(node.operand)

        walk(predicate)
        return cost

    def _call_cost(self, call: Any) -> float:
        """Per-row cost of a plain function call or of an operator's
        functional implementation: ODCIStatsFunctionCost when a
        statistics type is associated (with the function, or through the
        operator's indextype), else the registered function's cost."""
        functions = self.catalog.functions
        if isinstance(call, OperatorCall):
            name, bindings = call.operator.name, call.operator.bindings
            stats = self._stats_for_operator(call.operator)
            fn = functions.get(bindings[0].function_name.lower()) \
                if bindings else None
        else:
            name, key = call.name, call.name.lower()
            stats_name = self.catalog.function_stats.get(key) \
                or self.catalog.function_stats.get(key.split(".")[-1])
            stats = self.catalog.get_stats_type(stats_name)() \
                if stats_name is not None else None
            fn = functions.get(key)
        if stats is not None:
            cost = self._dispatch_stats("ODCIStatsFunctionCost",
                                        stats.function_cost, name, call.args,
                                        self.db.make_stats_env())
            if cost is not None:
                return cost
        return fn.cost if fn is not None else DEFAULT_FUNCTION_COST

    def _sarg_summary(self, table: TableDef, binding: str,
                      conjuncts: List[ast.Expr], binds: dict,
                      outer: frozenset = frozenset()) -> SargSummary:
        """Run the extractors over each conjunct once, peeking every
        plan-time value now: a statistics routine's callback SQL may
        re-enter the planner before the estimates are read.  ``outer``
        (a join's already-joined bindings) makes their columns constants
        — the sargs an inner-table probe sees per outer row."""
        summary = SargSummary(table, *self._table_stats(table), conjuncts)
        for i, conjunct in enumerate(conjuncts):
            parts: list = extract_sargs(conjunct, outer)
            for sarg in parts:
                sarg.conjunct, sarg.value = i, _peek(sarg.value_expr, binds)
                if sarg.column_ref.alias == binding and sarg.op in _SIDE:
                    summary.sargs.setdefault(
                        (sarg.column_ref.column or "", _SIDE[sarg.op]),
                        []).append(sarg)
            pred = None if parts else extract_operator_pred(conjunct)
            if pred is not None:
                parts = [pred]
                args = pred.call.args
                pred.conjunct = i
                pred.arg_values = [_peek(arg, binds) for arg in args]
                if args and isinstance(args[0], ast.ColumnRef) \
                        and args[0].bound and args[0].alias == binding \
                        and all(_is_constant(arg, outer)
                                for arg in pred.call.value_args):
                    summary.op_preds.append(pred)
            summary.parts.append(parts)
        return summary

    def _selectivity(self, summary: SargSummary, i: int) -> float:
        """Selectivity of conjunct ``i``, computed (and for an operator
        predicate, asked of its ODCIStats type) once per summary."""
        sel = summary.selectivity.get(i)
        if sel is None:
            parts = summary.parts[i]
            if not parts:
                sel = 0.5
            elif isinstance(parts[0], OperatorPred):
                sel = self._operator_selectivity(parts[0])
            elif len(parts) == 2:  # BETWEEN
                sel = _range_pair_selectivity(summary.table, *parts)
            else:
                sel = _sarg_selectivity(summary.table, parts[0])
            summary.selectivity[i] = sel
        return sel

    def _matches(self, summary: SargSummary, shape: str,
                 columns: Sequence[str]) -> Iterator[Tuple[list, float]]:
        """Each way the summary offers ``shape`` to a structure keyed on
        ``columns``: the sargs (or operator predicate) it would consume
        and the rows they match."""
        rows, lead = summary.rows, columns[0]
        if shape in ("eq", "low", "high"):
            # one comparison on the leading column; a BETWEEN's halves
            # are only ever served together
            for sarg in summary.sargs.get((lead, shape), ()):
                if len(summary.parts[sarg.conjunct]) == 1:
                    yield [sarg], rows * self._selectivity(summary,
                                                           sarg.conjunct)
        elif shape == "low+high":
            # the column's first lower and first upper bound — two
            # conjuncts or one BETWEEN — as one scan that stops at the
            # upper bound; further bounds stay in the residual
            low = summary.sargs.get((lead, "low"))
            high = summary.sargs.get((lead, "high"))
            if low and high:
                yield [low[0], high[0]], rows * _range_pair_selectivity(
                    summary.table, low[0], high[0])
        elif shape == "eq-prefix":
            # equalities on the leading k key columns; a full key is one
            # descent to at most one row
            used: List[Sarg] = []
            for column in columns:
                eq = summary.sargs.get((column, "eq"))
                if not eq:
                    break
                used.append(eq[0])
                rows *= self._selectivity(summary, eq[0].conjunct)
            if used:
                yield used, 1.0 if len(used) == len(columns) else rows
        elif shape == "op":
            for pred in summary.op_preds:
                if pred.call.args[0].column in columns:
                    yield [pred], rows * self._selectivity(summary,
                                                           pred.conjunct)

    def _paths(self, table: TableDef, summary: SargSummary, scope: Scope,
               notes: List[str]) -> List[Tuple[AccessPath, Optional[IndexDef],
                                               str, list, float]]:
        """The one matcher: every ``(path, index, shape, consumed,
        matched rows)`` the table's structures serve of what ``summary``
        offers, in candidate order.  A domain index is asked whether its
        indextype supports the operator for these argument types; one
        that would serve but is not VALID leaves a ``FUNCTIONAL`` note
        instead (the operator degrades to functional evaluation, §2.6).
        """
        structures = [(index.kind, index, index.column_names)
                      for index in self.catalog.indexes_on(table.name)]
        if table.is_iot and table.primary_key:
            structures.append(("iot", None, table.primary_key))
        found = []
        for kind, index, columns in structures:
            path = ACCESS_PATHS[kind]
            columns = [column.lower() for column in columns]
            for shape in path.shapes:
                for used, matched in self._matches(summary, shape, columns):
                    if kind == "domain" and not self._domain_serves(
                            index, used[0].call, scope, notes):
                        continue
                    found.append((path, index, shape, used, matched))
        found.sort(key=lambda m: (_SHAPE_RANK[m[2]], m[3][0].conjunct))
        return found

    def _domain_serves(self, index: IndexDef, call: OperatorCall,
                       scope: Scope, notes: List[str]) -> bool:
        indextype = self.catalog.get_indextype(index.domain.indextype_name)
        arg_types = [static_type(arg, scope, self.catalog)
                     for arg in call.args]
        name = call.operator.name
        if not indextype.supports(name.split(".")[-1], arg_types) \
                and not indextype.supports(name, arg_types):
            return False
        if not index.domain.valid:
            note = f"FUNCTIONAL (index {index.name} {index.domain.state.value})"
            if note not in notes:
                notes.append(note)
            return False
        return True

    def _access_path(self, table: TableDef, binding: str,
                     conjuncts: List[ast.Expr], first_rows: bool,
                     binds: Optional[dict] = None) -> PlanNode:
        """Price the full scan and every :data:`ACCESS_PATHS` candidate
        the conjuncts offer; the cheapest wins."""
        summary = self._sarg_summary(table, binding, conjuncts, binds or {})
        rows, pages = summary.rows, summary.pages

        # baseline: full scan with all conjuncts as filter
        full = FullScan(table=table, binding_name=binding,
                        filter=and_together(conjuncts))
        sel_all = 1.0
        for i in range(len(conjuncts)):
            sel_all *= self._selectivity(summary, i)
        full.est_rows = max(1.0, rows * sel_all) if conjuncts else max(rows, 1.0)
        full.est_cost = pages + rows * (ROW_CPU
                                        + self._filter_cost(full.filter))
        candidates: List[PlanNode] = [full]
        notes: List[str] = []

        for path, index, __, used, matched in self._paths(
                table, summary, Scope([(binding, table)]), notes):
            fields = path.node_args(used)
            if index is not None:
                fields["index"] = index
            node = path.node(table=table, binding_name=binding,
                             filter=summary.residual(used), **fields)
            node.est_rows = max(1.0, matched)
            if isinstance(node, DomainScan):
                # the cartridge prices its own scan (ODCIStatsIndexCost)
                pred = used[0]
                node.first_rows = first_rows
                node.est_cost = self._domain_scan_cost(
                    index, node.pred_info,
                    self._selectivity(summary, pred.conjunct), matched,
                    pred.arg_values) \
                    + node.est_rows * self._filter_cost(node.filter)
            else:
                node.est_cost = path.startup + matched * (
                    path.per_row + self._filter_cost(node.filter))
            candidates.append(node)

        best = min(candidates, key=lambda c: c.est_cost)
        if not isinstance(best, DomainScan):
            # make the degradation visible: the operator predicate will
            # run through its functional implementation because every
            # matching domain index is sidelined
            best.annotations.extend(notes)
        if self.db.trace_log is not None:
            for cand in candidates:
                marker = "*" if cand is best else " "
                self.db.trace_log.append(
                    f"optimizer:candidate{marker} {cand.label()} "
                    f"cost={cand.est_cost:.2f}")
        return best

    def _stats_for_operator(self, operator):
        """StatsMethods instance for an operator via its indextypes."""
        for indextype in self.catalog.indextypes.values():
            if indextype.stats_name and indextype.supports(
                    operator.name.split(".")[-1]):
                return self.catalog.get_stats_type(indextype.stats_name)()
        return None

    def _dispatch_stats(self, routine: str, fn, *args, index_name: str = ""):
        """Invoke an ODCIStats routine, degrading failures to None.

        None makes the caller fall back to its documented default
        selectivity/cost heuristic — a broken statistics type must
        never abort planning (§2.4.2).  Routed through the dispatcher
        (metrics + fault injection).
        """
        return self.db.dispatcher.call_degraded(
            routine, fn, *args, index_name=index_name, phase="plan")

    def _operator_selectivity(self, op_pred: OperatorPred) -> float:
        stats = self._stats_for_operator(op_pred.call.operator)
        if stats is not None:
            env = self.db.make_stats_env()
            env.trace(f"optimizer:ODCIStatsSelectivity("
                      f"{op_pred.call.operator.name})")
            sel = self._dispatch_stats("ODCIStatsSelectivity",
                                       stats.selectivity,
                                       op_pred.pred_info(),
                                       list(op_pred.arg_values), env)
            if sel is not None:
                return min(1.0, max(0.0, sel))
        return DEFAULT_OPERATOR_SELECTIVITY

    def _domain_scan_cost(self, index: IndexDef, pred_info: ODCIPredInfo,
                          sel: float, matched: float,
                          arg_values: Sequence[Any]) -> float:
        """Cost of reaching ``matched`` rows through a domain index: the
        indextype's ODCIStatsIndexCost when it has a statistics type,
        else the ``"domain"`` row of :data:`ACCESS_PATHS`."""
        indextype = self.catalog.get_indextype(index.domain.indextype_name)
        if indextype.stats_name:
            stats = self.catalog.get_stats_type(indextype.stats_name)()
            env = self.db.make_stats_env(index.domain)
            env.trace(f"optimizer:ODCIStatsIndexCost({index.name})")
            cost = self._dispatch_stats("ODCIStatsIndexCost",
                                        stats.index_cost,
                                        index.domain.index_info(), pred_info,
                                        sel, list(arg_values), env,
                                        index_name=index.name)
            if cost is not None:
                return cost.total
        path = ACCESS_PATHS["domain"]
        return path.startup + matched * path.per_row

    # -- joins -------------------------------------------------------------------

    def _plan_joins(self, scope: Scope, base_plans: dict,
                    multi: List[ast.Expr], binds: dict) -> PlanNode:
        remaining_bindings = [binding for binding, _ in scope.entries]
        remaining_bindings.sort(key=lambda b: base_plans[b].est_rows)
        pending = list(multi)

        current_binding = remaining_bindings.pop(0)
        plan = base_plans[current_binding]
        joined = {current_binding}

        while remaining_bindings:
            next_binding, join_conjuncts = self._pick_next(
                remaining_bindings, joined, pending)
            remaining_bindings.remove(next_binding)
            for conjunct in join_conjuncts:
                pending.remove(conjunct)
            plan = self._join_step(scope, binds, plan, joined, next_binding,
                                   base_plans[next_binding], join_conjuncts)
            joined.add(next_binding)
            # attach any now-answerable pending predicates
            ready = [c for c in pending
                     if referenced_aliases(c) <= joined]
            for conjunct in ready:
                pending.remove(conjunct)
            plan = self._wrap_filter(plan, and_together(ready))
        if pending:
            plan = self._wrap_filter(plan, and_together(pending))
        return plan

    def _pick_next(self, remaining: List[str], joined: set,
                   pending: List[ast.Expr]) -> Tuple[str, List[ast.Expr]]:
        # prefer a table connected by a join predicate to the joined set
        for binding in remaining:
            conjuncts = [c for c in pending
                         if referenced_aliases(c) <= joined | {binding}
                         and binding in referenced_aliases(c)]
            if conjuncts:
                return binding, conjuncts
        return remaining[0], []

    def _join_probe(self, scope: Scope, binds: dict, notes: List[str],
                    binding: str, conjuncts: List[ast.Expr], joined: set,
                    shape: str) -> Optional[Tuple[IndexDef, Any, float]]:
        """What a nested-loop join probes ``binding`` through per outer
        row: the first :data:`ACCESS_PATHS` candidate declared
        ``join_probe`` that serves ``shape`` for one of the join
        conjuncts — the single-table matcher, with the joined tables'
        columns as constants.  Returns ``(index, consumed sarg or
        operator predicate, its selectivity)``."""
        table = scope.table_for_alias(binding)
        summary = self._sarg_summary(table, binding, conjuncts, binds,
                                     frozenset(joined))
        for path, index, found, used, __ in self._paths(
                table, summary, scope, notes):
            if path.join_probe and found == shape:
                return index, used[0], self._selectivity(summary,
                                                         used[0].conjunct)
        return None

    def _join_step(self, scope: Scope, binds: dict, outer: PlanNode,
                   joined: set, inner_binding: str, inner_plan: PlanNode,
                   conjuncts: List[ast.Expr]) -> PlanNode:
        equi_pairs = []
        equi_conjuncts: List[ast.Expr] = []
        residual: List[ast.Expr] = []
        for conjunct in conjuncts:
            pair = extract_equijoin(conjunct)
            if pair is not None:
                left, right = pair
                if left.alias == inner_binding:
                    left, right = right, left
                if left.alias in joined and right.alias == inner_binding:
                    equi_pairs.append((left, right))
                    equi_conjuncts.append(conjunct)
                    continue
            residual.append(conjunct)

        condition = and_together(residual)

        if equi_pairs:
            # a small outer probes the inner table per row when a declared
            # join-probe path serves the first equality; the rest filter
            small_outer = outer.est_rows <= max(
                4.0, 0.2 * max(inner_plan.est_rows, 1.0))
            probe = self._join_probe(scope, binds, [], inner_binding,
                                     equi_conjuncts[:1], joined, "eq") \
                if small_outer and isinstance(inner_plan, FullScan) else None
            if probe is not None:
                node = IndexedNLJoin(outer=outer,
                                     inner_table=inner_plan.table,
                                     inner_binding=inner_binding,
                                     index=probe[0],
                                     outer_key=equi_pairs[0][0],
                                     condition=and_together(
                                         residual + equi_conjuncts[1:]),
                                     inner_filter=inner_plan.filter)
                node.est_rows = max(1.0, outer.est_rows)
                node.est_cost = (outer.est_cost
                                 + outer.est_rows * (BTREE_DESCENT + 1.0))
                return node
            node = HashJoin(left=outer, right=inner_plan,
                            left_keys=[lk for lk, _ in equi_pairs],
                            right_keys=[rk for _, rk in equi_pairs],
                            condition=condition)
            node.est_rows = max(1.0, max(outer.est_rows, inner_plan.est_rows))
            node.est_cost = (outer.est_cost + inner_plan.est_cost
                             + outer.est_rows * CPU_PER_PREDICATE
                             + inner_plan.est_rows * CPU_PER_PREDICATE)
            return node

        notes: List[str] = []
        domain_join = self._try_domain_join(scope, binds, notes, outer,
                                            inner_binding, inner_plan,
                                            residual, joined)
        if domain_join is not None:
            return domain_join
        # the indexed column may be on the other side: swap roles when
        # the current outer is a single base-table scan
        if isinstance(outer, (FullScan,) + NATIVE_INDEX_SCANS) \
                and len(joined) == 1:
            swapped = self._try_domain_join(
                scope, binds, notes, inner_plan, outer.binding_name, outer,
                residual, {inner_binding})
            if swapped is not None:
                return swapped

        node = NestedLoopJoin(outer=outer, inner=inner_plan,
                              condition=condition)
        # the join predicate's operator runs functionally when the
        # domain index that would have served it is sidelined
        node.annotations.extend(notes)
        node.est_rows = max(1.0, outer.est_rows * inner_plan.est_rows
                            * (0.1 if condition is not None else 1.0))
        node.est_cost = (outer.est_cost
                         + outer.est_rows * max(inner_plan.est_cost, 0.1))
        return node

    def _try_domain_join(self, scope: Scope, binds: dict, notes: List[str],
                         outer: PlanNode, inner_binding: str,
                         inner_plan: PlanNode, residual: List[ast.Expr],
                         joined: set) -> Optional[DomainNLJoin]:
        """An operator join predicate a domain index on the inner table
        serves (see :meth:`_join_probe`): probe it per outer row."""
        probe = self._join_probe(scope, binds, notes, inner_binding,
                                 residual, joined, "op")
        if probe is None:
            return None
        index, op_pred, sel = probe
        node = DomainNLJoin(
            outer=outer, inner_table=scope.table_for_alias(inner_binding),
            inner_binding=inner_binding, index=index,
            operator_call=op_pred.call,
            lower=op_pred.lower, upper=op_pred.upper,
            include_lower=op_pred.include_lower,
            include_upper=op_pred.include_upper,
            condition=and_together([c for c in residual
                                    if c is not op_pred.source]),
            inner_filter=inner_plan.filter
            if isinstance(inner_plan, FullScan) else None)
        inner_rows = max(inner_plan.est_rows, 1.0)
        node.est_rows = max(1.0, outer.est_rows * inner_rows * sel)
        node.est_cost = (outer.est_cost + outer.est_rows
                         * (DOMAIN_SCAN_STARTUP + inner_rows * sel))
        return node
