"""Expression binding and evaluation.

Binding resolves raw parser output against a FROM-clause scope and the
catalog: dotted paths become (alias, column, attribute-path) references,
and ``FuncCall`` nodes are classified as aggregates, user-defined
*operators* (the paper's schema objects), or plain functions.

Evaluation implements SQL semantics (three-valued logic, NULL
propagation) over a :class:`RowContext`.  User-defined operators are
evaluated *functionally* here — by invoking the bound function — which is
exactly the paper's default path; the planner may instead satisfy the
predicate with a domain-index scan, in which case the executor never
calls back into this evaluator for that conjunct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.operators import Operator
from repro.errors import CatalogError, ExecutionError, TypeMismatchError
from repro.sql import ast_nodes as ast
from repro.sql.catalog import Catalog, TableDef
from repro.types.datatypes import (
    ANY, BOOLEAN, DataType, INTEGER, NUMBER, VARCHAR2)
from repro.types.objects import ObjectValue
from repro.types.values import (
    NULL, is_null, sql_and, sql_compare, sql_eq, sql_like, sql_not, sql_or,
    sql_truth)

AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


# ---------------------------------------------------------------------------
# Bound expression nodes (produced by the binder, unknown to the parser)
# ---------------------------------------------------------------------------

@dataclass
class OperatorCall(ast.Expr):
    """A bound call of a user-defined operator.

    ``label`` carries the ancillary linkage literal (the ``1`` in
    ``Contains(resume, 'x', 1)`` / ``Score(1)``) when present.
    """

    operator: Operator
    args: List[ast.Expr]
    label: Optional[int] = None

    @property
    def value_args(self) -> List[ast.Expr]:
        """The arguments after the indexed column, minus a trailing
        ancillary label: what a domain index scan is started with."""
        args = self.args[1:]
        return args[:-1] if self.label is not None else args

    def __repr__(self) -> str:
        return f"OperatorCall({self.operator.name}, label={self.label})"


@dataclass
class AggregateCall(ast.Expr):
    """A bound aggregate (COUNT/SUM/AVG/MIN/MAX)."""

    func: str  # lower-cased
    arg: Optional[ast.Expr]  # None for COUNT(*)
    distinct: bool = False

    def __repr__(self) -> str:
        arg = "*" if self.arg is None else repr(self.arg)
        return f"Agg({self.func}({arg}))"


# ---------------------------------------------------------------------------
# Row context
# ---------------------------------------------------------------------------

@dataclass
class RowContext:
    """Values visible to expression evaluation for one candidate row.

    ``values`` maps (alias, column) → value; ``rowids`` maps alias →
    RowId; ``aux`` maps ancillary label → auxiliary value produced by a
    domain-index scan or a functional primary-operator evaluation.
    """

    values: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    rowids: Dict[str, Any] = field(default_factory=dict)
    aux: Dict[int, Any] = field(default_factory=dict)
    #: aggregate-result values keyed by :func:`aggregate_key` (group output)
    agg: Dict[str, Any] = field(default_factory=dict)

    def merged_with(self, other: "RowContext") -> "RowContext":
        """Join contexts (left ∪ right) for join nodes."""
        merged = RowContext(dict(self.values), dict(self.rowids),
                            dict(self.aux), dict(self.agg))
        merged.values.update(other.values)
        merged.rowids.update(other.rowids)
        merged.aux.update(other.aux)
        merged.agg.update(other.agg)
        return merged


def aggregate_key(call: "AggregateCall") -> str:
    """Stable identity of an aggregate within one query (group lookup)."""
    arg = "*" if call.arg is None else repr(call.arg)
    return f"{call.func}|{int(call.distinct)}|{arg}"


def value_datatype(value: Any) -> DataType:
    """Best-effort runtime type of a Python value (binding resolution)."""
    if is_null(value):
        return ANY
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return NUMBER
    if isinstance(value, str):
        return VARCHAR2
    if isinstance(value, ObjectValue):
        return value.object_type
    return ANY


# ---------------------------------------------------------------------------
# Binder
# ---------------------------------------------------------------------------

class Scope:
    """The FROM-clause name scope: binding name → table definition."""

    def __init__(self, entries: Sequence[Tuple[str, TableDef]]):
        self.entries: List[Tuple[str, TableDef]] = [
            (name.lower(), table) for name, table in entries]
        self._by_name = dict(self.entries)

    def table_for_alias(self, alias: str) -> Optional[TableDef]:
        return self._by_name.get(alias.lower())

    def resolve_column(self, column: str) -> Optional[Tuple[str, TableDef]]:
        """Find the unique table exposing ``column`` (None if 0, error if >1)."""
        matches = []
        for name, table in self.entries:
            try:
                table.column_position(column)
            except CatalogError:
                continue
            matches.append((name, table))
        if not matches:
            return None
        if len(matches) > 1:
            raise CatalogError(
                f"column {column!r} is ambiguous across "
                f"{[name for name, _ in matches]}")
        return matches[0]


class Binder:
    """Resolves names in an expression tree against a scope + catalog."""

    def __init__(self, catalog: Catalog, scope: Scope):
        self.catalog = catalog
        self.scope = scope

    # -- lookups tolerant of schema qualification --------------------------

    def find_operator(self, name: str) -> Optional[Operator]:
        key = name.lower()
        if key in self.catalog.operators:
            return self.catalog.operators[key]
        tail = key.split(".")[-1]
        matches = [op for opkey, op in self.catalog.operators.items()
                   if opkey.split(".")[-1] == tail]
        if len(matches) == 1:
            return matches[0]
        return None

    def find_function(self, name: str):
        key = name.lower()
        if key in self.catalog.functions:
            return self.catalog.functions[key]
        tail = key.split(".")[-1]
        matches = [fn for fnkey, fn in self.catalog.functions.items()
                   if fnkey.split(".")[-1] == tail]
        if len(matches) == 1:
            return matches[0]
        return None

    # -- binding ---------------------------------------------------------------

    def bind(self, expr: ast.Expr) -> ast.Expr:
        """Return the bound version of ``expr`` (rewrites in place or anew)."""
        if isinstance(expr, ast.Literal):
            return expr
        if isinstance(expr, ast.Star):
            return expr
        if isinstance(expr, ast.ColumnRef):
            return self._bind_column(expr)
        if isinstance(expr, ast.FuncCall):
            return self._bind_call(expr)
        if isinstance(expr, ast.BinaryOp):
            expr.left = self.bind(expr.left)
            expr.right = self.bind(expr.right)
            return expr
        if isinstance(expr, ast.BoolOp):
            expr.left = self.bind(expr.left)
            expr.right = self.bind(expr.right)
            return expr
        if isinstance(expr, ast.NotOp):
            expr.operand = self.bind(expr.operand)
            return expr
        if isinstance(expr, ast.UnaryMinus):
            expr.operand = self.bind(expr.operand)
            return expr
        if isinstance(expr, ast.IsNullOp):
            expr.operand = self.bind(expr.operand)
            return expr
        if isinstance(expr, ast.LikeOp):
            expr.operand = self.bind(expr.operand)
            expr.pattern = self.bind(expr.pattern)
            return expr
        if isinstance(expr, ast.BetweenOp):
            expr.operand = self.bind(expr.operand)
            expr.low = self.bind(expr.low)
            expr.high = self.bind(expr.high)
            return expr
        if isinstance(expr, ast.InListOp):
            expr.operand = self.bind(expr.operand)
            expr.items = [self.bind(item) for item in expr.items]
            return expr
        if isinstance(expr, ast.BindParam):
            return expr  # resolved at execution time from the bind set
        if isinstance(expr, (OperatorCall, AggregateCall)):
            return expr  # already bound
        raise ExecutionError(f"cannot bind expression {expr!r}")

    def _bind_column(self, ref: ast.ColumnRef) -> ast.ColumnRef:
        if ref.bound:
            return ref
        path = ref.path
        head = path[0].lower()
        table = self.scope.table_for_alias(head)
        if table is not None and len(path) >= 2:
            ref.alias = head
            ref.column = path[1].lower()
            ref.attr_path = [p.lower() for p in path[2:]]
            if ref.column != "rowid":  # rowid is a pseudo-column
                table.column_position(ref.column)  # validates
            return ref
        if head == "rowid" and len(self.scope.entries) == 1:
            ref.alias = self.scope.entries[0][0]
            ref.column = "rowid"
            ref.attr_path = [p.lower() for p in path[1:]]
            return ref
        resolved = self.scope.resolve_column(path[0])
        if resolved is None:
            raise CatalogError(f"cannot resolve column reference "
                               f"{ref.display()!r}")
        ref.alias = resolved[0]
        ref.column = path[0].lower()
        ref.attr_path = [p.lower() for p in path[1:]]
        return ref

    def _bind_call(self, call: ast.FuncCall) -> ast.Expr:
        name = call.name.lower()
        if name in AGGREGATE_NAMES:
            if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
                if name != "count":
                    raise ExecutionError(f"{call.name}(*) is not valid")
                return AggregateCall(func="count", arg=None,
                                     distinct=call.distinct)
            if len(call.args) != 1:
                raise ExecutionError(
                    f"aggregate {call.name} takes exactly one argument")
            return AggregateCall(func=name, arg=self.bind(call.args[0]),
                                 distinct=call.distinct)
        operator = self.find_operator(call.name)
        if operator is not None:
            args = [self.bind(a) for a in call.args]
            label = self._ancillary_label(operator, args)
            return OperatorCall(operator=operator, args=args, label=label)
        function = self.find_function(call.name)
        if function is not None:
            call.args = [self.bind(a) for a in call.args]
            return call
        raise CatalogError(
            f"no such function or operator {call.name!r}")

    def _ancillary_label(self, operator: Operator,
                         args: List[ast.Expr]) -> Optional[int]:
        """Extract the ancillary linkage label, when present.

        For an ancillary operator (Score), the single int-literal arg is
        the label.  For a primary operator that has ancillary partners,
        a trailing int literal beyond the binding's declared arity is
        the label.
        """
        if operator.is_ancillary:
            if len(args) == 1 and isinstance(args[0], ast.Literal) \
                    and isinstance(args[0].value, int):
                return args[0].value
            raise ExecutionError(
                f"ancillary operator {operator.name} requires a single "
                "integer label argument")
        has_partners = any(
            op.ancillary_to and op.ancillary_to.lower().split(".")[-1]
            == operator.key.split(".")[-1]
            for op in self.catalog.operators.values())
        if not has_partners or not operator.bindings:
            return None
        declared = min(len(b.arg_types) for b in operator.bindings)
        if len(args) == declared + 1 and isinstance(args[-1], ast.Literal) \
                and isinstance(args[-1].value, int):
            return args[-1].value
        return None


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

class Evaluator:
    """Evaluates bound expressions against row contexts.

    ``binds`` maps bind-parameter name → value for the current
    execution.  Cached plans keep :class:`~repro.sql.ast_nodes.BindParam`
    nodes in the tree, so each execution supplies its own values here
    instead of rewriting the (shared) plan.
    """

    def __init__(self, catalog: Catalog,
                 binds: Optional[Dict[str, Any]] = None):
        self.catalog = catalog
        self.binds = binds or {}

    def evaluate(self, expr: ast.Expr, ctx: RowContext) -> Any:
        """SQL-evaluate ``expr``; returns a value or NULL."""
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.BindParam):
            key = expr.name.lower()
            if key not in self.binds:
                raise ExecutionError(
                    f"no value supplied for bind :{expr.name}")
            return self.binds[key]
        if isinstance(expr, ast.ColumnRef):
            return self._column_value(expr, ctx)
        if isinstance(expr, OperatorCall):
            return self._operator_value(expr, ctx)
        if isinstance(expr, ast.FuncCall):
            return self._function_value(expr, ctx)
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr, ctx)
        if isinstance(expr, ast.BoolOp):
            left = self.truth(expr.left, ctx)
            right_lazy = expr.right
            if expr.op == "AND":
                if left is False:
                    return False
                return sql_and(left, self.truth(right_lazy, ctx))
            if left is True:
                return True
            return sql_or(left, self.truth(right_lazy, ctx))
        if isinstance(expr, ast.NotOp):
            return sql_not(self.truth(expr.operand, ctx))
        if isinstance(expr, ast.UnaryMinus):
            value = self.evaluate(expr.operand, ctx)
            if is_null(value):
                return NULL
            return -value
        if isinstance(expr, ast.IsNullOp):
            value = self.evaluate(expr.operand, ctx)
            result = is_null(value)
            return not result if expr.negated else result
        if isinstance(expr, ast.LikeOp):
            result = sql_like(self.evaluate(expr.operand, ctx),
                              self.evaluate(expr.pattern, ctx))
            return sql_not(result) if expr.negated else result
        if isinstance(expr, ast.BetweenOp):
            value = self.evaluate(expr.operand, ctx)
            low = self.evaluate(expr.low, ctx)
            high = self.evaluate(expr.high, ctx)
            ge_low = self._relop(">=", value, low)
            le_high = self._relop("<=", value, high)
            result = sql_and(ge_low, le_high)
            return sql_not(result) if expr.negated else result
        if isinstance(expr, ast.InListOp):
            value = self.evaluate(expr.operand, ctx)
            result: Any = False
            for item in expr.items:
                result = sql_or(result, sql_eq(value,
                                               self.evaluate(item, ctx)))
            return sql_not(result) if expr.negated else result
        if isinstance(expr, AggregateCall):
            key = aggregate_key(expr)
            if key in ctx.agg:
                return ctx.agg[key]
            raise ExecutionError(
                f"aggregate {expr.func} not allowed in this context")
        raise ExecutionError(f"cannot evaluate expression {expr!r}")

    def truth(self, expr: ast.Expr, ctx: RowContext) -> Any:
        """Evaluate ``expr`` as a predicate (TRUE/FALSE/NULL).

        A user-defined operator in boolean position is satisfied when it
        returns a truthy value (non-zero number / TRUE), matching the
        paper's relaxed ``Contains(...)`` notation for
        ``Contains(...) = 1``.
        """
        return sql_truth(self.evaluate(expr, ctx))

    # -- node kinds ----------------------------------------------------------

    def _column_value(self, ref: ast.ColumnRef, ctx: RowContext) -> Any:
        if not ref.bound:
            raise ExecutionError(f"unbound column reference {ref.display()!r}")
        key = (ref.alias, ref.column)
        if key not in ctx.values:
            raise ExecutionError(f"no value for {ref.alias}.{ref.column} "
                                 "in row context")
        value = ctx.values[key]
        for attr in ref.attr_path:
            if is_null(value):
                return NULL
            if isinstance(value, ObjectValue):
                value = value.get(attr)
            else:
                raise TypeMismatchError(
                    f"{ref.alias}.{ref.column}: cannot take attribute "
                    f"{attr!r} of non-object value {value!r}")
        return value

    def _operator_value(self, call: OperatorCall, ctx: RowContext) -> Any:
        operator = call.operator
        if operator.is_ancillary:
            if call.label in ctx.aux:
                return ctx.aux[call.label]
            raise ExecutionError(
                f"ancillary operator {operator.name}({call.label}) has no "
                "value: the primary operator was not evaluated for this row")
        arg_values = [self.evaluate(a, ctx) for a in call.args]
        func_args = arg_values
        if call.label is not None:
            # the trailing linkage label is not passed to the function
            func_args = arg_values[:-1]
        binding = operator.resolve_binding(
            [value_datatype(v) for v in func_args])
        function = self.catalog.get_function(binding.function_name)
        result = function.fn(*func_args)
        if call.label is not None:
            # functional evaluation of a primary operator feeds its
            # ancillary partners: the raw return value is the aux value
            ctx.aux[call.label] = result
        return result

    def _function_value(self, call: ast.FuncCall, ctx: RowContext) -> Any:
        function = Binder(self.catalog, Scope([])).find_function(call.name)
        if function is None:
            raise CatalogError(f"no such function {call.name!r}")
        args = [self.evaluate(a, ctx) for a in call.args]
        return function.fn(*args)

    def _binary(self, expr: ast.BinaryOp, ctx: RowContext) -> Any:
        left = self.evaluate(expr.left, ctx)
        right = self.evaluate(expr.right, ctx)
        op = expr.op
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return self._relop(op, left, right)
        if is_null(left) or is_null(right):
            return NULL
        if op == "||":
            return f"{left}{right}"
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            return left / right
        raise ExecutionError(f"unknown binary operator {op!r}")

    @staticmethod
    def _relop(op: str, left: Any, right: Any) -> Any:
        cmp = sql_compare(left, right)
        if is_null(cmp):
            return NULL
        if op == "=":
            return cmp == 0
        if op == "!=":
            return cmp != 0
        if op == "<":
            return cmp < 0
        if op == "<=":
            return cmp <= 0
        if op == ">":
            return cmp > 0
        return cmp >= 0


def static_type(expr: ast.Expr, scope: Scope, catalog: Catalog) -> DataType:
    """Best-effort static SQL type of a bound expression (planner use)."""
    if isinstance(expr, ast.Literal):
        return value_datatype(expr.value)
    if isinstance(expr, ast.BindParam):
        return ANY  # value unknown until execution
    if isinstance(expr, ast.ColumnRef) and expr.bound:
        table = scope.table_for_alias(expr.alias or "")
        if table is None:
            return ANY
        dtype = table.column_info(expr.column).datatype
        for attr in expr.attr_path:
            if hasattr(dtype, "attribute_type"):
                dtype = dtype.attribute_type(attr)
            else:
                return ANY
        return dtype
    if isinstance(expr, OperatorCall):
        if expr.operator.bindings:
            return expr.operator.bindings[0].return_type
        return ANY
    if isinstance(expr, (ast.BinaryOp, ast.UnaryMinus)):
        return NUMBER
    if isinstance(expr, (ast.BoolOp, ast.NotOp, ast.IsNullOp, ast.LikeOp,
                         ast.BetweenOp, ast.InListOp)):
        return BOOLEAN
    return ANY


def child_exprs(expr: ast.Expr) -> List[ast.Expr]:
    """The direct sub-expressions of a bound expression node — the one
    place that knows which fields hold them."""
    if isinstance(expr, (ast.BinaryOp, ast.BoolOp)):
        return [expr.left, expr.right]
    if isinstance(expr, (ast.NotOp, ast.UnaryMinus, ast.IsNullOp)):
        return [expr.operand]
    if isinstance(expr, ast.LikeOp):
        return [expr.operand, expr.pattern]
    if isinstance(expr, ast.BetweenOp):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, ast.InListOp):
        return [expr.operand, *expr.items]
    if isinstance(expr, (ast.FuncCall, OperatorCall)):
        return expr.args
    if isinstance(expr, AggregateCall) and expr.arg is not None:
        return [expr.arg]
    return []


def contains_aggregate(expr: ast.Expr) -> bool:
    """True when ``expr`` contains an AggregateCall anywhere."""
    return isinstance(expr, AggregateCall) \
        or any(contains_aggregate(child) for child in child_exprs(expr))
