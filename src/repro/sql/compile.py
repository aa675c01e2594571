"""Expression lowering: one code generator, two loop shapes, one fallback.

The interpreter (:meth:`~repro.sql.expressions.Evaluator.evaluate`)
re-dispatches on node types for every row.  This module lowers a bound
expression tree *once, at plan time* into Python source; the executor
runs the generated function and keeps the interpreter as the reference
it falls back to.  There is one lowering, :class:`_KernelCodegen`; its
two loop shapes differ in the column leaf only:

* **batch** — ``v<c>[i]`` over one table's column vectors, the loop
  generated too: a kernel filters a whole ``ColumnBatch`` in one call
  (a comprehension producing the selection vector), a projection
  gathers output tuples straight through the selection vector.
* **row** — ``vals[(alias, column)]`` over ``RowContext.values``, for
  everything that consumes rows (IOT prefix scans, join conditions and
  keys, HAVING, projections over ``GROUP BY`` output).  Row functions
  may also call registered SQL functions and read aggregate results.

Design rules:

* **Bind-slot hoisting** — generated code is a *factory* taking the
  execution's bind values, so one artifact on a shared cached plan
  serves every execution and session.  The factory declines (returns
  None → interpreter) binds whose Python semantics diverge from
  :func:`~repro.types.values.sql_compare`: NULL, missing, bool, or not
  of the type the code compares them with.
* **Three-valued logic** — boolean position lowers to two dual
  emitters, T(e) true iff e is TRUE and F(e) true iff e is FALSE, with
  NULL falling out of both; a boolean in value position is
  ``True if T else False if F else NULL`` over operands bound once.
* **The interpreter's evaluation order** — an operand that can raise or
  has a side effect (a function call, a division, a comparison of types
  not known to match) is bound to a temporary exactly where the
  interpreter evaluates it, so short-circuiting neither skips nor
  repeats an error or a call; other operands stay inline and lazy.
  Comparisons are native operators only between operands of one
  statically known kind (number or string, from literals and declared
  column types), :func:`sql_compare` otherwise.
* **One fallback** — a generated function that raises re-evaluates that
  row (kernel: that batch) through the interpreter, which reproduces
  the exact value or error.  A row function containing a registered-
  function call is the exception: re-running it would call the function
  twice, so it has no fallback and owes its error taxonomy to the
  previous rule.  Nodes outside the lowering
  (:class:`~repro.sql.expressions.OperatorCall` — functional evaluation
  resolves bindings against the live catalog and feeds ancillary aux
  values — ``Star``, subqueries) raise :class:`CannotCompile`; the
  entry points return ``None`` and that expression runs interpreted.

Thread safety: generated functions are pure functions of their
arguments over immutable plan-time state (hoisted constants,
pre-resolved SQL functions, pre-built LIKE regexes), so the artifacts
on one cached plan serve any number of sessions concurrently.  Plan-
cache invalidation (any catalog version bump, including function
re-registration) retires plans whose pre-resolved functions went stale.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.sql import ast_nodes as ast
from repro.sql.expressions import (
    AggregateCall, Binder, Evaluator, Scope, aggregate_key)
from repro.types.datatypes import NumberType, VarcharType
from repro.types.values import (
    NULL, _like_regex, is_null, sql_compare, sql_like, sql_truth)

__all__ = ["CannotCompile", "compile_plan", "compile_row_function",
           "compile_vector_kernel", "compile_vector_projection"]


class CannotCompile(Exception):
    """Internal signal: the expression contains an unsupported node."""


_PY_RELOP = {"=": "==", "!=": "!=", "<": "<", "<=": "<=",
             ">": ">", ">=": ">="}
_INV_RELOP = {"=": "!=", "!=": "==", "<": ">=", "<=": ">",
              ">": "<=", ">=": "<"}


def _kind_of_value(value: Any) -> Optional[str]:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return "num"
    return "str" if isinstance(value, str) else None


def _kind_of_type(datatype: Any) -> Optional[str]:
    """Kind of a declared column type whose ``validate`` admits only
    that kind's Python classes (so stored values never need checking)."""
    if isinstance(datatype, NumberType):
        return "num"
    return "str" if isinstance(datatype, VarcharType) else None


# -- runtime helpers the generated code calls -------------------------------

def _div0() -> Any:
    raise ExecutionError("division by zero")


_RUNTIME = {"_NULLV": NULL, "_like_rx": _like_regex, "_cmp": sql_compare,
            "_like": sql_like, "_truth": sql_truth, "_div0": _div0,
            # an attribute path is walked by the interpreter's own code
            "_column_value": Evaluator(None)._column_value}


class _Val:
    """An emitted value expression: code + what we statically know."""

    __slots__ = ("code", "notnull", "maybe_nullv", "kind", "raw", "bind")

    def __init__(self, code: str, notnull: bool, maybe_nullv: bool,
                 kind: Optional[str] = None, raw: bool = False,
                 bind: Optional[List[Any]] = None):
        self.code = code
        self.notnull = notnull        # guaranteed non-NULL at runtime
        self.maybe_nullv = maybe_nullv  # may be the NULL singleton (vs None)
        self.kind = kind              # "num" | "str" | None (unknown)
        #: the code yields the very object the interpreter would (a
        #: computed null is ``None`` here, the NULL singleton there)
        self.raw = raw
        self.bind = bind              # the bind-local entry, for a bind


class _KernelCodegen:
    """Emits factory source for one expression list.

    ``tables`` maps binding name → table (declared column types).  With
    ``batch_binding`` the column leaf is ``v<c>[i]`` over that one
    table's column vectors; without it, ``vals[(alias, column)]`` over a
    row context, where function calls and aggregate results are also
    available (``catalog`` resolves the functions).
    """

    def __init__(self, tables: Dict[str, Any],
                 batch_binding: Optional[str] = None,
                 catalog: Any = None):
        self._tables = tables
        self._batch = batch_binding
        self._finder = Binder(catalog, Scope([])) \
            if catalog is not None else None
        if batch_binding is not None:
            self._positions = {
                col.name.lower(): i
                for i, col in enumerate(tables[batch_binding].columns)}
        #: column indices the emitted code reads (hoisted to locals)
        self.used_columns: set = set()
        self.uses_vals = False
        self.uses_agg = False
        #: the code calls a registered function: it must not be re-run
        self.has_calls = False
        self._temps = 0
        #: bumped for every emitted operation that can raise or has a
        #: side effect; a change across an operand's emission marks it
        self._effects = 0
        self.env: Dict[str, Any] = {}
        #: bind locals: key -> [local name, needs regex, demanded kind]
        self._binds: Dict[str, List[Any]] = {}

    # -- helpers ---------------------------------------------------------

    def _temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def _hoist(self, prefix: str, value: Any) -> str:
        name = f"{prefix}{len(self.env)}"
        self.env[name] = value
        return name

    def _guarded(self, val: _Val) -> Tuple[str, List[str]]:
        """Usable expression + null-guard conditions (walrus-bound
        unless ``val`` is already a temporary)."""
        if val.notnull:
            return val.code, []
        if val.code.isidentifier():
            t, conds = val.code, [f"{val.code} is not None"]
        else:
            t = self._temp()
            conds = [f"({t} := {val.code}) is not None"]
        if val.maybe_nullv:
            conds.append(f"{t} is not _NULLV")
        return t, conds

    def _boxed(self, val: _Val) -> str:
        """Code for ``val`` where it leaves the generated expression (an
        output column, a function argument): computed nulls become the
        NULL singleton the interpreter returns."""
        if val.raw or val.notnull:
            return val.code
        t = self._temp()
        return f"(_NULLV if ({t} := {val.code}) is None else {t})"

    def _bound(self, pre: Dict[str, str], code: str) -> str:
        """The temporary ``code`` is bound to in ``pre`` — operations a
        predicate or an arithmetic node runs ahead of its lazy null
        guards, each exactly once and in the interpreter's order.  The
        same code asked for again (the F answer after the T answer)
        gets the same temporary."""
        t = pre.get(code)
        if t is None:
            t = pre[code] = self._temp()
        return t

    @staticmethod
    def _pre_terms(pre: Dict[str, str]) -> List[str]:
        """``pre`` as conjunction terms that bind and are always true."""
        return [f"(({t} := {code}) is {t})" for code, t in pre.items()]

    def _operand(self, expr: ast.Expr, pre: Dict[str, str]) -> _Val:
        """``expr`` as an operand: inline and lazy when evaluating it
        can neither raise nor have a side effect, else bound in
        ``pre``."""
        before = self._effects
        val = self.value(expr)
        if self._effects == before:
            return val
        return _Val(self._bound(pre, val.code), val.notnull,
                    val.maybe_nullv, val.kind, val.raw)

    @staticmethod
    def _kind(val: _Val) -> Optional[str]:
        return val.kind or (val.bind[2] if val.bind is not None else None)

    def _same_kind(self, left: _Val, right: _Val) -> bool:
        """True when native operators are exact between the two: both
        of one known kind.  A bind takes the kind of what it is first
        compared with; the factory declines executions whose value is
        not of it."""
        for val, other in ((left, right), (right, left)):
            if val.bind is not None and val.bind[2] is None:
                val.bind[2] = other.kind
        kind = self._kind(left)
        return kind is not None and kind == self._kind(right)

    # -- value position --------------------------------------------------

    def value(self, expr: ast.Expr) -> _Val:
        if isinstance(expr, ast.Literal):
            value = expr.value
            kind = _kind_of_value(value)
            if kind is not None:
                return _Val(repr(value), True, False, kind, raw=True)
            # hoisted, so the emitted value is the literal object itself
            null = is_null(value)
            return _Val(self._hoist("c", value), not null, null, raw=True)
        if isinstance(expr, ast.BindParam):
            entry = self._bind_entry(expr)
            return _Val(entry[0], True, False, raw=True, bind=entry)
        if isinstance(expr, ast.ColumnRef):
            return self._column(expr)
        if isinstance(expr, ast.UnaryMinus):
            operand = self.value(expr.operand)
            if operand.kind != "num":
                self._effects += 1
            if operand.notnull:
                return _Val(f"(-{operand.code})", True, False, operand.kind)
            oe, conds = self._guarded(operand)
            return _Val(f"((-{oe}) if {' and '.join(conds)} else None)",
                        False, False, operand.kind)
        if isinstance(expr, ast.BinaryOp) and expr.op not in _PY_RELOP:
            return self._arithmetic(expr)
        if isinstance(expr, ast.FuncCall):
            return self._func_call(expr)
        if isinstance(expr, AggregateCall):
            if self._batch is not None:
                raise CannotCompile("kernel: aggregate result")
            self.uses_agg = True
            return _Val(f"agg[{aggregate_key(expr)!r}]", False, True,
                        raw=True)
        if isinstance(expr, (ast.BoolOp, ast.NotOp)) or _is_leaf(expr):
            two_valued = isinstance(expr, ast.IsNullOp)
            return _Val(self._tri(expr), two_valued, False)
        # OperatorCall (functional evaluation via the catalog + aux
        # side channel), Star, subqueries: interpreter territory
        raise CannotCompile(type(expr).__name__)

    def _column(self, ref: ast.ColumnRef) -> _Val:
        if not ref.bound:
            raise CannotCompile("unbound column reference")
        if ref.attr_path:
            if self._batch is not None:
                raise CannotCompile("kernel: attribute path")
            self._effects += 1
            return _Val(f"_column_value({self._hoist('c', ref)}, ctx)",
                        False, True, raw=True)
        table = self._tables.get(ref.alias)
        if self._batch is None:
            self.uses_vals = True
            code = f"vals[({ref.alias!r}, {ref.column!r})]"
        else:
            index = self._positions.get(ref.column) \
                if ref.alias == self._batch else None
            if index is None:  # foreign binding, or the rowid pseudo-column
                raise CannotCompile("kernel: not a stored column")
            self.used_columns.add(index)
            code = f"v{index}[i]"
        kind = None
        if table is not None and ref.column != "rowid":
            kind = _kind_of_type(table.column_info(ref.column).datatype)
        return _Val(code, False, True, kind, raw=True)

    def _arithmetic(self, expr: ast.BinaryOp) -> _Val:
        op = expr.op
        if op not in ("+", "-", "*", "/", "||"):
            raise CannotCompile(f"binary operator {op!r}")
        pre: Dict[str, str] = {}
        left = self._operand(expr.left, pre)
        right = self._operand(expr.right, pre)
        le, lconds = self._guarded(left)
        re_, rconds = self._guarded(right)
        kind = None
        if op == "||":
            code, kind = f"(format({le}) + format({re_}))", "str"
        else:
            if self._same_kind(left, right) and self._kind(left) == "num":
                kind = "num"
            if kind is None or op == "/":
                self._effects += 1
            code = f"({le} {op} {re_})"
            if op == "/":
                code = f"({code} if {re_} != 0 else _div0())"
        conds = self._pre_terms(pre) + lconds + rconds
        if not conds:
            return _Val(code, True, False, kind)
        return _Val(f"({code} if {' and '.join(conds)} else None)",
                    not (lconds or rconds), False, kind)

    def _func_call(self, call: ast.FuncCall) -> _Val:
        if self._finder is None:
            # a kernel re-runs a failed batch; a call must run once
            raise CannotCompile("kernel: function call")
        function = self._finder.find_function(call.name)
        if function is None:
            raise CannotCompile(call.name)  # interpreter raises CatalogError
        args = ", ".join(self._boxed(self.value(a)) for a in call.args)
        self._effects += 1
        self.has_calls = True
        return _Val(f"{self._hoist('f', function.fn)}({args})", False, True,
                    raw=True)

    def _bind_entry(self, expr: ast.BindParam) -> List[Any]:
        key = expr.name.lower()
        entry = self._binds.get(key)
        if entry is None:
            entry = self._binds[key] = [f"b{len(self._binds)}", False, None]
        return entry

    # -- boolean position: T(e) / F(e) dual emitters ---------------------

    def _bool_emit(self, expr: ast.Expr, want_true: bool) -> str:
        if isinstance(expr, ast.BoolOp):
            left = self._bool_emit(expr.left, want_true)
            before = self._effects
            right = self._bool_emit(expr.right, want_true)
            # T(AND)=T∧T, F(AND)=F∨F (false dominates); OR is the dual
            if (expr.op == "AND") != want_true:
                return f"({left} or {right})"
            if self._effects == before:
                return f"({left} and {right})"
            # the interpreter evaluates the right side when the left is
            # NULL; a lazy ``and`` would skip what it raises or calls
            return f"({self._tri(expr)} is {want_true})"
        if isinstance(expr, ast.NotOp):
            return self._bool_emit(expr.operand, not want_true)
        if _is_leaf(expr):
            pre: Dict[str, str] = {}
            test = self._leaf(expr, self._leaf_operands(expr, pre), pre,
                              want_true)
            return f"({' and '.join(self._pre_terms(pre) + [test])})"
        if isinstance(expr, ast.Literal):
            return f"({sql_truth(expr.value) is want_true})"
        return f"(_truth({self.value(expr).code}) is {want_true})"

    def _tri(self, expr: ast.Expr) -> str:
        """``expr`` as True / False / None (unknown), every operand
        evaluated once and in the interpreter's order."""
        if isinstance(expr, ast.BoolOp):
            a, b = self._temp(), self._temp()
            left, right = self._tri(expr.left), self._tri(expr.right)
            stop, go = ("False", "True") if expr.op == "AND" \
                else ("True", "False")
            return (f"({stop} if ({a} := {left}) is {stop} else"
                    f" ({stop} if ({b} := {right}) is {stop} else"
                    f" ({a} if {b} is {go} else None)))")
        if isinstance(expr, ast.NotOp):
            a = self._temp()
            return (f"(None if ({a} := {self._tri(expr.operand)}) is None"
                    f" else not {a})")
        if _is_leaf(expr):
            pre: Dict[str, str] = {}
            ops = self._leaf_operands(expr, pre)
            code = self._leaf(expr, ops, pre, True)
            if not isinstance(expr, ast.IsNullOp):  # IS NULL is two-valued
                code = (f"(True if {code} else (False if"
                        f" {self._leaf(expr, ops, pre, False)} else None))")
            return f"({' and '.join(self._pre_terms(pre) + [code])})"
        t = self._temp()
        return (f"(None if ({t} := _truth({self.value(expr).code}))"
                f" is _NULLV else {t})")

    # -- leaf predicates -------------------------------------------------

    def _leaf_operands(self, expr: ast.Expr,
                       pre: Dict[str, str]) -> List[_Val]:
        """The operands of a leaf predicate, emitted in the
        interpreter's evaluation order."""
        if isinstance(expr, ast.BinaryOp):
            return [self._operand(expr.left, pre),
                    self._operand(expr.right, pre)]
        if isinstance(expr, ast.BetweenOp):
            return [self._operand(e, pre)
                    for e in (expr.operand, expr.low, expr.high)]
        ops = [self._operand(expr.operand, pre)]
        if isinstance(expr, ast.LikeOp):
            ops.append(self._like_pattern(expr.pattern, ops[0], pre))
        elif isinstance(expr, ast.InListOp):
            for item in expr.items:
                ops.append(self._operand(item, pre))
                if not self._same_kind(ops[0], ops[-1]):
                    # sql_compare runs in ``pre``: as the interpreter
                    # does, compare each item once it is evaluated
                    self._compare(ops[0], ops[-1], "=", pre, True)
        return ops

    def _leaf(self, expr: ast.Expr, ops: List[_Val], pre: Dict[str, str],
              want_true: bool) -> str:
        """T or F of a leaf predicate over its emitted operands."""
        if isinstance(expr, ast.BinaryOp):
            return self._compare(ops[0], ops[1], expr.op, pre, want_true)
        if isinstance(expr, ast.IsNullOp):
            # IS [NOT] NULL is two-valued, so F(e) is just T(not e)
            is_null_wanted = (not expr.negated) == want_true
            if ops[0].notnull:
                return str(not is_null_wanted)
            test = " and ".join(self._guarded(ops[0])[1])
            return f"not ({test})" if is_null_wanted else f"({test})"
        matched = (not expr.negated) == want_true
        if isinstance(expr, ast.LikeOp):
            return self._like(ops[0], ops[1], pre, matched)
        # BETWEEN / IN: a NULL operand is neither; guard it once for
        # all the native comparisons it takes part in
        first, guard = ops[0], []
        if all(self._same_kind(first, other) for other in ops[1:]):
            code, guard = self._guarded(first)
            first = _Val(code, True, False, first.kind, bind=first.bind)
        if isinstance(expr, ast.BetweenOp):
            low = self._compare(first, ops[1], ">=", pre, matched)
            high = self._compare(first, ops[2], "<=", pre, matched)
            # matched: both TRUE; else either definitely FALSE (Kleene)
            test = f"{low} and {high}" if matched else f"({low} or {high})"
        else:
            # IN: TRUE iff some item compares equal; FALSE iff every
            # one compares not-equal (no NULL anywhere)
            tests = [self._compare(first, item, "=", pre, matched)
                     for item in ops[1:]]
            test = "(" + " or ".join(tests) + ")" if matched \
                else " and ".join(tests)
        return f"({' and '.join(guard + [test])})"

    def _compare(self, left: _Val, right: _Val, op: str,
                 pre: Dict[str, str], want_true: bool) -> str:
        """``left op right`` is TRUE (``want_true``) or is FALSE.
        Between operands of one known kind this is the native operator
        behind null guards; otherwise :func:`sql_compare` decides —
        nulls and type errors included — eagerly, in ``pre``."""
        py_op = _PY_RELOP[op] if want_true else _INV_RELOP[op]
        if self._same_kind(left, right):
            le, lconds = self._guarded(left)
            re_, rconds = self._guarded(right)
            return f"({' and '.join(lconds + rconds + [f'{le} {py_op} {re_}'])})"
        self._effects += 1
        c = self._bound(pre, f"_cmp({left.code}, {right.code})")
        return f"({c} is not _NULLV and {c} {py_op} 0)"

    def _like_pattern(self, pattern: ast.Expr, operand: _Val,
                      pre: Dict[str, str]) -> _Val:
        """The LIKE pattern: a regex compiled ahead of the rows (kind
        ``"regex"``) when it is a string literal or a bind and the
        operand is known to be a string; else a per-row operand."""
        if operand.kind == "str":
            if isinstance(pattern, ast.Literal) \
                    and isinstance(pattern.value, str):
                return _Val(self._hoist("rx", _like_regex(pattern.value)),
                            True, False, "regex")
            if isinstance(pattern, ast.BindParam):
                entry = self._bind_entry(pattern)
                entry[1] = True
                return _Val(f"rx_{entry[0]}", True, False, "regex")
        return self._operand(pattern, pre)

    def _like(self, operand: _Val, pattern: _Val, pre: Dict[str, str],
              matched: bool) -> str:
        if pattern.kind == "regex":
            ve, conds = self._guarded(operand)
            test = "is not None" if matched else "is None"
            conds = conds + [f"{pattern.code}.fullmatch({ve}) {test}"]
            return f"({' and '.join(conds)})"
        # sql_like decides: NULL and non-string operands included
        self._effects += 1
        m = self._bound(pre, f"_like({operand.code}, {pattern.code})")
        return f"({m} is {matched})"


def _is_leaf(expr: ast.Expr) -> bool:
    """A predicate that evaluates all its operands, then decides."""
    return isinstance(expr, (ast.IsNullOp, ast.LikeOp, ast.BetweenOp,
                             ast.InListOp)) \
        or isinstance(expr, ast.BinaryOp) and expr.op in _PY_RELOP


def _emit_bind_guards(gen: _KernelCodegen) -> List[str]:
    """Factory-body lines that load binds and decline unsupported values.

    A NULL or missing bind, a bool (whose Python comparison semantics
    diverge from ``sql_compare``), a bind not of the kind the code
    compares it with natively, or a non-string LIKE pattern makes the
    factory return None — the execution runs on the interpreter.
    """
    lines = []
    for key, (local, needs_rx, kind) in gen._binds.items():
        lines.append(f"    {local} = binds.get({key!r}, _NULLV)")
        lines.append(f"    if {local} is None or {local} is _NULLV"
                     f" or {local}.__class__ is bool:")
        lines.append("        return None")
        if kind == "num":
            lines.append(f"    if {local}.__class__ is not int"
                         f" and {local}.__class__ is not float:")
            lines.append("        return None")
        elif kind == "str" or needs_rx:
            lines.append(f"    if {local}.__class__ is not str:")
            lines.append("        return None")
        if needs_rx:
            lines.append(f"    rx_{local} = _like_rx({local})")
    return lines


#: byte-compiled factory sources.  ``compile`` costs more than planning
#: an indexed point statement, and every re-plan of one statement shape
#: (plan-cache miss after DDL, eviction, a new bind signature)
#: regenerates the same text; a pure memo, emptied when full.
_CODE_CACHE: Dict[str, Any] = {}
_CODE_CACHE_LIMIT = 512


def _exec_factory(gen: _KernelCodegen, lines: List[str],
                  filename: str) -> Callable:
    """The generated ``_factory``, byte-compiled on its first call.

    Plan time only generates source: a plan that never runs the
    artifact (DML target selection discards the projection; EXPLAIN)
    does not pay for ``compile``.  Sessions sharing a cached plan may
    race the first call; both run the same code and either result
    serves.
    """
    source = "\n".join(lines[:1] + _emit_bind_guards(gen) + lines[1:])
    namespace = dict(_RUNTIME)
    namespace.update(gen.env)
    generated: List[Callable] = []

    def factory(*args: Any) -> Optional[Callable]:
        if not generated:
            code = _CODE_CACHE.get(source)
            if code is None:
                code = compile(source, filename, "exec")
                if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                    _CODE_CACHE.clear()
                _CODE_CACHE[source] = code
            exec(code, namespace)  # noqa: S102
            # popped so the namespace (the function's globals) does not
            # point back at the function: a retired plan is then freed
            # by reference counting, not left for the cycle collector
            generated.append(namespace.pop("_factory"))
        return generated[0](*args)
    return factory


def _batch_factory(gen: _KernelCodegen, signature: str,
                   result: str) -> Callable:
    """Factory for a per-batch function over the column vectors."""
    name = signature[:signature.index("(")]
    lines = ["def _factory(binds):", f"    def {signature}:"]
    lines += [f"        v{index} = cols[{index}]"
              for index in sorted(gen.used_columns)]
    lines += [f"        return {result}", f"    return {name}"]
    return _exec_factory(gen, lines, f"<vector{name}>")


def compile_vector_kernel(predicate: Optional[ast.Expr], binding: str,
                          table: Any) -> Optional[Callable]:
    """Generate a vector-kernel factory for a scan filter, or None.

    Returns ``factory(binds) -> kernel | None`` where
    ``kernel(cols, rowids, n) -> sel`` filters one columnar batch and
    returns its selection vector (ascending row indices that passed).
    The factory declines (returns None) the executions
    :func:`_emit_bind_guards` lists.
    """
    if predicate is None:
        return None
    gen = _KernelCodegen({binding: table}, batch_binding=binding)
    try:
        body = gen._bool_emit(predicate, True)
    except CannotCompile:
        return None
    return _batch_factory(gen, "_kernel(cols, rowids, n)",
                          f"[i for i in range(n) if {body}]")


def compile_vector_projection(exprs: Sequence[ast.Expr], binding: str,
                              table: Any) -> Optional[Callable]:
    """Generate a fused gather for projection items or sort keys.

    Returns ``factory(binds) -> project | None`` where
    ``project(cols, rowids, sel) -> List[tuple]`` materializes one
    output tuple per selected row, straight from the column vectors,
    each value the object the interpreter would return (stored values
    and literals untouched, computed nulls as the ``NULL`` singleton).
    Any item outside the generated subset declines the whole list.
    """
    if not exprs:
        return None
    gen = _KernelCodegen({binding: table}, batch_binding=binding)
    try:
        parts = [gen._boxed(gen.value(expr)) for expr in exprs]
    except CannotCompile:
        return None
    return _batch_factory(gen, "_project(cols, rowids, sel)",
                          f"[({', '.join(parts)},) for i in sel]")


def compile_row_function(expr: ast.Expr, tables: Dict[str, Any],
                         catalog: Any, truth: bool = False
                         ) -> Optional[Callable]:
    """Generate a row-function factory for one expression, or None.

    Returns ``factory(binds, fallback) -> fn | None`` where ``fn(ctx)``
    is the expression's value over a row context — with ``truth``,
    whether it is TRUE — and ``fallback(ctx)`` is the interpreter's
    answer, which ``fn`` returns for a row its generated code raised
    on.  A function that calls a registered SQL function is never
    re-run (the call would happen twice): what it raises propagates.
    """
    gen = _KernelCodegen(tables, catalog=catalog)
    try:
        body = gen._bool_emit(expr, True) if truth \
            else gen._boxed(gen.value(expr))
    except CannotCompile:
        return None
    lines = ["def _factory(binds, fallback):", "    def _row(ctx):"]
    if gen.uses_vals:
        lines.append("        vals = ctx.values")
    if gen.uses_agg:
        lines.append("        agg = ctx.agg")
    if gen.has_calls:
        lines.append(f"        return {body}")
    else:
        lines += ["        try:", f"            return {body}",
                  "        except Exception:",
                  "            return fallback(ctx)"]
    lines.append("    return _row")
    return _exec_factory(gen, lines, "<row-function>")


# ---------------------------------------------------------------------------
# Plan-tree compilation
# ---------------------------------------------------------------------------

def _vector_group_slots(node: Any, scan: Any) -> Optional[Tuple]:
    """Column indices for a grouped column fold, or None to decline.

    Vectorized GROUP BY requires every group key and aggregate
    argument to be a bare column of the scanned table — anything
    computed falls back to the row pipeline (the accumulator
    semantics stay in one place either way).
    """
    positions = {col.name.lower(): i
                 for i, col in enumerate(scan.table.columns)}

    def index_of(expr: ast.Expr) -> Optional[int]:
        if isinstance(expr, ast.ColumnRef) and expr.bound \
                and not expr.attr_path \
                and expr.alias == scan.binding_name:
            return positions.get(expr.column)
        return None

    group_indices = []
    for expr in node.group_exprs:
        index = index_of(expr)
        if index is None:
            return None
        group_indices.append(index)
    agg_indices = []
    for agg in node.aggregates:
        if agg.arg is None:
            agg_indices.append(None)  # COUNT(*)
            continue
        index = index_of(agg.arg)
        if index is None:
            return None
        agg_indices.append(index)
    return tuple(group_indices), tuple(agg_indices)


def compile_plan(plan: Any, catalog: Any, one_shot: bool = False) -> None:
    """Attach generated row functions and batch kernels to a query plan.

    One walk of the plan tree.  For each row expression a node
    evaluates per row (filters, join conditions/keys, sort keys, group
    keys, HAVING, aggregate arguments, projections) it stores the
    :func:`compile_row_function` factory in ``node.compiled`` — ``None``
    where the generator declined.  ``node.exec_mode`` becomes
    ``"COMPILED"`` when every expression on the node has a generated
    row function, ``"INTERPRETED"`` when any was declined, and stays
    ``None`` for nodes with no row expressions.  A node in the
    vectorizable chain — a scan that produces column batches, and the
    projection, sort or grouped fold over it — also gets its vector
    artifacts and a ``vector_mode``: ``"VECTORIZED"`` when they
    compiled, ``"ROW"`` when it runs on the row pipeline instead.
    Annotations only: costs and access-path choice are untouched, and
    EXPLAIN prints both modes per node.

    Runs once at plan time, so the artifacts ride the shared plan cache
    and every session soft-parsing the statement reuses them.  A
    ``one_shot`` plan (DML target selection: run once, never cached)
    annotates full scans only: generating and byte-compiling a row
    function or a kernel costs more than an index probe's few rows can
    repay within one execution, while a full scan repays it inside the
    statement; a probe's residual and the projection DML discards are
    interpreted.
    """
    from repro.sql import planner as pl  # deferred: planner imports us
    tables = dict(plan.scope.entries)
    scans = (pl.FullScan,) + tuple(
        path.node for path in pl.ACCESS_PATHS.values())

    def vector_filter(scan: Any) -> bool:
        """Compile the scan's filter into a vector kernel (once)."""
        if scan.vector_mode is None:
            scan.vector_mode = "VECTORIZED"
            if scan.filter is not None:
                kernel = compile_vector_kernel(
                    scan.filter, scan.binding_name, scan.table)
                if kernel is None:
                    scan.vector_mode = "ROW"
                else:
                    scan.compiled["vector_kernel"] = kernel
        return scan.vector_mode == "VECTORIZED"

    def consume(node: Any, slot: str, exprs: Optional[List],
                rowid_source: bool = False) -> None:
        """Stamp a consumer of its child scan's column batches — a
        columnar-capable full scan's, or (under a projection) those of
        a scan that hands over rowids for the batched base-table fetch:
        a gather over ``exprs``, or (None) a grouped column fold."""
        scan = node.child
        if not (rowid_source and isinstance(scan, pl.ROWID_SCANS)
                or isinstance(scan, pl.FullScan)
                and scan.has_scan_columns and scan.versioned):
            return
        artifact = _vector_group_slots(node, scan) if exprs is None \
            else compile_vector_projection(exprs, scan.binding_name,
                                           scan.table)
        if artifact is not None and vector_filter(scan):
            node.compiled[slot] = artifact
            node.vector_mode = "VECTORIZED"
        else:
            node.vector_mode = "ROW"

    def visit(node: Any) -> None:
        made: List[Optional[Callable]] = []

        def value(expr: Optional[ast.Expr],
                  truth: bool = False) -> Optional[Callable]:
            if expr is None:
                return None
            made.append(compile_row_function(expr, tables, catalog, truth))
            return made[-1]

        def predicate(expr: Optional[ast.Expr]) -> Optional[Callable]:
            return value(expr, truth=True)

        slots = node.compiled
        if one_shot and not isinstance(node, pl.FullScan):
            pass
        elif isinstance(node, scans):
            slots["filter"] = predicate(node.filter)
            if node.vector_mode is None \
                    and not isinstance(node, pl.IOTPrefixScan):
                # no batch consumer above: rows come out.  A vector
                # filter still pays for itself (only survivors cross the
                # materialization boundary); without a filter there is
                # nothing to vectorize and transposing pages is overhead
                if node.filter is None:
                    node.vector_mode = "ROW"
                else:
                    vector_filter(node)
        elif isinstance(node, pl.FilterNode):
            slots["predicate"] = predicate(node.predicate)
        elif isinstance(node, pl.NestedLoopJoin):
            slots["condition"] = predicate(node.condition)
        elif isinstance(node, pl.IndexedNLJoin):
            slots["condition"] = predicate(node.condition)
            slots["inner_filter"] = predicate(node.inner_filter)
            slots["outer_key"] = value(node.outer_key)
        elif isinstance(node, pl.DomainNLJoin):
            slots["condition"] = predicate(node.condition)
            slots["inner_filter"] = predicate(node.inner_filter)
            slots["value_args"] = [
                value(a) for a in node.operator_call.value_args]
        elif isinstance(node, pl.HashJoin):
            slots["left_keys"] = [value(k) for k in node.left_keys]
            slots["right_keys"] = [value(k) for k in node.right_keys]
            slots["condition"] = predicate(node.condition)
        elif isinstance(node, pl.SortNode):
            keys = [item.expr for item in node.order_items]
            slots["keys"] = [value(key) for key in keys]
            consume(node, "vector_keys", keys)
        elif isinstance(node, pl.GroupByNode):
            slots["group_exprs"] = [value(e)
                                    for e in node.group_exprs]
            slots["having"] = predicate(node.having)
            slots["agg_args"] = {
                aggregate_key(agg): value(agg.arg)
                for agg in node.aggregates if agg.arg is not None}
            consume(node, "vector_group", None)
        elif isinstance(node, pl.ProjectNode):
            items = [e for e, __ in node.items]
            slots["items"] = [value(e) for e in items]
            consume(node, "vector_items", items, rowid_source=True)
        if made:
            node.exec_mode = "INTERPRETED" if None in made else "COMPILED"
        for child in node.children():
            visit(child)

    visit(plan.root)
