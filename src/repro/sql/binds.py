"""Bind-variable handling.

``db.execute("DELETE FROM t WHERE rid = :1", [rowid])`` parses the SQL
with :class:`~repro.sql.ast_nodes.BindParam` placeholders, and they stay
in the tree: a SELECT's plan and a DML statement's
:class:`~repro.sql.dml.PreparedDML` are compiled once, and each
execution supplies its values as arguments (the executor and evaluator
resolve a placeholder from that execution's bind set).  This is how
cartridge callbacks move rowids, object values, and LOB locators through
the SQL interface, and why one cached plan serves every bind set
(:func:`collect_bind_names` extracts the plan's bind signature).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.sql import ast_nodes as ast

Params = Union[Sequence[Any], Dict[str, Any]]


def normalize_params(params: Optional[Params]) -> Dict[str, Any]:
    """Accept a sequence (positional :1..:n) or mapping (named binds)."""
    if params is None:
        return {}
    if isinstance(params, dict):
        return {str(k).lower(): v for k, v in params.items()}
    return {str(i + 1): v for i, v in enumerate(params)}


# ---------------------------------------------------------------------------
# Statement inspection (plan-cache support)
# ---------------------------------------------------------------------------

def collect_bind_names(statement: ast.Statement) -> List[str]:
    """Sorted lower-cased names of every BindParam in ``statement``."""
    names: set = set()
    _walk_statement(statement, names)
    return sorted(names)


def statement_has_subquery(statement: ast.Statement) -> bool:
    """True when the statement contains an IN/EXISTS subquery.

    The planner materializes subquery results at *plan* time, so such
    plans freeze data and must never be cached.
    """
    flag = [False]
    _walk_statement(statement, None, flag)
    return flag[0]


def _walk_statement(statement: ast.Statement, names, flag=None) -> None:
    def walk(expr: Optional[ast.Expr]) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.BindParam):
            if names is not None:
                names.add(expr.name.lower())
        elif isinstance(expr, (ast.BinaryOp, ast.BoolOp)):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, (ast.NotOp, ast.UnaryMinus, ast.IsNullOp)):
            walk(expr.operand)
        elif isinstance(expr, ast.LikeOp):
            walk(expr.operand)
            walk(expr.pattern)
        elif isinstance(expr, ast.BetweenOp):
            walk(expr.operand)
            walk(expr.low)
            walk(expr.high)
        elif isinstance(expr, ast.InListOp):
            walk(expr.operand)
            for item in expr.items:
                walk(item)
        elif isinstance(expr, ast.FuncCall):
            for arg in expr.args:
                walk(arg)
        elif isinstance(expr, ast.InSubquery):
            if flag is not None:
                flag[0] = True
            walk(expr.operand)
            walk_select(expr.query)
        elif isinstance(expr, ast.ExistsSubquery):
            if flag is not None:
                flag[0] = True
            walk_select(expr.query)

    def walk_select(select: ast.Select) -> None:
        for item in select.items:
            walk(item.expr)
        walk(select.where)
        for e in select.group_by:
            walk(e)
        walk(select.having)
        for order in select.order_by:
            walk(order.expr)

    if isinstance(statement, ast.Select):
        walk_select(statement)
    elif isinstance(statement, ast.Insert):
        for row in statement.rows:
            for e in row:
                walk(e)
        if statement.select is not None:
            walk_select(statement.select)
    elif isinstance(statement, ast.Update):
        for _, e in statement.assignments:
            walk(e)
        walk(statement.where)
    elif isinstance(statement, ast.Delete):
        walk(statement.where)
    elif isinstance(statement, ast.Explain):
        walk_select(statement.query)
