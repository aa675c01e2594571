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
    """Add every BindParam's name to ``names`` (unless None) and set
    ``flag[0]`` when a subquery is found.

    One loop over an explicit stack of expressions and SELECTs: a
    recursive closure would be a reference cycle per cold parse.
    """
    stack: List[Any] = []
    if isinstance(statement, ast.Select):
        stack.append(statement)
    elif isinstance(statement, ast.Insert):
        stack.extend(e for row in statement.rows for e in row)
        stack.append(statement.select)
    elif isinstance(statement, ast.Update):
        stack.extend(e for __, e in statement.assignments)
        stack.append(statement.where)
    elif isinstance(statement, ast.Delete):
        stack.append(statement.where)
    elif isinstance(statement, ast.Explain):
        stack.append(statement.query)
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, ast.Select):
            stack.extend(item.expr for item in node.items)
            stack.append(node.where)
            stack.extend(node.group_by)
            stack.append(node.having)
            stack.extend(order.expr for order in node.order_by)
        elif isinstance(node, ast.BindParam):
            if names is not None:
                names.add(node.name.lower())
        elif isinstance(node, (ast.BinaryOp, ast.BoolOp)):
            stack += (node.left, node.right)
        elif isinstance(node, (ast.NotOp, ast.UnaryMinus, ast.IsNullOp)):
            stack.append(node.operand)
        elif isinstance(node, ast.LikeOp):
            stack += (node.operand, node.pattern)
        elif isinstance(node, ast.BetweenOp):
            stack += (node.operand, node.low, node.high)
        elif isinstance(node, ast.InListOp):
            stack.append(node.operand)
            stack.extend(node.items)
        elif isinstance(node, ast.FuncCall):
            stack.extend(node.args)
        elif isinstance(node, ast.InSubquery):
            if flag is not None:
                flag[0] = True
            stack += (node.operand, node.query)
        elif isinstance(node, ast.ExistsSubquery):
            if flag is not None:
                flag[0] = True
            stack.append(node.query)
