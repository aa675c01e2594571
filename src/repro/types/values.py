"""SQL value semantics: NULL, three-valued logic, comparison, and LIKE.

SQL's NULL is not Python's ``None`` in one important way: comparisons with
NULL yield *unknown*, and boolean connectives follow Kleene three-valued
logic.  The executor uses the ``sql_*`` helpers here rather than raw
Python operators so these semantics hold everywhere (WHERE filtering,
join conditions, index-key comparison).
"""

from __future__ import annotations

import functools
import re
from typing import Any, Optional, Tuple

from repro.errors import TypeMismatchError


class Null:
    """Singleton marker for the SQL NULL value.

    NULL is falsy, compares unknown to everything (including itself), and
    prints as ``NULL``.
    """

    _instance: Optional["Null"] = None

    def __new__(cls) -> "Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (Null, ())


#: The SQL NULL singleton.
NULL = Null()

#: Three-valued truth: True, False, or NULL (unknown).
TriBool = Any


def is_null(value: Any) -> bool:
    """True when ``value`` is the SQL NULL (or Python None at the boundary)."""
    return value is NULL or value is None


def _comparable(left: Any, right: Any) -> None:
    numeric = (int, float)
    if isinstance(left, bool) or isinstance(right, bool):
        if type(left) is not type(right):
            raise TypeMismatchError(
                f"cannot compare {type(left).__name__} with {type(right).__name__}")
        return
    if isinstance(left, numeric) and isinstance(right, numeric):
        return
    if type(left) is type(right):
        return
    raise TypeMismatchError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}")


def sql_compare(left: Any, right: Any) -> TriBool:
    """Return -1/0/+1 ordering of two SQL values, or NULL when either is NULL."""
    if is_null(left) or is_null(right):
        return NULL
    _comparable(left, right)
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def sql_eq(left: Any, right: Any) -> TriBool:
    """SQL equality: NULL when either side is NULL, else boolean."""
    cmp = sql_compare(left, right)
    if is_null(cmp):
        return NULL
    return cmp == 0


def sql_and(left: TriBool, right: TriBool) -> TriBool:
    """Kleene AND: false dominates, unknown otherwise propagates."""
    if left is False or right is False:
        return False
    if is_null(left) or is_null(right):
        return NULL
    return bool(left) and bool(right)


def sql_or(left: TriBool, right: TriBool) -> TriBool:
    """Kleene OR: true dominates, unknown otherwise propagates."""
    if left is True or right is True:
        return True
    if is_null(left) or is_null(right):
        return NULL
    return bool(left) or bool(right)


def sql_not(value: TriBool) -> TriBool:
    """Kleene NOT: unknown stays unknown."""
    if is_null(value):
        return NULL
    return not value


def sql_truth(value: Any) -> TriBool:
    """Predicate truth of a SQL value (TRUE/FALSE/NULL).

    A number in boolean position is true when non-zero — the paper's
    relaxed ``Contains(...)`` notation for ``Contains(...) = 1``.  The
    single definition is shared by the interpreter
    (:meth:`~repro.sql.expressions.Evaluator.truth`) and the expression
    compiler (:mod:`repro.sql.compile`) so both paths agree.
    """
    if is_null(value):
        return NULL
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def sql_like(value: Any, pattern: Any) -> TriBool:
    """SQL LIKE with ``%`` (any run) and ``_`` (single char) wildcards."""
    if is_null(value) or is_null(pattern):
        return NULL
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise TypeMismatchError("LIKE requires string operands")
    return like_pattern(pattern)[0].fullmatch(value) is not None


@functools.lru_cache(maxsize=256)
def like_pattern(pattern: str) -> Tuple["re.Pattern[str]", Optional[str]]:
    """A LIKE pattern's regex, and its literal prefix when its one
    wildcard is a single trailing ``%`` (``'tag07%'`` -> ``'tag07'``,
    ``'%'`` -> ``''``; else None): exactly the strings that start with
    the prefix match.  Built once per pattern text (a fixed-size memo)."""
    head = pattern[:-1]
    prefix = head if pattern.endswith("%") and "%" not in head \
        and "_" not in head else None
    regex = "".join(".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
                    for ch in pattern)
    return re.compile(regex, re.DOTALL), prefix
