"""Property test: the SQL engine agrees with an independent evaluator.

Random tables (with NULLs) and random predicate trees are run through
the full lexer → parser → planner → executor pipeline, with and without
indexes, and compared against a hand-rolled three-valued-logic
evaluator written directly in the test.  Any planner shortcut, index
maintenance bug, or NULL-semantics slip shows up as a disagreement.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine

COLUMNS = ("a", "b", "c")

value_int = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
value_str = st.one_of(st.none(), st.sampled_from(["x", "y", "z", "xy"]))
rows_strategy = st.lists(
    st.tuples(value_int, value_int, value_str), min_size=0, max_size=30)

comparison_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def predicates(draw, depth=0):
    kind = draw(st.sampled_from(
        ["cmp", "cmp", "cmp", "like", "null", "between", "in"]
        + (["and", "or", "not"] if depth < 3 else [])))
    if kind == "cmp":
        column = draw(st.sampled_from(["a", "b"]))
        op = draw(comparison_ops)
        value = draw(st.integers(min_value=-5, max_value=5))
        return ("cmp", column, op, value)
    if kind == "like":
        pattern = draw(st.sampled_from(["x%", "%y", "x_", "%"]))
        return ("like", "c", pattern)
    if kind == "null":
        column = draw(st.sampled_from(COLUMNS))
        negated = draw(st.booleans())
        return ("null", column, negated)
    if kind == "between":
        low = draw(st.integers(min_value=-5, max_value=5))
        high = draw(st.integers(min_value=-5, max_value=5))
        return ("between", "a", min(low, high), max(low, high))
    if kind == "in":
        items = draw(st.lists(st.integers(min_value=-5, max_value=5),
                              min_size=1, max_size=3))
        return ("in", "b", tuple(items))
    if kind == "not":
        return ("not", draw(predicates(depth=depth + 1)))
    left = draw(predicates(depth=depth + 1))
    right = draw(predicates(depth=depth + 1))
    return (kind, left, right)


def to_sql(pred) -> str:
    kind = pred[0]
    if kind == "cmp":
        __, column, op, value = pred
        return f"{column} {op} {value}"
    if kind == "like":
        return f"{pred[1]} LIKE '{pred[2]}'"
    if kind == "null":
        return f"{pred[1]} IS {'NOT ' if pred[2] else ''}NULL"
    if kind == "between":
        return f"{pred[1]} BETWEEN {pred[2]} AND {pred[3]}"
    if kind == "in":
        items = ", ".join(str(v) for v in pred[2])
        return f"{pred[1]} IN ({items})"
    if kind == "not":
        return f"NOT ({to_sql(pred[1])})"
    return f"({to_sql(pred[1])}) {kind.upper()} ({to_sql(pred[2])})"


# --- the independent evaluator (Kleene logic over Python values) ----------

def k_not(v):
    return None if v is None else not v


def k_and(x, y):
    if x is False or y is False:
        return False
    if x is None or y is None:
        return None
    return True


def k_or(x, y):
    if x is True or y is True:
        return True
    if x is None or y is None:
        return None
    return False


def evaluate(pred, row):
    a, b, c = row
    values = {"a": a, "b": b, "c": c}
    kind = pred[0]
    if kind == "cmp":
        __, column, op, constant = pred
        value = values[column]
        if value is None:
            return None
        return {"=": value == constant, "!=": value != constant,
                "<": value < constant, "<=": value <= constant,
                ">": value > constant, ">=": value >= constant}[op]
    if kind == "like":
        value = values[pred[1]]
        if value is None:
            return None
        import re
        regex = "".join(".*" if ch == "%" else "." if ch == "_"
                        else re.escape(ch) for ch in pred[2])
        return re.fullmatch(regex, value) is not None
    if kind == "null":
        result = values[pred[1]] is None
        return (not result) if pred[2] else result
    if kind == "between":
        value = values[pred[1]]
        if value is None:
            return None
        return pred[2] <= value <= pred[3]
    if kind == "in":
        value = values[pred[1]]
        if value is None:
            return None
        return value in pred[2]
    if kind == "not":
        return k_not(evaluate(pred[1], row))
    left = evaluate(pred[1], row)
    right = evaluate(pred[2], row)
    return k_and(left, right) if kind == "and" else k_or(left, right)


def expected_ids(rows, pred):
    return sorted(i for i, row in enumerate(rows)
                  if evaluate(pred, row) is True)


def load(rows, with_indexes):
    db = Engine().connect()
    db.execute("CREATE TABLE t (rid INTEGER, a INTEGER, b INTEGER,"
               " c VARCHAR2(8))")
    db.insert_rows("t", [[i, a, b, c] for i, (a, b, c) in enumerate(rows)])
    if with_indexes:
        db.execute("CREATE INDEX t_a ON t(a)")
        db.execute("CREATE INDEX t_b ON t(b)")
        db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
    return db


@given(rows_strategy, predicates())
@settings(max_examples=120, deadline=None)
def test_engine_matches_model_without_indexes(rows, pred):
    db = load(rows, with_indexes=False)
    got = db.execute(f"SELECT rid FROM t WHERE {to_sql(pred)}").fetchall()
    assert sorted(r[0] for r in got) == expected_ids(rows, pred)


@given(rows_strategy, predicates())
@settings(max_examples=120, deadline=None)
def test_engine_matches_model_with_indexes(rows, pred):
    db = load(rows, with_indexes=True)
    got = db.execute(f"SELECT rid FROM t WHERE {to_sql(pred)}").fetchall()
    assert sorted(r[0] for r in got) == expected_ids(rows, pred)


@given(rows_strategy, predicates(), st.data())
@settings(max_examples=60, deadline=None)
def test_results_survive_dml_and_rollback(rows, pred, data):
    """After random updates/deletes + rollback, queries see original data."""
    db = load(rows, with_indexes=True)
    db.begin()
    if rows:
        victim = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        db.execute("DELETE FROM t WHERE rid = :1", [victim])
        db.execute("UPDATE t SET a = 99 WHERE rid >= :1", [victim])
    db.rollback()
    got = db.execute(f"SELECT rid FROM t WHERE {to_sql(pred)}").fetchall()
    assert sorted(r[0] for r in got) == expected_ids(rows, pred)


@given(rows_strategy)
@settings(max_examples=60, deadline=None)
def test_aggregates_match_model(rows):
    db = load(rows, with_indexes=False)
    got = db.execute("SELECT COUNT(*), COUNT(a), SUM(b), MIN(a), MAX(b)"
                     " FROM t").fetchall()[0]
    a_values = [a for a, __, __c in rows if a is not None]
    b_values = [b for __, b, __c in rows if b is not None]
    assert got[0] == len(rows)
    assert got[1] == len(a_values)
    from repro.types.values import is_null
    assert (is_null(got[2]) and not b_values) or got[2] == sum(b_values)
    assert (is_null(got[3]) and not a_values) or got[3] == min(a_values)
    assert (is_null(got[4]) and not b_values) or got[4] == max(b_values)
