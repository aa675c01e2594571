"""Binder and evaluator details: scoping, aggregates, operators, builtins."""

import pytest

from repro.errors import CatalogError, ExecutionError
from repro.sql.expressions import (
    AggregateCall, Binder, Evaluator, OperatorCall, RowContext, Scope)
from repro.sql.parser import parse_expression
from repro.types.values import NULL, is_null


@pytest.fixture
def bound_db(db):
    db.execute("CREATE TABLE t (a NUMBER, b VARCHAR2(20))")
    return db


def bind(db, text, alias="t", table="t"):
    scope = Scope([(alias, db.catalog.get_table(table))])
    return Binder(db.catalog, scope).bind(parse_expression(text))


def ctx_for(alias="t", **values):
    ctx = RowContext()
    for key, value in values.items():
        ctx.values[(alias, key)] = value
    return ctx


class TestBinder:
    def test_bare_column(self, bound_db):
        ref = bind(bound_db, "a")
        assert ref.alias == "t" and ref.column == "a"

    def test_qualified_column(self, bound_db):
        ref = bind(bound_db, "t.a")
        assert ref.column == "a"

    def test_unknown_column(self, bound_db):
        with pytest.raises(CatalogError):
            bind(bound_db, "zzz")

    def test_unknown_function(self, bound_db):
        with pytest.raises(CatalogError):
            bind(bound_db, "NoSuchFunc(a)")

    def test_aggregate_classified(self, bound_db):
        agg = bind(bound_db, "SUM(a)")
        assert isinstance(agg, AggregateCall)
        assert agg.func == "sum"

    def test_operator_classified(self, text_db):
        text_db.execute("CREATE TABLE docs (body VARCHAR2(100))")
        scope = Scope([("docs", text_db.catalog.get_table("docs"))])
        call = Binder(text_db.catalog, scope).bind(
            parse_expression("Contains(body, 'x')"))
        assert isinstance(call, OperatorCall)
        assert call.operator.name == "Contains"

    def test_schema_qualified_operator_resolves_by_tail(self, db):
        from repro.core.operators import Operator, OperatorBinding
        from repro.types.datatypes import NUMBER
        db.create_function("f", lambda x: x)
        db.catalog.add_operator(Operator(name="Ordsys.MyOp", bindings=[
            OperatorBinding([NUMBER], NUMBER, "f")]))
        db.execute("CREATE TABLE t (a NUMBER)")
        call = bind(db, "MyOp(a)")
        assert isinstance(call, OperatorCall)

    def test_ancillary_label_extracted(self, text_db):
        text_db.execute("CREATE TABLE docs (body VARCHAR2(100))")
        scope = Scope([("docs", text_db.catalog.get_table("docs"))])
        binder = Binder(text_db.catalog, scope)
        primary = binder.bind(parse_expression("Contains(body, 'x', 7)"))
        assert primary.label == 7
        score = binder.bind(parse_expression("Score(7)"))
        assert score.label == 7 and score.operator.is_ancillary

    def test_ancillary_without_label_rejected(self, text_db):
        text_db.execute("CREATE TABLE docs (body VARCHAR2(100))")
        scope = Scope([("docs", text_db.catalog.get_table("docs"))])
        with pytest.raises(ExecutionError):
            Binder(text_db.catalog, scope).bind(
                parse_expression("Score(body)"))


class TestEvaluator:
    def evaluate(self, db, text, **values):
        expr = bind(db, text)
        return Evaluator(db.catalog).evaluate(expr, ctx_for(**values))

    def test_arithmetic(self, bound_db):
        assert self.evaluate(bound_db, "a * 2 + 1", a=5, b="") == 11

    def test_null_propagation_in_arith(self, bound_db):
        assert is_null(self.evaluate(bound_db, "a + 1", a=NULL, b=""))

    def test_division_by_zero(self, bound_db):
        with pytest.raises(ExecutionError):
            self.evaluate(bound_db, "1 / (a - 5)", a=5, b="")

    def test_concat(self, bound_db):
        assert self.evaluate(bound_db, "b || '!'", a=0, b="hi") == "hi!"

    def test_short_circuit_and(self, bound_db):
        # right side would divide by zero, but left is already false
        value = self.evaluate(bound_db, "a > 100 AND 1 / a > 0",
                              a=0, b="")
        assert value is False

    def test_in_list_with_null(self, bound_db):
        assert is_null(self.evaluate(bound_db, "a IN (1, NULL)", a=2, b=""))
        assert self.evaluate(bound_db, "a IN (2, NULL)", a=2, b="") is True

    def test_between_negated(self, bound_db):
        assert self.evaluate(bound_db, "a NOT BETWEEN 1 AND 3",
                             a=5, b="") is True

    def test_is_null(self, bound_db):
        assert self.evaluate(bound_db, "a IS NULL", a=NULL, b="") is True
        assert self.evaluate(bound_db, "a IS NOT NULL", a=1, b="") is True

    def test_truth_of_numbers(self, bound_db):
        evaluator = Evaluator(bound_db.catalog)
        expr = bind(bound_db, "a")
        assert evaluator.truth(expr, ctx_for(a=1, b="")) is True
        assert evaluator.truth(expr, ctx_for(a=0, b="")) is False
        assert is_null(evaluator.truth(expr, ctx_for(a=NULL, b="")))

    def test_object_attribute_path(self, db):
        point = db.create_object_type("P", [("x", __import__(
            "repro.types.datatypes", fromlist=["NUMBER"]).NUMBER)])
        db.execute("CREATE TABLE t (p P)")
        expr = bind(db, "p.x")
        value = Evaluator(db.catalog).evaluate(
            expr, ctx_for(p=point.new(9)))
        assert value == 9

    def test_attr_of_null_object_is_null(self, db):
        db.create_object_type("Q", [("x", __import__(
            "repro.types.datatypes", fromlist=["NUMBER"]).NUMBER)])
        db.execute("CREATE TABLE t (p Q)")
        expr = bind(db, "p.x")
        assert is_null(Evaluator(db.catalog).evaluate(expr, ctx_for(p=NULL)))


class TestBuiltins:
    @pytest.mark.parametrize("expr,expected", [
        ("UPPER('ab')", "AB"),
        ("LOWER('AB')", "ab"),
        ("LENGTH('abc')", 3),
        ("SUBSTR('hello', 2)", "ello"),
        ("SUBSTR('hello', 2, 2)", "el"),
        ("SUBSTR('hello', -2)", "lo"),
        ("INSTR('hello', 'll')", 3),
        ("INSTR('hello', 'zz')", 0),
        ("TRIM('  x  ')", "x"),
        ("REPLACE('aaa', 'a', 'b')", "bbb"),
        ("CONCAT('a', 'b')", "ab"),
        ("ABS(-4)", 4),
        ("MOD(7, 3)", 1),
        ("POWER(2, 10)", 1024),
        ("SQRT(9)", 3.0),
        ("FLOOR(2.7)", 2),
        ("CEIL(2.1)", 3),
        ("ROUND(2.567, 2)", 2.57),
        ("SIGN(-9)", -1),
        ("LEAST(3, 1, 2)", 1),
        ("GREATEST(3, 1, 2)", 3),
        ("TO_NUMBER('42')", 42),
        ("TO_CHAR(42)", "42"),
        ("NVL(NULL, 'dflt')", "dflt"),
        ("NVL('x', 'dflt')", "x"),
        ("COALESCE(NULL, NULL, 5)", 5),
    ])
    def test_builtin(self, db, expr, expected):
        db.execute("CREATE TABLE dual (x NUMBER)")
        db.execute("INSERT INTO dual VALUES (1)")
        assert db.execute(
            f"SELECT {expr} FROM dual").fetchall()[0][0] == expected

    def test_null_safety(self, db):
        db.execute("CREATE TABLE dual (x NUMBER)")
        db.execute("INSERT INTO dual VALUES (NULL)")
        assert is_null(db.execute(
            "SELECT UPPER(x) FROM dual").fetchall()[0][0])
