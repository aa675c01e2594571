"""Differential tests: generated row functions must match the interpreter.

The generator (:mod:`repro.sql.compile`) is only allowed to be *faster*
than the tree-walking :class:`~repro.sql.expressions.Evaluator` — never
different.  A randomized corpus of bound expression trees (literals,
binds, NULLs, AND/OR/NOT short-circuits, functions, column refs) is run
through both and every result — value, or exception class and message —
must agree, Kleene three-valued logic included, for well-typed, NULL,
``None``, bool and missing binds alike.
"""

import random

import pytest

from repro.sql import ast_nodes as ast
from repro.sql.builtins import register_builtins
from repro.sql.catalog import Catalog, ColumnInfo, SQLFunction, TableDef
from repro.sql.compile import compile_row_function
from repro.sql.expressions import Evaluator, RowContext
from repro.testing import interpreter_forced, scanned
from repro.types.datatypes import NUMBER, VARCHAR2
from repro.types.values import NULL


# ---------------------------------------------------------------------------
# randomized expression corpus
# ---------------------------------------------------------------------------

def _col(name):
    return ast.ColumnRef(path=["t", name], alias="t", column=name)


class ExprGen:
    """Seeded random generator of *bound* expression trees.

    Trees are loosely type-disciplined ("num" / "str" kinds) so most of
    the corpus evaluates cleanly, but NULL-able columns, NULL literals,
    and the occasional division keep the NULL-propagation and
    error paths exercised.
    """

    NUM_COLS = ["a", "c", "d"]   # c is NULL in some rows
    STR_COLS = ["b", "e"]        # e is NULL in some rows

    def __init__(self, rng):
        self.rng = rng

    def num(self, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.3:
            return r.choice([
                lambda: ast.Literal(r.randint(-5, 5)),
                lambda: ast.Literal(round(r.uniform(-3, 3), 2)),
                lambda: ast.Literal(NULL),
                lambda: _col(r.choice(self.NUM_COLS)),
                lambda: ast.BindParam("1"),
            ])()
        pick = r.random()
        if pick < 0.55:
            op = r.choice(["+", "-", "*", "/"])
            return ast.BinaryOp(op, self.num(depth - 1), self.num(depth - 1))
        if pick < 0.7:
            return ast.UnaryMinus(self.num(depth - 1))
        fn = r.choice(["abs", "length", "nvl", "coalesce", "mod"])
        if fn == "abs":
            return ast.FuncCall("abs", [self.num(depth - 1)])
        if fn == "length":
            return ast.FuncCall("length", [self.s(depth - 1)])
        if fn == "mod":
            return ast.FuncCall("mod", [self.num(depth - 1),
                                        self.num(depth - 1)])
        return ast.FuncCall(fn, [self.num(depth - 1), self.num(depth - 1)])

    def s(self, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.4:
            return r.choice([
                lambda: ast.Literal(r.choice(["", "apple", "Banana", "x_y"])),
                lambda: ast.Literal(NULL),
                lambda: _col(r.choice(self.STR_COLS)),
                lambda: ast.BindParam("2"),
            ])()
        pick = r.random()
        if pick < 0.4:
            return ast.BinaryOp("||", self.s(depth - 1), self.s(depth - 1))
        fn = r.choice(["upper", "lower", "substr"])
        if fn == "substr":
            return ast.FuncCall("substr", [self.s(depth - 1),
                                           ast.Literal(r.randint(1, 3))])
        return ast.FuncCall(fn, [self.s(depth - 1)])

    def pred(self, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.25:
            kind = self.num if r.random() < 0.6 else self.s
            op = r.choice(["=", "!=", "<", "<=", ">", ">="])
            return ast.BinaryOp(op, kind(1), kind(1))
        pick = r.random()
        if pick < 0.35:
            return ast.BoolOp(r.choice(["AND", "OR"]),
                              self.pred(depth - 1), self.pred(depth - 1))
        if pick < 0.45:
            return ast.NotOp(self.pred(depth - 1))
        if pick < 0.55:
            kind = self.num if r.random() < 0.5 else self.s
            return ast.IsNullOp(kind(depth - 1),
                                negated=r.random() < 0.5)
        if pick < 0.65:
            pattern = ast.Literal(r.choice(["%a%", "x_y", "%", "Ban%"])) \
                if r.random() < 0.7 else self.s(1)
            return ast.LikeOp(self.s(depth - 1), pattern,
                              negated=r.random() < 0.3)
        if pick < 0.8:
            return ast.BetweenOp(self.num(depth - 1), self.num(1),
                                 self.num(1), negated=r.random() < 0.3)
        return ast.InListOp(self.num(depth - 1),
                            [self.num(1) for __ in range(r.randint(1, 3))],
                            negated=r.random() < 0.3)


def _contexts():
    rows = [
        (1, "apple", 2, 1.5, "x_y"),
        (-3, "Banana", NULL, -0.5, "apple"),
        (0, "", 7, 0.0, NULL),
        (5, "x_y", NULL, 2.25, ""),
    ]
    out = []
    for a, b, c, d, e in rows:
        out.append(RowContext(values={
            ("t", "a"): a, ("t", "b"): b, ("t", "c"): c,
            ("t", "d"): d, ("t", "e"): e}))
    return out


def _outcome(fn):
    """(tag, payload) capture of a call: result repr or exception type."""
    try:
        return ("ok", repr(fn()))
    except Exception as exc:  # noqa: BLE001 - parity includes errors
        return ("err", type(exc).__name__, str(exc))


#: the corpus's table, as the planner's scope would describe it: the
#: declared column types let comparisons use native operators
TABLES = {"t": TableDef(
    name="t", storage=None,
    columns=[ColumnInfo("a", NUMBER), ColumnInfo("b", VARCHAR2),
             ColumnInfo("c", NUMBER), ColumnInfo("d", NUMBER),
             ColumnInfo("e", VARCHAR2)])}

#: bind sets beyond the seeded well-typed one: the factory declines
#: each (NULL, ``None``, bool, missing) and the interpreter answers
ODD_BINDS = [{"1": NULL, "2": "apple"}, {"1": 2, "2": None},
             {"1": True, "2": "b"}, {"2": "x_y"}, {}]


class _Harness:
    """One expression, generated and interpreted, over every context."""

    def __init__(self, catalog, expr, truth):
        self.expr = expr
        self.truth = truth
        self.catalog = catalog
        self.factory = compile_row_function(expr, TABLES, catalog, truth)
        assert self.factory is not None, f"generator declined {expr!r}"

    def check(self, binds):
        """Assert parity under ``binds``; return how many rows the
        generated code ran (0 when the factory declined the binds)."""
        evaluator = Evaluator(self.catalog, binds)
        expr = self.expr
        if self.truth:
            def interpret(ctx):
                return evaluator.truth(expr, ctx) is True
        else:
            def interpret(ctx):
                return evaluator.evaluate(expr, ctx)
        fell_back = []

        def fallback(ctx):
            fell_back.append(ctx)
            return interpret(ctx)

        fn = self.factory(binds, fallback)
        if fn is None:
            return 0
        for ctx in _contexts():
            del fell_back[:]
            expected = _outcome(lambda: interpret(ctx))
            got = _outcome(lambda: fn(ctx))
            assert got == expected, f"diverged on {expr!r} with {binds!r}"
            # the fallback is for rows the interpreter rejects too: a
            # row it evaluates cleanly never needed it
            assert not fell_back or expected[0] == "err", expr
        return len(_contexts())


class TestRandomizedDifferential:
    @pytest.fixture(scope="class")
    def catalog(self):
        catalog = Catalog()
        register_builtins(catalog)
        return catalog

    @pytest.mark.parametrize("seed", range(40))
    def test_predicates_match_interpreter(self, catalog, seed):
        rng = random.Random(seed)
        gen = ExprGen(rng)
        binds = {"1": rng.randint(-4, 4), "2": rng.choice(["apple", "", "Z"])}
        for __ in range(25):
            expr = gen.pred(3)
            # truth position (is it TRUE) and value position (the
            # three-valued result itself)
            for truth in (True, False):
                harness = _Harness(catalog, expr, truth)
                assert harness.check(binds) > 0
                for odd in ODD_BINDS:
                    harness.check(odd)

    @pytest.mark.parametrize("seed", range(40, 80))
    def test_values_match_interpreter(self, catalog, seed):
        rng = random.Random(seed)
        gen = ExprGen(rng)
        binds = {"1": rng.randint(-4, 4), "2": rng.choice(["b", "x_y"])}
        for __ in range(25):
            expr = gen.num(3) if rng.random() < 0.5 else gen.s(3)
            harness = _Harness(catalog, expr, truth=False)
            assert harness.check(binds) > 0
            for odd in ODD_BINDS:
                harness.check(odd)

    def test_one_generated_form_serves_all_bind_values(self, catalog):
        """Bind-slot hoisting: generate once, execute with many bind
        sets; the sets outside the generated contract are declined."""
        expr = ast.BoolOp(
            "AND",
            ast.BinaryOp(">", _col("a"), ast.BindParam("1")),
            ast.LikeOp(_col("b"), ast.BindParam("2")))
        factory = compile_row_function(expr, TABLES, catalog, truth=True)
        ctx = _contexts()[0]  # a=1, b='apple'
        assert factory({"1": 0, "2": "%appl%"}, None)(ctx) is True
        assert factory({"2": "%appl%", "1": 5}, None)(ctx) is False
        for declined in ({"1": NULL, "2": "%appl%"}, {"1": True, "2": "%"},
                         {"1": "0", "2": "%"}, {"1": 0, "2": 7}, {}):
            assert factory(declined, None) is None

    def test_short_circuit_parity_with_poison_operand(self, catalog):
        """AND short-circuits before a type error, exactly like the
        interpreter; OR must still raise when the left side is FALSE."""
        poison = ast.BinaryOp("=", ast.Literal(1), _col("b"))  # int vs str
        false_leaf = ast.BinaryOp("=", ast.Literal(1), ast.Literal(2))
        for expr in (ast.BoolOp("AND", false_leaf, poison),
                     ast.BoolOp("OR", false_leaf, poison)):
            for truth in (True, False):
                assert _Harness(catalog, expr, truth).check({}) > 0

    def test_error_behind_a_null_is_not_skipped(self, catalog):
        """The interpreter evaluates the right side of AND when the
        left is NULL: what it raises there must still be raised."""
        null_left = ast.BinaryOp(">", _col("c"), ast.Literal(0))
        raises = ast.BinaryOp(
            ">", ast.BinaryOp("/", ast.Literal(1), _col("d")), ast.Literal(0))
        for expr in (ast.BoolOp("AND", null_left, raises),
                     ast.NotOp(ast.BoolOp("OR", null_left, raises)),
                     ast.BetweenOp(_col("c"), ast.Literal(1),
                                   ast.BinaryOp("/", ast.Literal(1),
                                                _col("d")))):
            for truth in (True, False):
                assert _Harness(catalog, expr, truth).check({}) > 0


class TestFunctionCalls:
    """A registered function may have side effects: the generated code
    calls it as often as the interpreter does — once — never again."""

    @pytest.fixture()
    def counted(self):
        catalog = Catalog()
        register_builtins(catalog)
        calls = []
        catalog.add_function(SQLFunction(
            name="tick", fn=lambda x: calls.append(x) or x))
        return catalog, calls

    def test_functions_are_not_folded(self, counted):
        """A literal-argument call still runs once per row."""
        catalog, calls = counted
        fn = compile_row_function(
            ast.FuncCall("tick", [ast.Literal(7)]), TABLES, catalog)({}, None)
        assert fn(RowContext()) == 7 and fn(RowContext()) == 7
        assert calls == [7, 7]

    @pytest.mark.parametrize("expr", [
        # a later operand the generated code cannot handle natively
        ast.BinaryOp("+", ast.FuncCall("tick", [_col("a")]), _col("b")),
        ast.BinaryOp("/", ast.FuncCall("tick", [_col("a")]), _col("d")),
        ast.BoolOp("AND", ast.BinaryOp(">", _col("c"), ast.Literal(0)),
                   ast.BinaryOp("=", ast.FuncCall("tick", [_col("a")]),
                                _col("b"))),
        ast.BetweenOp(ast.FuncCall("tick", [_col("a")]), ast.Literal(NULL),
                      ast.FuncCall("tick", [_col("d")]), negated=True),
        ast.InListOp(ast.Literal(1), [ast.FuncCall("tick", [_col("a")]),
                                      ast.FuncCall("tick", [_col("c")])]),
    ])
    def test_call_counts_match_the_interpreter(self, counted, expr):
        catalog, calls = counted
        evaluator = Evaluator(catalog, {})
        for truth in (True, False):
            fn = compile_row_function(expr, TABLES, catalog, truth)({}, None)
            for ctx in _contexts():
                del calls[:]
                if truth:
                    expected = _outcome(
                        lambda: evaluator.truth(expr, ctx) is True)
                else:
                    expected = _outcome(lambda: evaluator.evaluate(expr, ctx))
                interpreted, calls[:] = list(calls), []
                assert _outcome(lambda: fn(ctx)) == expected
                assert calls == interpreted, expr


class TestLowering:
    def test_constant_errors_surface_at_execution_not_generation(self):
        """1/0 must raise when a row is evaluated — never at plan time,
        and never for a query over an empty table."""
        catalog = Catalog()
        expr = ast.BinaryOp("/", ast.Literal(1), ast.Literal(0))
        harness = _Harness(catalog, expr, truth=False)  # must not raise
        assert harness.check({}) > 0
        with pytest.raises(Exception, match="division by zero"):
            Evaluator(catalog).evaluate(expr, RowContext())


# ---------------------------------------------------------------------------
# end-to-end SQL differential (generated vs interpreter-forced)
# ---------------------------------------------------------------------------

QUERIES = [
    "SELECT id, name FROM people WHERE id > 3 AND score < 80",
    "SELECT id FROM people WHERE name LIKE 'n%e' OR score IS NULL",
    "SELECT id, score * 2 FROM people WHERE NOT (id BETWEEN 2 AND 8)",
    "SELECT id FROM people WHERE id IN (1, 3, 5) ORDER BY score DESC",
    "SELECT name, count(*), max(score) FROM people"
    " GROUP BY name HAVING count(*) >= 1 ORDER BY name",
    "SELECT upper(name) || '!' FROM people WHERE length(name) > 4",
    "SELECT DISTINCT score IS NULL FROM people ORDER BY 1",
    # literal NULL in truth and value position of the kernel generator
    "SELECT id FROM people WHERE score = NULL OR id = 4",
    "SELECT NULL, score + NULL, -score FROM people WHERE NOT (id > 9)",
]


class TestEndToEndDifferential:
    @pytest.fixture()
    def people_db(self, db):
        db.execute("CREATE TABLE people (id NUMBER, name VARCHAR2(30),"
                   " score NUMBER)")
        rng = random.Random(99)
        for i in range(60):
            score = NULL if rng.random() < 0.2 else rng.randint(0, 100)
            db.execute("INSERT INTO people VALUES (:1, :2, :3)",
                       [i, f"name{i % 7}", score])
        return db

    @pytest.mark.vectorized
    @pytest.mark.parametrize("sql", QUERIES)
    def test_generated_and_interpreted_rows_agree(self, people_db, sql):
        """Default execution (vector kernels, row functions) against
        the tree-walking interpreter.  NULL-heavy scores keep the
        validity handling honest on every query."""
        generated = people_db.execute(sql).fetchall()
        with interpreter_forced(people_db):
            interpreted = people_db.execute(sql).fetchall()
        assert [tuple(map(repr, r)) for r in generated] \
            == [tuple(map(repr, r)) for r in interpreted]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_every_corpus_expression_is_generated(self, people_db, sql):
        """Coverage: each of these plans was [COMPILED] on every node
        when closures were the row tier; none may move to the
        interpreter silently."""
        lines = people_db.explain(sql)
        assert any("[COMPILED]" in ln for ln in lines)
        assert not any("[INTERPRETED]" in ln for ln in lines), lines

    def test_bind_reexecution_against_shared_cached_plan(self, people_db):
        sql = "SELECT id FROM people WHERE id < :1 ORDER BY id"
        first = people_db.execute(sql, [3]).fetchall()
        hits_before = people_db.plan_cache.stats.hits
        second = people_db.execute(sql, [5]).fetchall()
        assert people_db.plan_cache.stats.hits == hits_before + 1
        assert first == [(0,), (1,), (2,)]
        assert second == [(0,), (1,), (2,), (3,), (4,)]

    def test_functional_operator_falls_back_identically(self, employees_db):
        """An OperatorCall in a filter is interpreter-only; results must
        not change when its generated neighbours are interpreted too."""
        employees_db.execute("DROP INDEX resume_text_index")
        sql = ("SELECT id FROM employees"
               " WHERE Contains(resume, 'unix') AND id < 5 ORDER BY id")
        generated = employees_db.execute(sql).fetchall()
        with interpreter_forced(employees_db):
            interpreted = employees_db.execute(sql).fetchall()
        assert generated == interpreted == [(1,), (3,)]


# ---------------------------------------------------------------------------
# EXPLAIN markers
# ---------------------------------------------------------------------------

class TestExplainMarkers:
    def test_compiled_marker_on_filtering_scan(self, db):
        db.execute("CREATE TABLE t (id NUMBER, name VARCHAR2(10))")
        db.execute("INSERT INTO t VALUES (1, 'a')")
        lines = db.explain("SELECT id FROM t WHERE id > 0 ORDER BY name")
        assert any("TABLE SCAN" in ln and "[COMPILED]" in ln for ln in lines)
        assert any(ln.strip().startswith("SORT") and "[COMPILED]" in ln
                   for ln in lines)
        assert any(ln.strip().startswith("PROJECT") and "[COMPILED]" in ln
                   for ln in lines)

    def test_interpreted_marker_on_operator_filter(self, employees_db):
        employees_db.execute("DROP INDEX resume_text_index")
        lines = employees_db.explain(
            "SELECT id FROM employees WHERE Contains(resume, 'unix')")
        assert any("TABLE SCAN" in ln and "[INTERPRETED]" in ln
                   for ln in lines)

    def test_no_marker_on_expressionless_node(self, db):
        db.execute("CREATE TABLE t (id NUMBER)")
        lines = db.explain("SELECT id FROM t")
        scan = next(ln for ln in lines if "TABLE SCAN" in ln)
        assert "[COMPILED]" not in scan and "[INTERPRETED]" not in scan


# ---------------------------------------------------------------------------
# satellite fixes: sort keys and per-statement constants
# ---------------------------------------------------------------------------

class TestSortAndConstSatellites:
    def test_order_by_nulls_last_in_both_directions(self, db):
        db.execute("CREATE TABLE t (id NUMBER, v NUMBER)")
        for i, v in [(1, 10), (2, NULL), (3, 5), (4, NULL), (5, 20)]:
            db.execute("INSERT INTO t VALUES (:1, :2)", [i, v])
        asc = db.execute("SELECT id FROM t ORDER BY v").fetchall()
        desc = db.execute("SELECT id FROM t ORDER BY v DESC").fetchall()
        assert [r[0] for r in asc][:3] == [3, 1, 5]
        assert set(r[0] for r in asc[3:]) == {2, 4}  # NULLS LAST
        assert [r[0] for r in desc][:3] == [5, 1, 3]
        assert set(r[0] for r in desc[3:]) == {2, 4}  # still last

    def test_sort_keys_evaluated_once_per_row(self, db):
        calls = []
        db.catalog.add_function(SQLFunction(
            name="spy", fn=lambda x: calls.append(x) or x))
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(16):
            db.execute("INSERT INTO t VALUES (:1)", [i])
        db.execute("SELECT id FROM t ORDER BY spy(id)").fetchall()
        assert len(calls) == 16  # not O(n log n) comparator evaluations

    def test_const_expression_evaluated_once_per_statement(self, db):
        calls = []
        db.catalog.add_function(SQLFunction(
            name="keyfn", fn=lambda: calls.append(1) or 7))
        db.execute("CREATE TABLE t (id NUMBER, v NUMBER)")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (:1, :2)", [i, i])
        db.execute("CREATE INDEX t_id ON t(id)")
        rows = db.execute("SELECT v FROM t WHERE id = keyfn()").fetchall()
        assert rows == [(7,)]
        # an equality sarg feeds both bounds of the B-tree scan: without
        # the per-statement memo the function would run twice
        assert len(calls) == 1
        calls.clear()
        db.execute("SELECT v FROM t WHERE id = keyfn()").fetchall()
        assert len(calls) == 1  # once per execution, not zero


# ---------------------------------------------------------------------------
# batch plumbing
# ---------------------------------------------------------------------------

class TestBatchPipeline:
    def test_scan_batches_matches_scan_with_deletes(self, db):
        db.execute("CREATE TABLE t (id NUMBER, pad VARCHAR2(100))")
        for i in range(200):
            db.execute("INSERT INTO t VALUES (:1, :2)", [i, "x" * 50])
        db.execute("DELETE FROM t WHERE id BETWEEN 50 AND 149")
        storage = db.catalog.get_table("t").storage
        pages = list(storage.scan_batches())
        assert [row for __, row in scanned(pages)] == [
            [i, "x" * 50] for i in [*range(50), *range(150, 200)]]
        assert len(pages) > 1 and all(len(rowids) > 0 for rowids, __ in pages)
        assert [row[0] for row in storage.fetch_batch(
            [rowid for rowid, __ in scanned(pages)])[1]] \
            == [*range(50), *range(150, 200)]

    @pytest.mark.parametrize("batch_size", [1, 3, 32, 1000])
    def test_results_invariant_under_batch_size(self, db, batch_size):
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(50):
            db.execute("INSERT INTO t VALUES (:1)", [i])
        db.fetch_batch_size = batch_size
        rows = db.execute(
            "SELECT id FROM t WHERE id >= 40 ORDER BY id").fetchall()
        assert rows == [(i,) for i in range(40, 50)]

    def test_limit_stops_the_batched_pipeline_early(self, db):
        calls = []
        db.catalog.add_function(SQLFunction(
            name="probe", fn=lambda x: calls.append(x) or x))
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(500):
            db.execute("INSERT INTO t VALUES (:1)", [i])
        with db.execute("SELECT probe(id) FROM t WHERE id >= 0 LIMIT 3"):
            pass
        # projection ran for at most a page or so of rows, not all 500
        assert len(calls) < 500

    def test_fetchmany_batches(self, db):
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (:1)", [i])
        cur = db.execute("SELECT id FROM t ORDER BY id")
        assert cur.fetchmany(4) == [(0,), (1,), (2,), (3,)]
        assert cur.fetchmany(0) == []
        assert cur.fetchmany(100) == [(i,) for i in range(4, 10)]
        assert cur.fetchmany(5) == []
