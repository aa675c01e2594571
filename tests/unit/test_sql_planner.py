"""Planner: access-path selection, EXPLAIN output, statistics use."""

import pytest

from repro.sql import ast_nodes as ast
from repro.sql.planner import (
    BTreeScan, FullScan, OperatorPred, Sarg, and_together,
    extract_equijoin, extract_operator_pred, extract_sarg, extract_sargs,
    split_conjuncts)
from repro.sql.parser import parse, parse_expression


@pytest.fixture
def big(db):
    db.execute("CREATE TABLE big (id INTEGER, grp VARCHAR2(8), val NUMBER)")
    rows = [[i, f"g{i % 4}", i * 1.5] for i in range(400)]
    db.insert_rows("big", rows)
    return db


class TestConjunctHelpers:
    def test_split_flattens_ands(self):
        expr = parse_expression("a = 1 AND b = 2 AND c = 3")
        assert len(split_conjuncts(expr)) == 3

    def test_or_not_split(self):
        expr = parse_expression("a = 1 OR b = 2")
        assert len(split_conjuncts(expr)) == 1

    def test_none(self):
        assert split_conjuncts(None) == []

    def test_and_together_roundtrip(self):
        conjuncts = split_conjuncts(parse_expression("a = 1 AND b = 2"))
        rebuilt = and_together(conjuncts)
        assert isinstance(rebuilt, ast.BoolOp)
        assert and_together([]) is None


class TestSargExtraction:
    def _bind(self, db, text):
        from repro.sql.expressions import Binder, Scope
        table = db.catalog.get_table("big")
        return Binder(db.catalog, Scope([("big", table)])).bind(
            parse_expression(text))

    def test_col_relop_const(self, big):
        sarg = extract_sarg(self._bind(big, "id = 5"))
        assert isinstance(sarg, Sarg)
        assert sarg.op == "="

    def test_const_relop_col_flipped(self, big):
        sarg = extract_sarg(self._bind(big, "5 < id"))
        assert sarg.op == ">"
        assert sarg.column_ref.column == "id"

    def test_col_vs_expr_not_sargable(self, big):
        assert extract_sarg(self._bind(big, "id = val")) is None

    def test_like_not_sarg(self, big):
        assert extract_sarg(self._bind(big, "grp LIKE 'g%'")) is None

    def test_between_is_a_pair_of_range_sargs(self, big):
        low, high = extract_sargs(self._bind(big, "id BETWEEN 3 AND :1"))
        assert (low.op, high.op) == (">=", "<=")
        assert low.column_ref.column == high.column_ref.column == "id"
        assert low.source is high.source

    def test_not_between_and_computed_between_are_not_sargs(self, big):
        assert extract_sargs(self._bind(big, "id NOT BETWEEN 3 AND 9")) == []
        assert extract_sargs(self._bind(big, "id BETWEEN val AND 9")) == []


class TestAccessPathChoice:
    def test_no_index_full_scan(self, big):
        plan = big.explain("SELECT * FROM big WHERE id = 5")
        assert any("TABLE SCAN" in line for line in plan)

    def test_btree_chosen_for_selective_eq(self, big):
        big.execute("CREATE INDEX big_id ON big(id)")
        big.execute("ANALYZE TABLE big COMPUTE STATISTICS")
        plan = big.explain("SELECT * FROM big WHERE id = 5")
        assert any("INDEX RANGE SCAN big_id" in line for line in plan)

    def test_btree_range(self, big):
        big.execute("CREATE INDEX big_id ON big(id)")
        plan = big.explain("SELECT * FROM big WHERE id > 390")
        assert any("INDEX RANGE SCAN" in line for line in plan)
        rows = big.query("SELECT id FROM big WHERE id > 390")
        assert len(rows) == 9

    def test_hash_index_eq_only(self, big):
        big.execute("CREATE HASH INDEX big_hash ON big(id)")
        big.execute("ANALYZE TABLE big COMPUTE STATISTICS")
        plan = big.explain("SELECT * FROM big WHERE id = 5")
        assert any("HASH INDEX SCAN" in line for line in plan)
        plan = big.explain("SELECT * FROM big WHERE id > 5")
        assert not any("HASH INDEX SCAN" in line for line in plan)

    def test_bitmap_index(self, big):
        # without ANALYZE the optimizer assumes equality is selective
        big.execute("CREATE BITMAP INDEX big_grp ON big(grp)")
        plan = big.explain("SELECT * FROM big WHERE grp = 'g1'")
        assert any("BITMAP INDEX SCAN" in line for line in plan)
        rows = big.query("SELECT COUNT(*) FROM big WHERE grp = 'g1'")
        assert rows == [(100,)]

    def test_unselective_eq_prefers_full_scan(self, big):
        big.execute("CREATE INDEX big_grp_b ON big(grp)")
        big.execute("ANALYZE TABLE big COMPUTE STATISTICS")
        # grp has 4 distinct values: 25% selectivity, full scan cheaper
        plan = big.explain("SELECT * FROM big WHERE grp = 'g1'")
        assert any("TABLE SCAN" in line for line in plan)

    def test_residual_filter_applied(self, big):
        big.execute("CREATE INDEX big_id ON big(id)")
        rows = big.query("SELECT id FROM big WHERE id > 395 AND grp = 'g1'")
        assert all(r[0] % 4 == 1 for r in rows)

    def test_analyze_updates_stats(self, big):
        big.execute("ANALYZE TABLE big COMPUTE STATISTICS")
        table = big.catalog.get_table("big")
        assert table.stats.analyzed
        assert table.stats.row_count == 400
        assert table.stats.columns["grp"].ndv == 4
        assert table.stats.columns["id"].min_value == 0
        assert table.stats.columns["id"].max_value == 399


class TestTwoSidedRanges:
    """Two range sargs on an index's leading column — or one BETWEEN —
    become one B-tree scan bounded on both sides (anomaly A7: a
    one-sided scan walked to the end of the index and filtered)."""

    @pytest.fixture
    def ranged(self, big):
        big.execute("CREATE INDEX big_id ON big(id)")
        big.execute("ANALYZE TABLE big COMPUTE STATISTICS")
        return big

    @staticmethod
    def _scan(db, sql):
        node = db.planner.plan_select(parse(sql)).root
        while not isinstance(node, (BTreeScan, FullScan)):
            node = node.child
        return node

    def test_two_conjuncts_merge_into_one_scan(self, ranged):
        scan = self._scan(ranged,
                          "SELECT id FROM big WHERE id >= 10 AND id <= 20")
        assert isinstance(scan, BTreeScan)
        assert (scan.low.value, scan.high.value) == (10, 20)
        assert scan.low_inclusive and scan.high_inclusive
        assert scan.filter is None  # both conjuncts consumed
        assert ranged.execute(
            "SELECT id FROM big WHERE id >= 10 AND id <= 20"
        ).fetchall() == [(i,) for i in range(10, 21)]

    def test_exclusive_and_flipped_bounds_keep_their_inclusivity(self, ranged):
        scan = self._scan(ranged,
                          "SELECT id FROM big WHERE 20 > id AND id > 10")
        assert (scan.low.value, scan.high.value) == (10, 20)
        assert not scan.low_inclusive and not scan.high_inclusive
        assert ranged.execute(
            "SELECT id FROM big WHERE 20 > id AND id > 10"
        ).fetchall() == [(i,) for i in range(11, 20)]
        mixed = self._scan(ranged,
                           "SELECT id FROM big WHERE id > 10 AND id <= 20")
        assert not mixed.low_inclusive and mixed.high_inclusive

    def test_between_uses_the_btree_with_literals_and_binds(self, ranged):
        scan = self._scan(ranged,
                          "SELECT id FROM big WHERE id BETWEEN 10 AND 20")
        assert isinstance(scan, BTreeScan) and scan.filter is None
        assert scan.low_inclusive and scan.high_inclusive
        bound = self._scan(ranged,
                           "SELECT id FROM big WHERE id BETWEEN :1 AND :2")
        assert isinstance(bound, BTreeScan)
        assert isinstance(bound.low, ast.BindParam)
        assert isinstance(bound.high, ast.BindParam)
        assert ranged.execute(
            "SELECT id FROM big WHERE id BETWEEN :1 AND :2", [10, 20]
        ).fetchall() == [(i,) for i in range(10, 21)]

    def test_consumed_conjuncts_leave_the_residual(self, ranged):
        scan = self._scan(
            ranged, "SELECT id FROM big WHERE id BETWEEN 10 AND 60"
                    " AND grp = 'g1'")
        assert isinstance(scan, BTreeScan)
        assert isinstance(scan.filter, ast.BinaryOp)  # grp = 'g1' alone
        assert scan.filter.left.column == "grp"
        # a third bound on the column stays behind as a filter
        extra = self._scan(
            ranged, "SELECT id FROM big WHERE id > 5 AND id < 50"
                    " AND id < 40")
        assert isinstance(extra, BTreeScan) and extra.filter is not None
        assert ranged.execute(
            "SELECT id FROM big WHERE id > 5 AND id < 50 AND id < 40"
        ).fetchall() == [(i,) for i in range(6, 40)]

    @pytest.mark.parametrize("sql,binds", [
        ("SELECT id FROM big WHERE id BETWEEN :1 AND :2", [None, 20]),
        ("SELECT id FROM big WHERE id >= :1 AND id <= :2", [10, None]),
        ("SELECT id FROM big WHERE id > :1", [None]),
        ("SELECT id FROM big WHERE id = :1", [None]),
    ])
    def test_null_bound_is_unknown_not_an_open_range(self, ranged, sql,
                                                     binds):
        assert any("INDEX RANGE SCAN" in ln
                   for ln in ranged.explain(sql, binds))
        assert ranged.execute(sql, binds).fetchall() == []

    def test_not_between_stays_a_filter(self, ranged):
        scan = self._scan(
            ranged, "SELECT id FROM big WHERE id NOT BETWEEN 5 AND 395")
        assert isinstance(scan, FullScan) and scan.filter is not None
        assert len(ranged.execute(
            "SELECT id FROM big WHERE id NOT BETWEEN 5 AND 395"
        ).fetchall()) == 9

    def test_pair_selectivity(self, ranged):
        # both literal: width of the interval over ANALYZE's [min, max]
        literal = self._scan(
            ranged, "SELECT id FROM big WHERE id BETWEEN 100 AND 180")
        assert literal.est_rows == pytest.approx(400 * 80 / 399)
        # binds: product of the two one-sided defaults
        bound = self._scan(
            ranged, "SELECT id FROM big WHERE id >= :1 AND id <= :2")
        assert bound.est_rows == pytest.approx(max(1.0, 400 * 0.05 * 0.05))
        # mixed: interpolated side times default side
        mixed = self._scan(
            ranged, "SELECT id FROM big WHERE id >= 300 AND id <= :1")
        assert mixed.est_rows == pytest.approx(400 * (99 / 399) * 0.05)

    def test_peeked_binds_estimate_like_literals(self, ranged):
        """A range covering most of the table must not look selective
        just because its bounds are binds: the planning execution's
        values are peeked, and the wide range keeps the table scan."""
        sql = "SELECT id FROM big WHERE id BETWEEN :1 AND :2"
        narrow = ranged.planner.plan_select(
            parse(sql), peek_binds={"1": 100, "2": 110}).root.child
        assert isinstance(narrow, BTreeScan)
        assert narrow.est_rows == pytest.approx(400 * 10 / 399)
        wide = ranged.planner.plan_select(
            parse(sql), peek_binds={"1": 5, "2": 395}).root.child
        assert isinstance(wide, FullScan)

    def test_narrow_range_beats_the_full_scan(self, db):
        # A7's shape: 81 of 20 000 rows.  One-sided, the range cost as
        # much as everything above its low bound.
        db.execute("CREATE TABLE wide (id INTEGER, val NUMBER)")
        db.insert_rows("wide", [[i, i * 0.5] for i in range(20000)])
        db.execute("CREATE INDEX wide_id ON wide(id)")
        db.execute("ANALYZE TABLE wide COMPUTE STATISTICS")
        for where, binds in (("id >= :1 AND id <= :2", [9000, 9080]),
                             ("id BETWEEN 9000 AND 9080", [])):
            sql = f"SELECT id FROM wide WHERE {where}"
            lines = db.explain(sql, binds)
            assert any("INDEX RANGE SCAN wide_id" in ln for ln in lines)
            assert not any("TABLE SCAN" in ln for ln in lines)
            assert len(db.execute(sql, binds).fetchall()) == 81


class TestJoinPlanning:
    @pytest.fixture
    def joined(self, big):
        big.execute("CREATE TABLE small (grp VARCHAR2(8), label VARCHAR2(8))")
        for i in range(4):
            big.execute("INSERT INTO small VALUES (:1, :2)",
                        [f"g{i}", f"L{i}"])
        return big

    def test_hash_join_for_equi(self, joined):
        plan = joined.explain(
            "SELECT b.id, s.label FROM big b, small s WHERE b.grp = s.grp")
        assert any("HASH JOIN" in line for line in plan)
        rows = joined.query(
            "SELECT b.id, s.label FROM big b, small s WHERE b.grp = s.grp")
        assert len(rows) == 400

    def test_indexed_nl_join_when_inner_indexed(self, joined):
        joined.execute("CREATE INDEX big_grp_i ON big(grp)")
        joined.execute("ANALYZE TABLE big COMPUTE STATISTICS")
        plan = joined.explain(
            "SELECT s.label, b.id FROM small s, big b WHERE b.grp = s.grp")
        assert any("INDEXED NL JOIN" in line for line in plan)
        rows = joined.query(
            "SELECT s.label, b.id FROM small s, big b WHERE b.grp = s.grp")
        assert len(rows) == 400

    def test_nested_loop_for_non_equi(self, joined):
        plan = joined.explain(
            "SELECT s.label FROM small s, big b WHERE b.id < 2")
        assert any("NESTED LOOP JOIN" in line for line in plan)
        rows = joined.query(
            "SELECT s.label FROM small s, big b WHERE b.id < 2")
        assert len(rows) == 8  # 4 labels x 2 rows

    def test_equijoin_extraction(self, joined):
        from repro.sql.expressions import Binder, Scope
        scope = Scope([("b", joined.catalog.get_table("big")),
                       ("s", joined.catalog.get_table("small"))])
        expr = Binder(joined.catalog, scope).bind(
            parse_expression("b.grp = s.grp"))
        pair = extract_equijoin(expr)
        assert pair is not None
        assert {pair[0].alias, pair[1].alias} == {"b", "s"}


class TestOperatorPredExtraction:
    @pytest.fixture
    def opdb(self, text_db):
        text_db.execute("CREATE TABLE docs (body VARCHAR2(200))")
        return text_db

    def _bind(self, db, text):
        from repro.sql.expressions import Binder, Scope
        table = db.catalog.get_table("docs")
        return Binder(db.catalog, Scope([("docs", table)])).bind(
            parse_expression(text))

    def test_bare_operator_normalized_to_ge_1(self, opdb):
        pred = extract_operator_pred(self._bind(opdb, "Contains(body, 'x')"))
        assert isinstance(pred, OperatorPred)
        assert pred.lower == 1 and pred.upper is None

    def test_relop_forms(self, opdb):
        pred = extract_operator_pred(
            self._bind(opdb, "Contains(body, 'x') = 1"))
        assert pred.lower == 1 and pred.upper == 1
        pred = extract_operator_pred(
            self._bind(opdb, "Contains(body, 'x') > 0"))
        assert pred.lower == 0 and not pred.include_lower
        pred = extract_operator_pred(
            self._bind(opdb, "1 <= Contains(body, 'x')"))
        assert pred.lower == 1 and pred.include_lower

    def test_plain_comparison_not_operator_pred(self, opdb):
        assert extract_operator_pred(self._bind(opdb, "body = 'x'")) is None


class TestExplainShape:
    def test_explain_statement_returns_rows(self, big):
        rows = big.query("EXPLAIN SELECT * FROM big WHERE id = 1")
        assert all(isinstance(r[0], str) for r in rows)

    def test_costs_and_rows_annotated(self, big):
        lines = big.explain("SELECT * FROM big")
        assert "rows=" in lines[0] and "cost=" in lines[0]

    def test_tree_indentation(self, big):
        lines = big.explain("SELECT * FROM big ORDER BY id LIMIT 3")
        assert lines[0].startswith("LIMIT")
        assert any(line.startswith("  ") for line in lines)


# ---------------------------------------------------------------------------
# The access-path table: one case per (index kind x sarg shape)
# ---------------------------------------------------------------------------

def _heap(db, index_ddl):
    db.execute("CREATE TABLE big (id INTEGER, grp VARCHAR2(8), val NUMBER)")
    db.insert_rows("big", [[i, f"g{i % 4}", i * 1.5] for i in range(400)])
    db.execute(index_ddl)
    db.execute("ANALYZE TABLE big COMPUTE STATISTICS")
    return "big"


def _iot(db, _ddl):
    db.execute("CREATE TABLE post (a INTEGER, b INTEGER, c INTEGER,"
               " v INTEGER, PRIMARY KEY (a, b, c)) ORGANIZATION INDEX")
    db.insert_rows("post", [[a, b, c, a + b + c] for a in range(10)
                            for b in range(10) for c in range(4)])
    db.execute("ANALYZE TABLE post COMPUTE STATISTICS")
    return "post"


def _text(db, _ddl):
    from repro.cartridges.text import install
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
    db.insert_rows("docs", [
        [i, ("oracle " if i % 10 == 0 else "") + f"word{i % 7} filler text"]
        for i in range(300)])
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    db.execute("ANALYZE TABLE docs COMPUTE STATISTICS")
    return "docs"


def _describe(conjunct):
    if isinstance(conjunct, ast.BetweenOp):
        return f"{conjunct.operand.column} between"
    side = conjunct.left if isinstance(conjunct.left, ast.ColumnRef) \
        else conjunct.right
    return f"{side.column} {conjunct.op}"


def _scan_of(db, sql, **plan_args):
    node = db.planner.plan_select(parse(sql), **plan_args).root
    while hasattr(node, "child"):
        node = node.child
    return node


_BTREE = "CREATE INDEX big_id ON big(id)"
_HASH = "CREATE HASH INDEX big_h ON big(id)"
_BITMAP = "CREATE BITMAP INDEX big_bm ON big(id)"
_RANGE_SCAN = "INDEX RANGE SCAN big_id -> big [big]"
_FULL_SCAN = "TABLE SCAN big [big] FILTER"
_DOMAIN_SCAN = "DOMAIN INDEX SCAN docs_text (Contains) -> docs [docs]"


class TestAccessPathMatrix:
    """(setup, index DDL, WHERE) -> chosen label, the residual's
    conjuncts, est_cost; the expected values were recorded from the
    commit before the access-path table replaced the per-shape
    enumerators."""

    @pytest.mark.parametrize("setup,ddl,where,label,residual,cost", [
        (_heap, _BTREE, "id = 5", _RANGE_SCAN, [], 2.1),
        (_heap, _BTREE, "id < 20 AND grp = 'g1'", _RANGE_SCAN,
         ["grp ="], 4.03),
        (_heap, _BTREE, "id >= 390", _RANGE_SCAN, [], 2.9),
        (_heap, _BTREE, "id > 10 AND id <= 20", _RANGE_SCAN, [], 3.0),
        (_heap, _BTREE, "id BETWEEN 10 AND 20 AND grp = 'g1'", _RANGE_SCAN,
         ["grp ="], 3.01),
        (_heap, _BTREE, "id != 5", _FULL_SCAN, ["id !="], 8.4),
        (_heap, _HASH, "id = 5 AND val < 100",
         "HASH INDEX SCAN big_h -> big [big]", ["val <"], 1.1),
        (_heap, _HASH, "id > 395", _FULL_SCAN, ["id >"], 8.4),
        (_heap, _BITMAP, "id = 5",
         "BITMAP INDEX SCAN big_bm -> big [big]", [], 1.1),
        (_iot, None, "a = 1", "IOT PREFIX SCAN post [post] key=1/3",
         [], 2.4),
        (_iot, None, "b = 2 AND a = 1",
         "IOT PREFIX SCAN post [post] key=2/3", [], 2.04),
        (_iot, None, "a = 1 AND b = 2 AND c = 3 AND v > 0",
         "IOT PREFIX SCAN post [post] key=3/3", ["v >"], 2.01),
        # a gap in the prefix: the key stops at it, or never starts
        (_iot, None, "a = 1 AND c = 3",
         "IOT PREFIX SCAN post [post] key=1/3", ["c ="], 2.44),
        (_iot, None, "b = 2 AND c = 3", "TABLE SCAN post [post] FILTER",
         ["b =", "c ="], 16.4),
        (_text, None, "Contains(body, 'oracle')", _DOMAIN_SCAN, [], 1.4),
        (_text, None, "id < 100 AND Contains(body, 'oracle') > 0",
         _DOMAIN_SCAN, ["id <"], 1.42),
    ])
    def test_shape(self, db, setup, ddl, where, label, residual, cost):
        table = setup(db, ddl)
        scan = _scan_of(db, f"SELECT * FROM {table} WHERE {where}")
        assert scan.label() == label
        assert [_describe(c) for c in split_conjuncts(scan.filter)] \
            == residual
        assert round(scan.est_cost, 2) == cost

    def test_each_conjunct_is_extracted_once_per_access_path(
            self, db, monkeypatch):
        from repro.sql import planner as pl
        _heap(db, _BTREE)
        db.execute(_HASH)
        calls = {"extract_sarg": 0, "extract_operator_pred": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(pl, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(pl, name, counted)
        scan = _scan_of(db, "SELECT id FROM big WHERE id >= 10 AND id <= 20"
                            " AND grp LIKE 'g%' AND val = 15")
        assert scan.label() == _RANGE_SCAN
        # four conjuncts, two indexes: one extraction each (a non-sarg
        # is also offered to the operator-predicate extractor)
        assert calls == {"extract_sarg": 4, "extract_operator_pred": 1}

    def test_half_used_between_stays_in_the_residual(self, db):
        """``id > 3`` pairs with the BETWEEN's upper bound; the BETWEEN
        keeps filtering, or its lower bound would be lost."""
        _heap(db, _BTREE)
        sql = "SELECT id FROM big WHERE id > 3 AND id BETWEEN 5 AND 9"
        scan = _scan_of(db, sql)
        assert scan.label() == _RANGE_SCAN
        assert [_describe(c) for c in split_conjuncts(scan.filter)] \
            == ["id between"]
        assert db.execute(sql).fetchall() == [(i,) for i in range(5, 10)]


class TestBindPeekingSurvivesNestedPlanning:
    """Binds are peeked while the sargs are extracted, so planning that
    re-enters the same Planner (a statistics routine's callback SQL, an
    IN-subquery) cannot lose them."""

    @staticmethod
    def _rows(lines):
        import re
        return [re.search(r"rows=(\d+)", line).group(1) for line in lines
                if "rows=" in line]

    def test_conjunct_order_does_not_change_the_estimate(self, db):
        _text(db, None)
        db.execute("CREATE INDEX docs_id ON docs(id)")
        plans = []
        for where in ("Contains(body, :1) AND id < :2",
                      "id < :2 AND Contains(body, :1)"):
            # cold: ODCIStatsIndexCost's callback SQL is planned
            # (re-entering the Planner) in the middle of this plan
            db.plan_cache.clear()
            plans.append(db.explain(
                f"SELECT * FROM docs WHERE {where}", ["filler", 3])[:-1])
        assert plans[0] == plans[1]
        # 300 * 3/299 rows by interpolation, not the 5% default
        assert "INDEX RANGE SCAN docs_id" in plans[0][1]
        assert self._rows(plans[0]) == ["3", "3"]

    def test_range_bind_informs_the_estimate_next_to_in_subquery(self, big):
        big.execute("CREATE TABLE picks (g VARCHAR2(8))")
        big.execute("INSERT INTO picks VALUES ('g1')")
        big.execute("ANALYZE TABLE big COMPUTE STATISTICS")
        sql = "SELECT id FROM big WHERE id < :1 AND grp IN ({})"
        peeked = _scan_of(big, sql.format("SELECT g FROM picks"),
                          peek_binds={"1": 200})
        listed = _scan_of(big, sql.format("'g1'"), peek_binds={"1": 200})
        assert peeked.est_rows == listed.est_rows
        # ~half the table by interpolation, not the 5% default
        assert peeked.est_rows == pytest.approx(400 * (200 / 399) * 0.5)


class TestPlannerStaysATable:
    """The next sarg shape is a row of ACCESS_PATHS, not a function."""

    def test_executor_side_modules_stay_small(self):
        """planner.py alone, and the executor-side files together
        (``parallel.py``, the fifth, is deleted)."""
        import pathlib
        import repro.sql
        sql = pathlib.Path(repro.sql.__file__).parent
        lines = {name: len((sql / f"{name}.py").read_text("utf-8")
                           .splitlines())
                 for name in ("planner", "executor", "compile", "columnar")}
        assert lines["planner"] <= 1416
        assert sum(lines.values()) <= 3625
        assert not (sql / "parallel.py").exists()

    def test_dml_has_one_maintenance_fan_out(self):
        """A row change reaches its indexes through one function; the
        ceiling is the size PR 19 reached by deleting transaction-
        deferred maintenance and the copied ``maintain_*`` bodies."""
        import ast
        import pathlib
        import repro.sql
        source = (pathlib.Path(repro.sql.__file__).parent
                  / "dml.py").read_text("utf-8")
        assert len(source.splitlines()) <= 817
        assert [node.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("maintain")] == ["maintain"]

    def test_no_other_module_lists_the_native_scan_classes(self):
        """executor/compile derive their scan-class tuples from
        ``ACCESS_PATHS``: a new structure is declared once."""
        import pathlib
        import re
        import repro.sql
        spelled = re.compile(r"BTreeScan,\s*(pl\.)?(HashScan|BitmapScan)")
        for path in pathlib.Path(repro.sql.__file__).parent.glob("*.py"):
            if path.name != "planner.py":
                assert not spelled.search(path.read_text("utf-8")), path.name
