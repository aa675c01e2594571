"""Planner: access-path selection, EXPLAIN output, statistics use."""

import pytest

from repro import Database
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
