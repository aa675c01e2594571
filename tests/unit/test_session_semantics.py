"""Session-level semantics: DDL autocommit, operator placement (§2.3),
statement atomicity, and executor edge cases."""

import pytest

from repro.errors import ConstraintError, ExecutionError
from repro.types.values import is_null


class TestOperatorPlacement:
    """§2.3: 'user-defined operators can be used in the select list of a
    SELECT command, the condition of a WHERE clause, the ORDER BY and
    GROUP BY clauses'."""

    @pytest.fixture
    def docs(self, text_db):
        text_db.execute("CREATE TABLE docs (id INTEGER,"
                        " body VARCHAR2(200))")
        rows = [(1, "ox ox ox"), (2, "ox cat"), (3, "cat cat"),
                (4, "dog")]
        for ident, body in rows:
            text_db.execute("INSERT INTO docs VALUES (:1, :2)",
                            [ident, body])
        return text_db

    def test_operator_in_select_list(self, docs):
        rows = docs.execute("SELECT id, Contains(body, 'ox') FROM docs"
                            " ORDER BY id").fetchall()
        assert rows == [(1, 3), (2, 1), (3, 0), (4, 0)]

    def test_operator_in_where(self, docs):
        rows = docs.execute(
            "SELECT id FROM docs WHERE Contains(body, 'ox')").fetchall()
        assert sorted(r[0] for r in rows) == [1, 2]

    def test_operator_in_order_by(self, docs):
        rows = docs.execute("SELECT id FROM docs"
                            " ORDER BY Contains(body, 'ox') DESC, id"
                            ).fetchall()
        assert [r[0] for r in rows] == [1, 2, 3, 4]

    def test_operator_in_group_by(self, docs):
        rows = docs.execute(
            "SELECT Contains(body, 'ox'), COUNT(*) FROM docs"
            " GROUP BY Contains(body, 'ox')"
            " ORDER BY Contains(body, 'ox')").fetchall()
        assert rows == [(0, 2), (1, 1), (3, 1)]

    def test_operator_as_join_condition(self, docs):
        docs.execute("CREATE TABLE probes (word VARCHAR2(20))")
        docs.execute("INSERT INTO probes VALUES ('ox'), ('dog')")
        rows = docs.execute(
            "SELECT p.word, d.id FROM probes p, docs d"
            " WHERE Contains(d.body, p.word)").fetchall()
        assert sorted(rows) == [("dog", 4), ("ox", 1), ("ox", 2)]


class TestDDLAutocommit:
    def test_ddl_commits_open_transaction(self, db):
        db.execute("CREATE TABLE t (x NUMBER)")
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("CREATE TABLE u (y NUMBER)")  # implicit commit
        db.rollback()  # nothing to roll back anymore
        assert db.execute("SELECT COUNT(*) FROM t").fetchall() == [(1,)]

    def test_commit_without_transaction_is_noop(self, db):
        db.commit()  # no error

    def test_rollback_without_transaction_is_noop(self, db):
        db.rollback()


class TestStatementAtomicity:
    def test_multi_row_insert_atomic_inside_txn(self, db):
        db.execute("CREATE TABLE t (x NUMBER NOT NULL)")
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (2), (NULL), (3)")
        db.commit()
        # the failed statement vanished entirely; the earlier one stayed
        assert db.execute("SELECT x FROM t").fetchall() == [(1,)]

    def test_failed_update_keeps_transaction_alive(self, db):
        from repro.errors import TypeMismatchError
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.begin()
        db.execute("DELETE FROM t WHERE x = 1")
        with pytest.raises(TypeMismatchError):
            db.execute("UPDATE t SET x = 'oops'")
        assert db.in_transaction
        db.commit()
        assert db.execute("SELECT x FROM t").fetchall() == [(2,)]

    def test_user_savepoints_compose_with_statement_savepoints(self, db):
        db.execute("CREATE TABLE t (x NUMBER NOT NULL)")
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        db.savepoint("mine")
        db.execute("INSERT INTO t VALUES (2)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (NULL)")
        db.rollback("mine")
        db.commit()
        assert db.execute("SELECT x FROM t").fetchall() == [(1,)]


class TestExecutorEdgeCases:
    @pytest.fixture
    def t(self, db):
        db.execute("CREATE TABLE t (x NUMBER, s VARCHAR2(8))")
        for x, s in ((3, "c"), (None, "n1"), (1, "a"), (2, None),
                     (None, "n2"), (1, "b")):
            db.execute("INSERT INTO t VALUES (:1, :2)", [x, s])
        return db

    def test_order_by_nulls_last(self, t):
        rows = t.execute("SELECT x FROM t ORDER BY x").fetchall()
        values = [r[0] for r in rows]
        assert values[:4] == [1, 1, 2, 3]
        assert all(is_null(v) for v in values[4:])

    def test_order_by_desc_nulls_still_last(self, t):
        rows = t.execute("SELECT x FROM t ORDER BY x DESC").fetchall()
        values = [r[0] for r in rows]
        assert values[:4] == [3, 2, 1, 1]
        assert all(is_null(v) for v in values[4:])

    def test_where_null_comparison_filters_out(self, t):
        rows = t.execute("SELECT s FROM t WHERE x > 0").fetchall()
        assert len(rows) == 4  # NULL x rows never satisfy

    def test_group_by_null_forms_one_group(self, t):
        rows = t.execute("SELECT x, COUNT(*) FROM t GROUP BY x").fetchall()
        null_groups = [count for x, count in rows if is_null(x)]
        assert null_groups == [2]

    def test_distinct_with_nulls(self, t):
        rows = t.execute("SELECT DISTINCT x FROM t").fetchall()
        assert len(rows) == 4  # 1, 2, 3, NULL

    def test_limit_zero(self, t):
        assert t.execute("SELECT x FROM t LIMIT 0").fetchall() == []

    def test_limit_streams_lazily(self, text_db):
        """LIMIT must not force full evaluation (pipelined execution)."""
        text_db.execute("CREATE TABLE big (x INTEGER)")
        text_db.insert_rows("big", [[i] for i in range(5000)])
        cursor = text_db.execute("SELECT x FROM big LIMIT 3")
        assert len(cursor.fetchall()) == 3

    def test_offset_beyond_rows(self, t):
        assert t.execute(
            "SELECT x FROM t ORDER BY x LIMIT 5 OFFSET 100").fetchall() == []

    def test_select_constant_expression(self, t):
        rows = t.execute("SELECT 1 + 1, 'k' FROM t LIMIT 1").fetchall()
        assert rows == [(2, "k")]

    def test_empty_table_aggregate_group_by(self, db):
        db.execute("CREATE TABLE e (g VARCHAR2(4), x NUMBER)")
        assert db.execute(
            "SELECT g, SUM(x) FROM e GROUP BY g").fetchall() == []

    def test_having_without_group_by(self, t):
        rows = t.execute(
            "SELECT COUNT(*) FROM t HAVING COUNT(*) > 100").fetchall()
        assert rows == []

    def test_concat_operator_in_projection(self, t):
        rows = t.execute("SELECT s || '!' FROM t WHERE s = 'a'").fetchall()
        assert rows == [("a!",)]
