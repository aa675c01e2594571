"""End-to-end SQL engine behaviour (no cartridges): DDL, DML, queries."""

import pytest

from repro.errors import (
    CatalogError, ConstraintError, ExecutionError, ParseError)
from repro.types.values import NULL, is_null


@pytest.fixture
def emp(db):
    db.execute("CREATE TABLE emp (name VARCHAR2(50), dept VARCHAR2(20),"
               " salary NUMBER, id INTEGER)")
    rows = [
        ("amy", "eng", 100, 1),
        ("bob", "eng", 80, 2),
        ("cid", "sales", 60, 3),
        ("dee", "sales", 90, 4),
        ("eve", "hr", 70, 5),
    ]
    for row in rows:
        db.execute("INSERT INTO emp VALUES (:1, :2, :3, :4)", list(row))
    return db


class TestSelectBasics:
    def test_star(self, emp):
        rows = emp.execute("SELECT * FROM emp").fetchall()
        assert len(rows) == 5
        assert rows[0] == ("amy", "eng", 100, 1)

    def test_projection_order(self, emp):
        rows = emp.execute("SELECT id, name FROM emp WHERE id = 3").fetchall()
        assert rows == [(3, "cid")]

    def test_description(self, emp):
        cursor = emp.execute("SELECT id, name AS who FROM emp")
        assert cursor.description == ["id", "who"]

    def test_where_comparisons(self, emp):
        assert len(emp.execute(
            "SELECT * FROM emp WHERE salary >= 80").fetchall()) == 3
        assert len(emp.execute(
            "SELECT * FROM emp WHERE salary != 70").fetchall()) == 4

    def test_where_and_or_not(self, emp):
        rows = emp.execute("SELECT name FROM emp "
                           "WHERE dept = 'eng' AND salary > 90 OR dept = 'hr'"
                           ).fetchall()
        assert sorted(r[0] for r in rows) == ["amy", "eve"]
        rows = emp.execute(
            "SELECT name FROM emp WHERE NOT dept = 'eng'").fetchall()
        assert len(rows) == 3

    def test_between_in_like(self, emp):
        assert len(emp.execute(
            "SELECT * FROM emp WHERE salary BETWEEN 70 AND 90"
        ).fetchall()) == 3
        assert len(emp.execute(
            "SELECT * FROM emp WHERE dept IN ('eng', 'hr')").fetchall()) == 3
        assert len(emp.execute(
            "SELECT * FROM emp WHERE name LIKE '%e%'").fetchall()) == 2

    def test_expressions_in_select(self, emp):
        rows = emp.execute(
            "SELECT name, salary * 2 FROM emp WHERE id = 1").fetchall()
        assert rows == [("amy", 200)]

    def test_functions(self, emp):
        rows = emp.execute("SELECT UPPER(name), LENGTH(dept) FROM emp "
                           "WHERE id = 1").fetchall()
        assert rows == [("AMY", 3)]

    def test_order_by(self, emp):
        rows = emp.execute(
            "SELECT name FROM emp ORDER BY salary DESC").fetchall()
        assert [r[0] for r in rows] == ["amy", "dee", "bob", "eve", "cid"]

    def test_order_by_multiple(self, emp):
        rows = emp.execute(
            "SELECT name FROM emp ORDER BY dept, salary DESC").fetchall()
        assert [r[0] for r in rows] == ["amy", "bob", "eve", "dee", "cid"]

    def test_distinct(self, emp):
        rows = emp.execute("SELECT DISTINCT dept FROM emp").fetchall()
        assert sorted(r[0] for r in rows) == ["eng", "hr", "sales"]

    def test_distinct_identifies_rows_as_group_by_does(self, db):
        """1 and 1.0 are one value, NULL and None one null, unhashable
        values go by repr — in DISTINCT exactly as in GROUP BY (DISTINCT
        used to key on repr alone and returned both 1 and 1.0)."""
        from repro.sql.catalog import SQLFunction
        values = [1, 1.0, NULL, None, [1, 2], 2.5, [1, 2], 1, "1"]
        db.catalog.add_function(SQLFunction(
            name="pick", fn=lambda i: values[i]))
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(len(values)):
            db.execute("INSERT INTO t VALUES (:1)", [i])
        distinct = db.execute("SELECT DISTINCT pick(id) FROM t").fetchall()
        grouped = db.execute(
            "SELECT pick(id) FROM t GROUP BY pick(id)").fetchall()
        assert [repr(r) for r in distinct] == [repr(r) for r in grouped]
        assert [repr(r[0]) for r in distinct] \
            == ["1", "NULL", "[1, 2]", "2.5", "'1'"]

    def test_limit_offset(self, emp):
        rows = emp.execute(
            "SELECT name FROM emp ORDER BY id LIMIT 2 OFFSET 1").fetchall()
        assert [r[0] for r in rows] == ["bob", "cid"]

    def test_rowid_pseudocolumn(self, emp):
        rows = emp.execute(
            "SELECT rowid, name FROM emp WHERE id = 1").fetchall()
        rowid = rows[0][0]
        assert type(rowid) is tuple and len(rowid) == 3
        assert rowid[0] == emp.catalog.get_table("emp").storage.segment_id

    def test_streaming_fetchone(self, emp):
        cursor = emp.execute("SELECT name FROM emp")
        assert cursor.fetchone() is not None
        assert len(cursor.fetchmany(2)) == 2
        assert len(cursor.fetchall()) == 2
        assert cursor.fetchone() is None


class TestAggregates:
    def test_count_star(self, emp):
        assert emp.execute("SELECT COUNT(*) FROM emp").fetchall() == [(5,)]

    def test_sum_avg_min_max(self, emp):
        rows = emp.execute("SELECT SUM(salary), AVG(salary), MIN(salary),"
                           " MAX(salary) FROM emp").fetchall()
        assert rows == [(400, 80, 60, 100)]

    def test_group_by(self, emp):
        rows = emp.execute("SELECT dept, COUNT(*), SUM(salary) FROM emp "
                           "GROUP BY dept ORDER BY dept").fetchall()
        assert rows == [("eng", 2, 180), ("hr", 1, 70), ("sales", 2, 150)]

    def test_having(self, emp):
        rows = emp.execute("SELECT dept FROM emp GROUP BY dept "
                           "HAVING COUNT(*) > 1 ORDER BY dept").fetchall()
        assert [r[0] for r in rows] == ["eng", "sales"]

    def test_having_aggregate_inside_between_and_in(self, emp):
        """The planner finds an aggregate wherever an expression can
        hold one (it used to miss BETWEEN / IN / LIKE operands)."""
        assert emp.execute(
            "SELECT dept FROM emp GROUP BY dept"
            " HAVING COUNT(*) BETWEEN 2 AND 9 ORDER BY dept"
        ).fetchall() == [("eng",), ("sales",)]
        assert emp.execute(
            "SELECT dept FROM emp GROUP BY dept HAVING SUM(salary) IN (70)"
        ).fetchall() == [("hr",)]

    def test_count_distinct(self, emp):
        assert emp.execute(
            "SELECT COUNT(DISTINCT dept) FROM emp").fetchall() == [(3,)]

    def test_aggregate_over_empty(self, db):
        db.execute("CREATE TABLE empty (x NUMBER)")
        rows = db.execute("SELECT COUNT(*), SUM(x) FROM empty").fetchall()
        assert rows[0][0] == 0
        assert is_null(rows[0][1])

    def test_aggregates_skip_nulls(self, db):
        db.execute("CREATE TABLE t (x NUMBER)")
        db.execute("INSERT INTO t VALUES (1), (NULL), (3)")
        assert db.execute(
            "SELECT COUNT(x), AVG(x) FROM t").fetchall() == [(2, 2)]


class TestJoins:
    @pytest.fixture
    def join_db(self, emp):
        emp.execute("CREATE TABLE dept (dname VARCHAR2(20), floor INTEGER)")
        for name, floor in (("eng", 3), ("sales", 1), ("hr", 2)):
            emp.execute("INSERT INTO dept VALUES (:1, :2)", [name, floor])
        return emp

    def test_equi_join(self, join_db):
        rows = join_db.execute(
            "SELECT e.name, d.floor FROM emp e, dept d "
            "WHERE e.dept = d.dname AND e.id = 1").fetchall()
        assert rows == [("amy", 3)]

    def test_join_all_rows(self, join_db):
        rows = join_db.execute(
            "SELECT e.name, d.floor FROM emp e, dept d "
            "WHERE e.dept = d.dname").fetchall()
        assert len(rows) == 5

    def test_cartesian_with_filter(self, join_db):
        rows = join_db.execute(
            "SELECT e.name, d.dname FROM emp e, dept d "
            "WHERE e.salary > 90 AND d.floor = 1").fetchall()
        assert rows == [("amy", "sales")]

    def test_self_join(self, emp):
        rows = emp.execute(
            "SELECT a.name, b.name FROM emp a, emp b "
            "WHERE a.dept = b.dept AND a.id < b.id").fetchall()
        assert sorted(rows) == [("amy", "bob"), ("cid", "dee")]

    def test_ambiguous_column_raises(self, join_db):
        with pytest.raises(CatalogError):
            join_db.execute("SELECT name FROM emp e, emp f").fetchall()


class TestDML:
    def test_insert_reports_rowcount(self, emp):
        cursor = emp.execute("INSERT INTO emp VALUES ('fay','eng',50,6)")
        assert cursor.rowcount == 1

    def test_multi_row_insert(self, db):
        db.execute("CREATE TABLE t (x NUMBER)")
        cursor = db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert cursor.rowcount == 3

    def test_insert_with_column_list_defaults_null(self, db):
        db.execute("CREATE TABLE t (a NUMBER, b NUMBER)")
        db.execute("INSERT INTO t (b) VALUES (5)")
        row = db.execute("SELECT a, b FROM t").fetchall()[0]
        assert is_null(row[0]) and row[1] == 5

    def test_insert_select(self, emp):
        emp.execute("CREATE TABLE eng (name VARCHAR2(50), salary NUMBER)")
        cursor = emp.execute("INSERT INTO eng "
                             "SELECT name, salary FROM emp WHERE dept = 'eng'")
        assert cursor.rowcount == 2

    def test_insert_wrong_arity(self, db):
        db.execute("CREATE TABLE t (a NUMBER, b NUMBER)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_update(self, emp):
        cursor = emp.execute("UPDATE emp SET salary = salary + 10 "
                             "WHERE dept = 'eng'")
        assert cursor.rowcount == 2
        assert emp.execute(
            "SELECT salary FROM emp WHERE id = 1").fetchall() == [(110,)]

    def test_delete(self, emp):
        cursor = emp.execute("DELETE FROM emp WHERE dept = 'sales'")
        assert cursor.rowcount == 2
        assert emp.execute("SELECT COUNT(*) FROM emp").fetchall() == [(3,)]

    def test_not_null_enforced(self, db):
        db.execute("CREATE TABLE t (a NUMBER NOT NULL)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (NULL)")

    def test_type_validated(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        from repro.errors import TypeMismatchError
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t VALUES ('xyz')")

    @pytest.mark.parametrize("table", ["heap", "iot"])
    def test_each_statement_validates_a_row_once(self, db, monkeypatch,
                                                 table):
        """One INSERT row, each row of a multi-row INSERT, and an IOT
        row an UPDATE moves to a new key are validated once each."""
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR2(9))"
                   + (" ORGANIZATION INDEX" if table == "iot" else ""))
        from repro.sql.dml import DMLEngine
        calls = []
        real = DMLEngine.validate_row
        monkeypatch.setattr(DMLEngine, "validate_row",
                            lambda self, t, row: calls.append(row)
                            or real(self, t, row))
        db.execute("INSERT INTO t VALUES (1, 'a')")
        assert len(calls) == 1
        db.execute("INSERT INTO t VALUES (2, 'b'), (3, 'c')")
        assert len(calls) == 3
        db.execute("UPDATE t SET k = 4 WHERE k = 3")
        assert len(calls) == 4
        assert sorted(db.execute("SELECT k, v FROM t").fetchall()) == [
            (1, "a"), (2, "b"), (4, "c")]


class TestDDL:
    def test_duplicate_table_rejected(self, db):
        db.execute("CREATE TABLE t (a NUMBER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a NUMBER)")

    def test_drop_table(self, db):
        db.execute("CREATE TABLE t (a NUMBER)")
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM t").fetchall()

    def test_truncate(self, emp):
        emp.execute("TRUNCATE TABLE emp")
        assert emp.execute("SELECT COUNT(*) FROM emp").fetchall() == [(0,)]

    def test_iot_table(self, db):
        db.execute("CREATE TABLE iot (k INTEGER PRIMARY KEY, v VARCHAR2(10))"
                   " ORGANIZATION INDEX")
        for key in (5, 1, 3):
            db.execute("INSERT INTO iot VALUES (:1, 'v')", [key])
        rows = db.execute("SELECT k FROM iot").fetchall()
        assert [r[0] for r in rows] == [1, 3, 5]  # key order

    def test_iot_requires_pk(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE bad (a NUMBER) ORGANIZATION INDEX")

    def test_unique_index_enforced(self, db):
        db.execute("CREATE TABLE t (a NUMBER)")
        db.execute("CREATE UNIQUE INDEX t_a ON t(a)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_unique_index_over_duplicate_rows_is_refused(self, db):
        db.execute("CREATE TABLE t (a NUMBER)")
        db.insert_rows("t", [[1], [2], [2]])
        with pytest.raises(ConstraintError, match="duplicate key 2"):
            db.execute("CREATE UNIQUE INDEX t_a ON t(a)")
        assert not db.catalog.has_index("t_a")
        db.execute("CREATE INDEX t_a ON t(a)")
        assert db.execute("SELECT COUNT(*) FROM t WHERE a = 2"
                          ).fetchall() == [(2,)]

    def test_native_index_leaves_out_null_keys(self, db):
        db.execute("CREATE TABLE t (a NUMBER, b NUMBER)")
        db.insert_rows("t", [[i if i % 3 else NULL, i] for i in range(600)])
        db.execute("CREATE INDEX t_a ON t(a)")
        db.execute("INSERT INTO t VALUES (NULL, 999)")
        assert len(db.catalog.get_index("t_a").structure) == 400
        sql = "SELECT b FROM t WHERE a >= 0"
        assert any("INDEX RANGE SCAN t_a" in line
                   for line in db.explain(sql))
        assert sorted(db.execute(sql).fetchall()) \
            == [(i,) for i in range(600) if i % 3]
        assert db.execute("SELECT COUNT(*) FROM t WHERE a IS NULL"
                          ).fetchall() == [(201,)]

    def test_rebuild_native_index(self, db):
        db.execute("CREATE TABLE t (a NUMBER, b NUMBER)")
        db.insert_rows("t", [[i, i * 2] for i in range(50)])
        db.execute("CREATE UNIQUE INDEX t_a ON t(a)")
        db.execute("DELETE FROM t WHERE a < 10")
        db.execute("UPDATE t SET a = a + 100 WHERE a >= 40")
        index = db.catalog.get_index("t_a")
        before = sorted(index.structure.items())
        db.execute("ALTER INDEX t_a REBUILD")
        assert sorted(index.structure.items()) == before
        assert db.execute("SELECT b FROM t WHERE a = 145"
                          ).fetchall() == [(90,)]
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (145, 0)")

    def test_index_on_missing_column(self, db):
        db.execute("CREATE TABLE t (a NUMBER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX i ON t(nope)")


class TestTransactionsSQL:
    def test_rollback_restores_all_dml(self, emp):
        emp.begin()
        emp.execute("INSERT INTO emp VALUES ('fay','eng',50,6)")
        emp.execute("UPDATE emp SET salary = 0 WHERE id = 1")
        emp.execute("DELETE FROM emp WHERE id = 2")
        emp.rollback()
        assert emp.execute("SELECT COUNT(*) FROM emp").fetchall() == [(5,)]
        assert emp.execute(
            "SELECT salary FROM emp WHERE id = 1").fetchall() == [(100,)]
        assert emp.execute(
            "SELECT name FROM emp WHERE id = 2").fetchall() == [("bob",)]

    def test_commit_persists(self, emp):
        emp.begin()
        emp.execute("DELETE FROM emp WHERE id = 5")
        emp.commit()
        assert emp.execute("SELECT COUNT(*) FROM emp").fetchall() == [(4,)]

    def test_sql_level_txn_statements(self, emp):
        emp.execute("BEGIN TRANSACTION")
        emp.execute("DELETE FROM emp")
        emp.execute("ROLLBACK")
        assert emp.execute("SELECT COUNT(*) FROM emp").fetchall() == [(5,)]

    def test_savepoint_sql(self, emp):
        emp.execute("BEGIN TRANSACTION")
        emp.execute("DELETE FROM emp WHERE id = 1")
        emp.execute("SAVEPOINT sp")
        emp.execute("DELETE FROM emp WHERE id = 2")
        emp.execute("ROLLBACK TO SAVEPOINT sp")
        assert emp.execute("SELECT COUNT(*) FROM emp").fetchall() == [(4,)]
        emp.execute("ROLLBACK")
        assert emp.execute("SELECT COUNT(*) FROM emp").fetchall() == [(5,)]

    def test_rollback_restores_native_index(self, emp):
        emp.execute("CREATE INDEX emp_sal ON emp(salary)")
        emp.begin()
        emp.execute("UPDATE emp SET salary = 999 WHERE id = 1")
        emp.rollback()
        rows = emp.execute(
            "SELECT name FROM emp WHERE salary = 100").fetchall()
        assert rows == [("amy",)]
        assert emp.execute(
            "SELECT name FROM emp WHERE salary = 999").fetchall() == []

    def test_autocommit_failure_rolls_back_statement(self, db):
        db.execute("CREATE TABLE t (a NUMBER NOT NULL)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (1), (NULL)")
        # the whole statement rolled back, including the first row
        assert db.execute("SELECT COUNT(*) FROM t").fetchall() == [(0,)]


class TestBinds:
    def test_positional(self, emp):
        rows = emp.execute(
            "SELECT name FROM emp WHERE id = :1", [3]).fetchall()
        assert rows == [("cid",)]

    def test_named(self, emp):
        rows = emp.execute("SELECT name FROM emp WHERE dept = :d AND id > :n",
                           {"d": "sales", "n": 3}).fetchall()
        assert rows == [("dee",)]

    def test_missing_bind_raises(self, emp):
        with pytest.raises(ExecutionError):
            emp.execute("SELECT * FROM emp WHERE id = :1").fetchall()

    def test_bind_arbitrary_object(self, db):
        db.execute("CREATE TABLE t (rid ROWID)")
        db.execute("CREATE TABLE src (x NUMBER)")
        db.execute("INSERT INTO src VALUES (1)")
        rid = db.execute("SELECT rowid FROM src").fetchall()[0][0]
        db.execute("INSERT INTO t VALUES (:1)", [rid])
        assert db.execute(
            "SELECT rid FROM t WHERE rid = :1", [rid]).fetchall() == [(rid,)]


class TestVarrayColumns:
    def test_varray_roundtrip_and_contains(self, db):
        db.execute("CREATE TABLE people (name VARCHAR2(20),"
                   " hobbies VARRAY(10) OF VARCHAR2(64))")
        db.execute("INSERT INTO people VALUES ('amy',"
                   " varray('Skiing', 'Chess'))")
        db.execute("INSERT INTO people VALUES ('bob', varray('Go'))")
        rows = db.execute("SELECT name FROM people WHERE :1 = 1",
                          [1]).fetchall()
        assert len(rows) == 2
        value = db.execute(
            "SELECT hobbies FROM people WHERE name = 'amy'").fetchall()
        assert value[0][0] == ("Skiing", "Chess")
