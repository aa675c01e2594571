"""End-to-end SQL engine behaviour (no cartridges): DDL, DML, queries."""

import pytest

from repro import Database
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
        rows = emp.query("SELECT * FROM emp")
        assert len(rows) == 5
        assert rows[0] == ("amy", "eng", 100, 1)

    def test_projection_order(self, emp):
        rows = emp.query("SELECT id, name FROM emp WHERE id = 3")
        assert rows == [(3, "cid")]

    def test_description(self, emp):
        cursor = emp.execute("SELECT id, name AS who FROM emp")
        assert cursor.description == ["id", "who"]

    def test_where_comparisons(self, emp):
        assert len(emp.query("SELECT * FROM emp WHERE salary >= 80")) == 3
        assert len(emp.query("SELECT * FROM emp WHERE salary != 70")) == 4

    def test_where_and_or_not(self, emp):
        rows = emp.query("SELECT name FROM emp "
                         "WHERE dept = 'eng' AND salary > 90 OR dept = 'hr'")
        assert sorted(r[0] for r in rows) == ["amy", "eve"]
        rows = emp.query("SELECT name FROM emp WHERE NOT dept = 'eng'")
        assert len(rows) == 3

    def test_between_in_like(self, emp):
        assert len(emp.query(
            "SELECT * FROM emp WHERE salary BETWEEN 70 AND 90")) == 3
        assert len(emp.query(
            "SELECT * FROM emp WHERE dept IN ('eng', 'hr')")) == 3
        assert len(emp.query(
            "SELECT * FROM emp WHERE name LIKE '%e%'")) == 2

    def test_expressions_in_select(self, emp):
        rows = emp.query("SELECT name, salary * 2 FROM emp WHERE id = 1")
        assert rows == [("amy", 200)]

    def test_functions(self, emp):
        rows = emp.query("SELECT UPPER(name), LENGTH(dept) FROM emp "
                         "WHERE id = 1")
        assert rows == [("AMY", 3)]

    def test_order_by(self, emp):
        rows = emp.query("SELECT name FROM emp ORDER BY salary DESC")
        assert [r[0] for r in rows] == ["amy", "dee", "bob", "eve", "cid"]

    def test_order_by_multiple(self, emp):
        rows = emp.query("SELECT name FROM emp ORDER BY dept, salary DESC")
        assert [r[0] for r in rows] == ["amy", "bob", "eve", "dee", "cid"]

    def test_distinct(self, emp):
        rows = emp.query("SELECT DISTINCT dept FROM emp")
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
        rows = emp.query("SELECT name FROM emp ORDER BY id LIMIT 2 OFFSET 1")
        assert [r[0] for r in rows] == ["bob", "cid"]

    def test_rowid_pseudocolumn(self, emp):
        rows = emp.query("SELECT rowid, name FROM emp WHERE id = 1")
        from repro.storage.heap import RowId
        assert isinstance(rows[0][0], RowId)

    def test_streaming_fetchone(self, emp):
        cursor = emp.execute("SELECT name FROM emp")
        assert cursor.fetchone() is not None
        assert len(cursor.fetchmany(2)) == 2
        assert len(cursor.fetchall()) == 2
        assert cursor.fetchone() is None


class TestAggregates:
    def test_count_star(self, emp):
        assert emp.query("SELECT COUNT(*) FROM emp") == [(5,)]

    def test_sum_avg_min_max(self, emp):
        rows = emp.query("SELECT SUM(salary), AVG(salary), MIN(salary),"
                         " MAX(salary) FROM emp")
        assert rows == [(400, 80, 60, 100)]

    def test_group_by(self, emp):
        rows = emp.query("SELECT dept, COUNT(*), SUM(salary) FROM emp "
                         "GROUP BY dept ORDER BY dept")
        assert rows == [("eng", 2, 180), ("hr", 1, 70), ("sales", 2, 150)]

    def test_having(self, emp):
        rows = emp.query("SELECT dept FROM emp GROUP BY dept "
                         "HAVING COUNT(*) > 1 ORDER BY dept")
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
        assert emp.query("SELECT COUNT(DISTINCT dept) FROM emp") == [(3,)]

    def test_aggregate_over_empty(self, db):
        db.execute("CREATE TABLE empty (x NUMBER)")
        rows = db.query("SELECT COUNT(*), SUM(x) FROM empty")
        assert rows[0][0] == 0
        assert is_null(rows[0][1])

    def test_aggregates_skip_nulls(self, db):
        db.execute("CREATE TABLE t (x NUMBER)")
        db.execute("INSERT INTO t VALUES (1), (NULL), (3)")
        assert db.query("SELECT COUNT(x), AVG(x) FROM t") == [(2, 2)]


class TestJoins:
    @pytest.fixture
    def join_db(self, emp):
        emp.execute("CREATE TABLE dept (dname VARCHAR2(20), floor INTEGER)")
        for name, floor in (("eng", 3), ("sales", 1), ("hr", 2)):
            emp.execute("INSERT INTO dept VALUES (:1, :2)", [name, floor])
        return emp

    def test_equi_join(self, join_db):
        rows = join_db.query(
            "SELECT e.name, d.floor FROM emp e, dept d "
            "WHERE e.dept = d.dname AND e.id = 1")
        assert rows == [("amy", 3)]

    def test_join_all_rows(self, join_db):
        rows = join_db.query(
            "SELECT e.name, d.floor FROM emp e, dept d "
            "WHERE e.dept = d.dname")
        assert len(rows) == 5

    def test_cartesian_with_filter(self, join_db):
        rows = join_db.query(
            "SELECT e.name, d.dname FROM emp e, dept d "
            "WHERE e.salary > 90 AND d.floor = 1")
        assert rows == [("amy", "sales")]

    def test_self_join(self, emp):
        rows = emp.query(
            "SELECT a.name, b.name FROM emp a, emp b "
            "WHERE a.dept = b.dept AND a.id < b.id")
        assert sorted(rows) == [("amy", "bob"), ("cid", "dee")]

    def test_ambiguous_column_raises(self, join_db):
        with pytest.raises(CatalogError):
            join_db.query("SELECT name FROM emp e, emp f")


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
        row = db.query("SELECT a, b FROM t")[0]
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
        assert emp.query("SELECT salary FROM emp WHERE id = 1") == [(110,)]

    def test_delete(self, emp):
        cursor = emp.execute("DELETE FROM emp WHERE dept = 'sales'")
        assert cursor.rowcount == 2
        assert emp.query("SELECT COUNT(*) FROM emp") == [(3,)]

    def test_not_null_enforced(self, db):
        db.execute("CREATE TABLE t (a NUMBER NOT NULL)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (NULL)")

    def test_type_validated(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        from repro.errors import TypeMismatchError
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t VALUES ('xyz')")


class TestDDL:
    def test_duplicate_table_rejected(self, db):
        db.execute("CREATE TABLE t (a NUMBER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a NUMBER)")

    def test_drop_table(self, db):
        db.execute("CREATE TABLE t (a NUMBER)")
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM t")

    def test_truncate(self, emp):
        emp.execute("TRUNCATE TABLE emp")
        assert emp.query("SELECT COUNT(*) FROM emp") == [(0,)]

    def test_iot_table(self, db):
        db.execute("CREATE TABLE iot (k INTEGER PRIMARY KEY, v VARCHAR2(10))"
                   " ORGANIZATION INDEX")
        for key in (5, 1, 3):
            db.execute("INSERT INTO iot VALUES (:1, 'v')", [key])
        rows = db.query("SELECT k FROM iot")
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
        assert emp.query("SELECT COUNT(*) FROM emp") == [(5,)]
        assert emp.query("SELECT salary FROM emp WHERE id = 1") == [(100,)]
        assert emp.query("SELECT name FROM emp WHERE id = 2") == [("bob",)]

    def test_commit_persists(self, emp):
        emp.begin()
        emp.execute("DELETE FROM emp WHERE id = 5")
        emp.commit()
        assert emp.query("SELECT COUNT(*) FROM emp") == [(4,)]

    def test_sql_level_txn_statements(self, emp):
        emp.execute("BEGIN TRANSACTION")
        emp.execute("DELETE FROM emp")
        emp.execute("ROLLBACK")
        assert emp.query("SELECT COUNT(*) FROM emp") == [(5,)]

    def test_savepoint_sql(self, emp):
        emp.execute("BEGIN TRANSACTION")
        emp.execute("DELETE FROM emp WHERE id = 1")
        emp.execute("SAVEPOINT sp")
        emp.execute("DELETE FROM emp WHERE id = 2")
        emp.execute("ROLLBACK TO SAVEPOINT sp")
        assert emp.query("SELECT COUNT(*) FROM emp") == [(4,)]
        emp.execute("ROLLBACK")
        assert emp.query("SELECT COUNT(*) FROM emp") == [(5,)]

    def test_rollback_restores_native_index(self, emp):
        emp.execute("CREATE INDEX emp_sal ON emp(salary)")
        emp.begin()
        emp.execute("UPDATE emp SET salary = 999 WHERE id = 1")
        emp.rollback()
        rows = emp.query("SELECT name FROM emp WHERE salary = 100")
        assert rows == [("amy",)]
        assert emp.query("SELECT name FROM emp WHERE salary = 999") == []

    def test_autocommit_failure_rolls_back_statement(self, db):
        db.execute("CREATE TABLE t (a NUMBER NOT NULL)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (1), (NULL)")
        # the whole statement rolled back, including the first row
        assert db.query("SELECT COUNT(*) FROM t") == [(0,)]


class TestBinds:
    def test_positional(self, emp):
        rows = emp.query("SELECT name FROM emp WHERE id = :1", [3])
        assert rows == [("cid",)]

    def test_named(self, emp):
        rows = emp.query("SELECT name FROM emp WHERE dept = :d AND id > :n",
                         {"d": "sales", "n": 3})
        assert rows == [("dee",)]

    def test_missing_bind_raises(self, emp):
        with pytest.raises(ExecutionError):
            emp.query("SELECT * FROM emp WHERE id = :1")

    def test_bind_arbitrary_object(self, db):
        db.execute("CREATE TABLE t (rid ROWID)")
        db.execute("CREATE TABLE src (x NUMBER)")
        db.execute("INSERT INTO src VALUES (1)")
        rid = db.query("SELECT rowid FROM src")[0][0]
        db.execute("INSERT INTO t VALUES (:1)", [rid])
        assert db.query("SELECT rid FROM t WHERE rid = :1", [rid]) == [(rid,)]


class TestVarrayColumns:
    def test_varray_roundtrip_and_contains(self, db):
        db.execute("CREATE TABLE people (name VARCHAR2(20),"
                   " hobbies VARRAY(10) OF VARCHAR2(64))")
        db.execute("INSERT INTO people VALUES ('amy',"
                   " varray('Skiing', 'Chess'))")
        db.execute("INSERT INTO people VALUES ('bob', varray('Go'))")
        rows = db.query("SELECT name FROM people WHERE :1 = 1",
                        [1])
        assert len(rows) == 2
        value = db.query("SELECT hobbies FROM people WHERE name = 'amy'")
        assert value[0][0] == ("Skiing", "Chess")
