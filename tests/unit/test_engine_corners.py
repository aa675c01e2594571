"""Remaining engine corners: joins with NULLs, IOT DML via SQL,
index rebuild/truncate interactions, cursor metadata."""

import pytest

from repro.types.values import is_null


class TestJoinNullSemantics:
    @pytest.fixture
    def jdb(self, db):
        db.execute("CREATE TABLE l (k INTEGER, v VARCHAR2(4))")
        db.execute("CREATE TABLE r (k INTEGER, w VARCHAR2(4))")
        for k, v in ((1, "a"), (None, "b"), (2, "c")):
            db.execute("INSERT INTO l VALUES (:1, :2)", [k, v])
        for k, w in ((1, "x"), (None, "y")):
            db.execute("INSERT INTO r VALUES (:1, :2)", [k, w])
        return db

    def test_hash_join_drops_null_keys(self, jdb):
        rows = jdb.execute(
            "SELECT l.v, r.w FROM l, r WHERE l.k = r.k").fetchall()
        assert rows == [("a", "x")]  # NULL keys never join

    def test_indexed_nl_join_drops_null_keys(self, jdb):
        jdb.execute("CREATE INDEX r_k ON r(k)")
        jdb.execute("ANALYZE TABLE r COMPUTE STATISTICS")
        rows = jdb.execute(
            "SELECT l.v, r.w FROM l, r WHERE l.k = r.k").fetchall()
        assert rows == [("a", "x")]

    def test_nested_loop_with_null_condition(self, jdb):
        rows = jdb.execute("SELECT l.v FROM l, r WHERE l.k < r.k").fetchall()
        assert rows == []  # only r.k = 1 exists; nothing below it joins...

    def test_three_way_join(self, jdb):
        jdb.execute("CREATE TABLE m (k INTEGER, z VARCHAR2(4))")
        jdb.execute("INSERT INTO m VALUES (1, 'm1')")
        rows = jdb.execute(
            "SELECT l.v, r.w, m.z FROM l, r, m"
            " WHERE l.k = r.k AND r.k = m.k").fetchall()
        assert rows == [("a", "x", "m1")]


class TestIOTSqlDml:
    @pytest.fixture
    def iot_db(self, db):
        db.execute("CREATE TABLE kv (k INTEGER PRIMARY KEY,"
                   " v VARCHAR2(10)) ORGANIZATION INDEX")
        for k in (3, 1, 2):
            db.execute("INSERT INTO kv VALUES (:1, :2)", [k, f"v{k}"])
        return db

    def test_update_payload(self, iot_db):
        iot_db.execute("UPDATE kv SET v = 'new' WHERE k = 2")
        assert iot_db.execute(
            "SELECT v FROM kv WHERE k = 2").fetchall() == [("new",)]

    def test_update_key_reorders(self, iot_db):
        iot_db.execute("UPDATE kv SET k = 9 WHERE k = 1")
        assert [r[0] for r in iot_db.execute(
            "SELECT k FROM kv").fetchall()] == [2, 3, 9]

    def test_delete(self, iot_db):
        iot_db.execute("DELETE FROM kv WHERE k = 2")
        assert [r[0] for r in iot_db.execute(
            "SELECT k FROM kv").fetchall()] == [1, 3]

    def test_rollback_on_iot(self, iot_db):
        iot_db.begin()
        iot_db.execute("DELETE FROM kv")
        iot_db.rollback()
        assert iot_db.execute("SELECT COUNT(*) FROM kv").fetchall() == [(3,)]

    def test_duplicate_pk_rejected(self, iot_db):
        from repro.errors import ConstraintError
        with pytest.raises(ConstraintError):
            iot_db.execute("INSERT INTO kv VALUES (1, 'dup')")


class TestIndexLifecycleSql:
    def test_truncate_clears_native_indexes(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("CREATE INDEX t_x ON t(x)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("TRUNCATE TABLE t")
        index = db.catalog.get_index("t_x")
        assert len(index.structure) == 0
        db.execute("INSERT INTO t VALUES (5)")
        db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
        assert db.execute("SELECT x FROM t WHERE x = 5").fetchall() == [(5,)]

    def test_alter_index_rebuild(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("CREATE INDEX t_x ON t(x)")
        index = db.catalog.get_index("t_x")
        index.structure.clear()  # simulate corruption
        db.execute("ALTER INDEX t_x REBUILD")
        assert len(index.structure) == 3

    def test_drop_index_keeps_table(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("CREATE INDEX t_x ON t(x)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("DROP INDEX t_x")
        assert db.execute("SELECT COUNT(*) FROM t").fetchall() == [(1,)]

    def test_multi_column_btree_key(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        db.execute("CREATE INDEX t_ab ON t(a, b)")
        db.execute("INSERT INTO t VALUES (1, 2), (1, 3)")
        index = db.catalog.get_index("t_ab")
        assert index.structure.search((1, 2))
        db.execute("DELETE FROM t WHERE b = 2")
        assert not index.structure.search((1, 2))


class TestCursorMetadata:
    def test_star_description(self, db):
        db.execute("CREATE TABLE t (alpha NUMBER, beta VARCHAR2(4))")
        cursor = db.execute("SELECT * FROM t")
        assert cursor.description == ["alpha", "beta"]

    def test_expression_names(self, db):
        db.execute("CREATE TABLE t (x NUMBER)")
        cursor = db.execute(
            "SELECT x, x + 1, UPPER('a'), COUNT(*) FROM t GROUP BY x, x + 1")
        assert cursor.description[0] == "x"
        assert cursor.description[2] == "upper"
        assert cursor.description[3] == "count"

    def test_dml_rowcount_and_no_description(self, db):
        db.execute("CREATE TABLE t (x NUMBER)")
        cursor = db.execute("INSERT INTO t VALUES (1), (2)")
        assert cursor.rowcount == 2
        assert cursor.description is None

    def test_fetch_after_exhaustion(self, db):
        db.execute("CREATE TABLE t (x NUMBER)")
        db.execute("INSERT INTO t VALUES (1)")
        cursor = db.execute("SELECT x FROM t")
        cursor.fetchall()
        assert cursor.fetchone() is None
        assert cursor.fetchall() == []


class TestInsertSelectWithIndexMaintenance:
    def test_insert_select_maintains_domain_index(self, text_db):
        text_db.execute("CREATE TABLE src (body VARCHAR2(100))")
        text_db.execute("INSERT INTO src VALUES ('oracle tips')")
        text_db.execute("CREATE TABLE dst (body VARCHAR2(100))")
        text_db.execute("CREATE INDEX dst_idx ON dst(body)"
                        " INDEXTYPE IS TextIndexType")
        text_db.execute("INSERT INTO dst SELECT body FROM src")
        rows = text_db.execute(
            "SELECT body FROM dst WHERE Contains(body, 'oracle')").fetchall()
        assert rows == [("oracle tips",)]
