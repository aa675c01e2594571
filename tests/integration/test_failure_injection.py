"""Failure injection: cartridge routines that raise, and what the server
guarantees afterwards.

The framework's promise is that a domain index behaves like a built-in
one — including fault isolation: if ODCIIndexCreate fails the index is
left FAILED (only DROP is allowed); if ODCIIndexInsert fails the
statement's changes roll back atomically and, under
``skip_unusable_indexes`` (default on), the index degrades to UNUSABLE
and the statement is retried once without it — queries then fall back
to the operator's functional implementation until ``ALTER INDEX ...
REBUILD`` restores the index.
"""

import pytest

from repro import (
    Engine, IndexMethods, IndexState, IndexTable, PrecomputedScan)
from repro.errors import CatalogError, IndexUnusableError, ODCIError

pytestmark = pytest.mark.faults


class FlakyIndexMethods(IndexMethods):
    """A text-like indextype whose routines fail on command."""

    fail_on: str = ""  # class-level switch set by tests

    index_tables = (IndexTable("data", "v VARCHAR2(100), rid ROWID"),)

    def _table(self, ia):
        return self.index_tables[0].name(ia)

    def index_create(self, ia, parameters, env):
        if FlakyIndexMethods.fail_on == "create":
            raise ODCIError("ODCIIndexCreate", "injected failure")
        super().index_create(ia, parameters, env)

    def index_drop(self, ia, env):
        if FlakyIndexMethods.fail_on == "drop":
            raise ODCIError("ODCIIndexDrop", "injected failure")
        super().index_drop(ia, env)

    def index_insert(self, ia, rowid, new_values, env):
        if FlakyIndexMethods.fail_on == "insert":
            raise ODCIError("ODCIIndexInsert", "injected failure")
        env.callback.insert_row(self._table(ia), [new_values[0], rowid])

    def index_delete(self, ia, rowid, old_values, env):
        if FlakyIndexMethods.fail_on == "delete":
            raise ODCIError("ODCIIndexDelete", "injected failure")
        env.callback.execute(
            f"DELETE FROM {self._table(ia)} WHERE rid = :1", [rowid])

    def index_start(self, ia, op_info, query_info, env):
        if FlakyIndexMethods.fail_on == "start":
            raise ODCIError("ODCIIndexStart", "injected failure")
        rows = env.callback.query(
            f"SELECT rid FROM {self._table(ia)} WHERE v = :1",
            [op_info.operator_args[0]])
        return PrecomputedScan(sorted(r[0] for r in rows))

    def index_fetch(self, context, nrows, env):
        if FlakyIndexMethods.fail_on == "fetch":
            raise ODCIError("ODCIIndexFetch", "injected failure")
        return super().index_fetch(context, nrows, env)


@pytest.fixture
def flaky_db():
    FlakyIndexMethods.fail_on = ""
    db = Engine().connect()
    # a deliberately expensive functional implementation so the
    # optimizer always prefers the (flaky) domain index scan
    db.create_function("EqValFunc",
                       lambda v, probe: 1 if v == probe else 0, cost=5.0)
    db.register_methods("FlakyIndexMethods", FlakyIndexMethods)
    db.execute("CREATE OPERATOR Eq_Val BINDING (VARCHAR2, VARCHAR2)"
               " RETURN NUMBER USING EqValFunc")
    db.execute("CREATE INDEXTYPE FlakyIndexType"
               " FOR Eq_Val(VARCHAR2, VARCHAR2) USING FlakyIndexMethods")
    db.execute("CREATE TABLE t (v VARCHAR2(100))")
    db.execute("INSERT INTO t VALUES ('alpha'), ('beta')")
    yield db
    FlakyIndexMethods.fail_on = ""


class TestCreateFailure:
    def test_failed_create_leaves_failed_index(self, flaky_db):
        FlakyIndexMethods.fail_on = "create"
        with pytest.raises(ODCIError):
            flaky_db.execute("CREATE INDEX t_idx ON t(v)"
                             " INDEXTYPE IS FlakyIndexType")
        # Oracle semantics: the catalog entry survives in FAILED state
        index = flaky_db.catalog.get_index("t_idx")
        assert index.domain.state is IndexState.FAILED
        # and the query still works functionally (FAILED is never planned)
        assert flaky_db.execute(
            "SELECT v FROM t WHERE Eq_Val(v, 'alpha')"
        ).fetchall() == [("alpha",)]

    def test_failed_index_allows_only_drop(self, flaky_db):
        FlakyIndexMethods.fail_on = "create"
        with pytest.raises(ODCIError):
            flaky_db.execute("CREATE INDEX t_idx ON t(v)"
                             " INDEXTYPE IS FlakyIndexType")
        FlakyIndexMethods.fail_on = ""
        with pytest.raises(CatalogError):
            flaky_db.execute("ALTER INDEX t_idx REBUILD")
        with pytest.raises(CatalogError):
            flaky_db.execute("ALTER INDEX t_idx PARAMETERS ('x')")
        flaky_db.execute("DROP INDEX t_idx FORCE")
        assert not flaky_db.catalog.has_index("t_idx")

    def test_create_succeeds_after_drop_of_failed_index(self, flaky_db):
        FlakyIndexMethods.fail_on = "create"
        with pytest.raises(ODCIError):
            flaky_db.execute("CREATE INDEX t_idx ON t(v)"
                             " INDEXTYPE IS FlakyIndexType")
        FlakyIndexMethods.fail_on = ""
        flaky_db.execute("DROP INDEX t_idx FORCE")
        flaky_db.execute("CREATE INDEX t_idx ON t(v)"
                         " INDEXTYPE IS FlakyIndexType")
        index = flaky_db.catalog.get_index("t_idx")
        assert index.domain.state is IndexState.VALID


class TestMaintenanceFailure:
    @pytest.fixture
    def indexed(self, flaky_db):
        flaky_db.execute("CREATE INDEX t_idx ON t(v)"
                         " INDEXTYPE IS FlakyIndexType")
        return flaky_db

    def test_failed_insert_degrades_index_and_retries(self, indexed):
        FlakyIndexMethods.fail_on = "insert"
        # default skip_unusable_indexes: the statement rolls back, the
        # index degrades to UNUSABLE, and the retry (without domain
        # maintenance) succeeds — the user never sees the failure
        indexed.execute("INSERT INTO t VALUES ('gamma')")
        FlakyIndexMethods.fail_on = ""
        index = indexed.catalog.get_index("t_idx")
        assert index.domain.state is IndexState.UNUSABLE
        assert indexed.execute("SELECT COUNT(*) FROM t").fetchall() == [(3,)]
        # the rolled-back maintenance left no index entry behind
        assert indexed.execute(
            "SELECT COUNT(*) FROM t_idx_data WHERE v = 'gamma'"
        ).fetchall() == [(0,)]
        # and the row is still found — via functional evaluation
        assert indexed.execute(
            "SELECT v FROM t WHERE Eq_Val(v, 'gamma')"
        ).fetchall() == [("gamma",)]

    def test_failed_insert_raises_with_skip_disabled(self, indexed):
        indexed.skip_unusable_indexes = False
        FlakyIndexMethods.fail_on = "insert"
        with pytest.raises(ODCIError):
            indexed.execute("INSERT INTO t VALUES ('gamma')")
        FlakyIndexMethods.fail_on = ""
        # no degradation, full rollback: index stays VALID, row is gone
        index = indexed.catalog.get_index("t_idx")
        assert index.domain.state is IndexState.VALID
        assert indexed.execute("SELECT COUNT(*) FROM t").fetchall() == [(2,)]
        assert indexed.execute(
            "SELECT COUNT(*) FROM t_idx_data WHERE v = 'gamma'"
        ).fetchall() == [(0,)]

    def test_dml_on_unusable_index_raises_with_skip_disabled(self, indexed):
        indexed.execute("ALTER INDEX t_idx UNUSABLE")
        indexed.skip_unusable_indexes = False
        with pytest.raises(IndexUnusableError):
            indexed.execute("INSERT INTO t VALUES ('gamma')")
        assert indexed.execute("SELECT COUNT(*) FROM t").fetchall() == [(2,)]

    def test_failed_delete_degrades_index_and_retries(self, indexed):
        FlakyIndexMethods.fail_on = "delete"
        indexed.execute("DELETE FROM t WHERE v = 'alpha'")
        FlakyIndexMethods.fail_on = ""
        index = indexed.catalog.get_index("t_idx")
        assert index.domain.state is IndexState.UNUSABLE
        assert indexed.execute("SELECT COUNT(*) FROM t").fetchall() == [(1,)]
        assert indexed.execute(
            "SELECT v FROM t WHERE Eq_Val(v, 'alpha')").fetchall() == []

    def test_failure_in_explicit_txn_preserves_earlier_work(self, indexed):
        indexed.begin()
        indexed.execute("INSERT INTO t VALUES ('early')")
        FlakyIndexMethods.fail_on = "insert"
        indexed.execute("INSERT INTO t VALUES ('late')")
        FlakyIndexMethods.fail_on = ""
        # the failed attempt rolled back to its own savepoint only; the
        # earlier insert survived, and the retry landed the late row
        indexed.commit()
        values = sorted(r[0] for r in indexed.execute(
            "SELECT v FROM t").fetchall())
        assert "early" in values and "late" in values
        # the degraded index never saw either maintenance call complete
        assert indexed.catalog.get_index(
            "t_idx").domain.state is IndexState.UNUSABLE

    def test_consistency_after_mixed_failures(self, indexed):
        # with skip_unusable_indexes off, each injected failure aborts
        # its own statement and the index stays VALID and consistent
        indexed.skip_unusable_indexes = False
        for __ in range(3):
            FlakyIndexMethods.fail_on = "insert"
            with pytest.raises(ODCIError):
                indexed.execute("INSERT INTO t VALUES ('x')")
            FlakyIndexMethods.fail_on = ""
            indexed.execute("INSERT INTO t VALUES ('y')")
        assert indexed.catalog.get_index(
            "t_idx").domain.state is IndexState.VALID
        # index answers equal functional answers
        indexed_rows = indexed.execute(
            "SELECT rowid FROM t WHERE Eq_Val(v, 'y')").fetchall()
        assert len(indexed_rows) == 3
        base = indexed.execute("SELECT COUNT(*) FROM t").fetchall()
        assert base == [(5,)]

    def test_rebuild_restores_index_after_degradation(self, indexed):
        FlakyIndexMethods.fail_on = "insert"
        indexed.execute("INSERT INTO t VALUES ('gamma')")
        FlakyIndexMethods.fail_on = ""
        assert indexed.catalog.get_index(
            "t_idx").domain.state is IndexState.UNUSABLE
        indexed.execute("ALTER INDEX t_idx REBUILD")
        index = indexed.catalog.get_index("t_idx")
        assert index.domain.state is IndexState.VALID
        # the rebuilt index includes the row inserted while degraded
        plan = indexed.explain("SELECT v FROM t WHERE Eq_Val(v, 'gamma')")
        assert any("DOMAIN INDEX SCAN" in line for line in plan)
        assert indexed.execute(
            "SELECT v FROM t WHERE Eq_Val(v, 'gamma')"
        ).fetchall() == [("gamma",)]


class TestScanFailure:
    @pytest.fixture
    def indexed(self, flaky_db):
        flaky_db.execute("CREATE INDEX t_idx ON t(v)"
                         " INDEXTYPE IS FlakyIndexType")
        return flaky_db

    def test_start_failure_degrades_and_retries(self, indexed):
        # skip_unusable_indexes (default on): a scan-phase failure before
        # the first row marks the index UNUSABLE and re-executes the
        # statement, which falls back to the functional implementation
        FlakyIndexMethods.fail_on = "start"
        assert indexed.execute(
            "SELECT v FROM t WHERE Eq_Val(v, 'alpha')"
        ).fetchall() == [("alpha",)]
        assert indexed.catalog.get_index(
            "t_idx").domain.state is IndexState.UNUSABLE

    def test_start_failure_propagates_with_skip_off(self, indexed):
        indexed.skip_unusable_indexes = False
        FlakyIndexMethods.fail_on = "start"
        with pytest.raises(ODCIError):
            indexed.execute(
                "SELECT v FROM t WHERE Eq_Val(v, 'alpha')").fetchall()
        assert indexed.catalog.get_index(
            "t_idx").domain.state is IndexState.VALID

    def test_fetch_failure_still_closes_scan(self, indexed):
        indexed.skip_unusable_indexes = False
        FlakyIndexMethods.fail_on = "fetch"
        with pytest.raises(ODCIError):
            indexed.execute(
                "SELECT v FROM t WHERE Eq_Val(v, 'alpha')").fetchall()
        FlakyIndexMethods.fail_on = ""
        # the engine can still run scans afterwards (no stuck state)
        assert indexed.execute(
            "SELECT v FROM t WHERE Eq_Val(v, 'alpha')"
        ).fetchall() == [("alpha",)]

    def test_database_usable_after_scan_failure(self, indexed):
        indexed.skip_unusable_indexes = False
        FlakyIndexMethods.fail_on = "start"
        with pytest.raises(ODCIError):
            indexed.execute(
                "SELECT v FROM t WHERE Eq_Val(v, 'alpha')").fetchall()
        FlakyIndexMethods.fail_on = ""
        indexed.execute("INSERT INTO t VALUES ('after')")
        assert indexed.execute(
            "SELECT COUNT(*) FROM t").fetchall() == [(3,)]


class TestDropFailure:
    def test_drop_force_removes_despite_failure(self, flaky_db):
        flaky_db.execute("CREATE INDEX t_idx ON t(v)"
                         " INDEXTYPE IS FlakyIndexType")
        FlakyIndexMethods.fail_on = "drop"
        with pytest.raises(ODCIError):
            flaky_db.execute("DROP INDEX t_idx")
        assert flaky_db.catalog.has_index("t_idx")
        flaky_db.execute("DROP INDEX t_idx FORCE")
        assert not flaky_db.catalog.has_index("t_idx")
