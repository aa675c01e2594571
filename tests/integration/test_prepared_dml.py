"""Prepared DML: INSERT, UPDATE and DELETE in the shared plan cache.

A DML statement is compiled once per (text, bind signature) into a
``PreparedDML`` and run with each execution's binds as arguments.  A hit
must still run every per-execution check (callback phase, privilege,
binds), give the answers a cold compile and the reference interpreter
give, and follow the cache's invalidation rules.
"""

import pytest

from repro import Database
from repro.core.callbacks import CallbackPhase, CallbackSession
from repro.errors import (
    CallbackViolation, ConstraintError, ExecutionError, PrivilegeError)
from repro.sql.dml import PreparedDML
from repro.sql.plan_cache import normalize_sql
from repro.testing import interpreter_forced


def _cached(db, sql, signature=("1",)):
    return db.plan_cache._entries.get((normalize_sql(sql), signature))


class TestChecksRunOnEveryHit:
    @pytest.fixture
    def cb_db(self, db):
        db.execute("CREATE TABLE base (x NUMBER)")
        db.execute("CREATE TABLE idxdata (x NUMBER)")
        # six rows: deleting one keeps the table in its size bucket
        db.insert_rows("idxdata", [[x] for x in range(1, 7)])
        return db

    def test_scan_callback_refused_a_delete_maintenance_cached(self, cb_db):
        sql = "DELETE FROM idxdata WHERE x = :1"
        maintenance = CallbackSession(cb_db, CallbackPhase.MAINTENANCE,
                                      base_table="base")
        assert maintenance.execute(sql, [1]).rowcount == 1
        entry = _cached(cb_db, sql)
        assert isinstance(entry.plan, PreparedDML)
        scan = CallbackSession(cb_db, CallbackPhase.SCAN, base_table="base")
        with pytest.raises(CallbackViolation):
            scan.execute(sql, [2])
        assert entry.hits == 1
        assert cb_db.execute("SELECT COUNT(*) FROM idxdata"
                             ).fetchall() == [(5,)]

    def test_maintenance_dml_on_its_base_table_refused_on_a_hit(self, cb_db):
        sql = "UPDATE base SET x = :1"
        cb_db.execute(sql, [2])          # the top-level statement caches it
        maintenance = CallbackSession(cb_db, CallbackPhase.MAINTENANCE,
                                      base_table="base")
        with pytest.raises(CallbackViolation):
            maintenance.execute(sql, [3])
        assert _cached(cb_db, sql).hits == 1

    @pytest.mark.parametrize("sql", [
        "UPDATE docs SET body = :1 WHERE id = :2",
        "DELETE FROM docs WHERE id = :2 OR :1 = 'x'"])
    def test_user_without_the_grant_refused_on_the_owners_plan(self, db,
                                                                sql):
        db.set_user("alice")
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(20))")
        db.insert_rows("docs", [[i, "a"] for i in (1, 2, 3)])
        db.execute("GRANT SELECT ON docs TO bob")
        assert db.execute(sql, ["b", 1]).rowcount == 1
        db.set_user("bob")
        with pytest.raises(PrivilegeError):
            db.execute(sql, ["c", 2])
        assert _cached(db, sql, ("1", "2")).hits == 1
        assert db.execute("SELECT body FROM docs WHERE id = 2"
                          ).fetchall() == [("a",)]

    def test_missing_bind_on_a_hit_raises(self, cb_db):
        sql = "DELETE FROM idxdata WHERE x = :1"
        # EXPLAIN stores the plan under the bind signature it was given
        assert cb_db.explain(sql)[-1] == "plan cache: MISS (stored)"
        with pytest.raises(ExecutionError, match="no value supplied"):
            cb_db.execute(sql)
        assert _cached(cb_db, sql, ()).hits == 1
        assert cb_db.execute("SELECT COUNT(*) FROM idxdata"
                             ).fetchall() == [(6,)]


# ---------------------------------------------------------------------------
# cold cache ≡ warm cache ≡ interpreter
# ---------------------------------------------------------------------------

_SHAPES = {
    "heap": [],
    "iot": None,
    "btree": ["CREATE INDEX t_k ON t(k)"],
    "hash": ["CREATE HASH INDEX t_k ON t(k)"],
    "bitmap": ["CREATE BITMAP INDEX t_g ON t(g)"],
}

_STATEMENTS = [
    ("INSERT INTO t VALUES (:1, :2, :3)", lambda i: [100 + i, i % 3, i]),
    ("INSERT INTO t (k, g) VALUES (:1, :2)", lambda i: [200 + i, i % 4]),
    ("UPDATE t SET v = v + :1 WHERE k = :2", lambda i: [i, i * 7 % 40]),
    ("UPDATE t SET v = :1, g = :2 WHERE g = :3 AND k > :4",
     lambda i: [i, (i + 1) % 3, i % 3, i * 5]),
    ("DELETE FROM t WHERE k = :1", lambda i: [i * 11 % 60]),
    ("DELETE FROM t WHERE g = :1 AND v > :2", lambda i: [i % 3, 30 - i]),
]


def _table_db(shape):
    db = Database()
    if shape == "iot":
        db.execute("CREATE TABLE t (k INTEGER, g INTEGER, v INTEGER,"
                   " PRIMARY KEY (k)) ORGANIZATION INDEX")
    else:
        db.execute("CREATE TABLE t (k INTEGER, g INTEGER, v INTEGER)")
    db.insert_rows("t", [[k, k % 3, k * 2 % 17] for k in range(60)])
    for ddl in _SHAPES[shape] or []:
        db.execute(ddl)
    return db


def _workload(db, mode):
    counts = []
    for i in range(6):
        for sql, binds in _STATEMENTS:
            if mode == "cold":
                db.plan_cache.clear()
            if mode == "interpreter":
                with interpreter_forced(db):
                    counts.append(db.execute(sql, binds(i)).rowcount)
            else:
                counts.append(db.execute(sql, binds(i)).rowcount)
    return counts, sorted(db.execute("SELECT k, g, v FROM t").fetchall(),
                          key=repr)


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_cold_warm_and_interpreter_agree(shape):
    results = {mode: _workload(_table_db(shape), mode)
               for mode in ("cold", "warm", "interpreter")}
    assert results["cold"] == results["warm"] == results["interpreter"]
    counts, rows = results["warm"]
    assert sum(counts) > 0 and rows


def test_warm_run_is_served_from_the_cache():
    db = _table_db("btree")
    _workload(db, "warm")
    stats = db.plan_cache.stats
    stats.reset()
    _workload(db, "warm")
    # every DML execution and the final SELECT
    assert stats.hits == stats.lookups == len(_STATEMENTS) * 6 + 1


# ---------------------------------------------------------------------------
# lifecycle: domain scans, replanning, EXPLAIN
# ---------------------------------------------------------------------------

def test_domain_scan_delete_opens_and_closes_once_per_execution(
        employees_db):
    db = employees_db
    sql = "DELETE FROM employees WHERE Contains(resume, :1) = 1"
    assert "DOMAIN INDEX SCAN" in "\n".join(db.explain(sql, ["COBOL"]))
    db.enable_tracing()
    for executions, word in enumerate(("COBOL", "Java"), start=1):
        del db.trace_log[:]
        assert db.execute(sql, [word]).rowcount == 1
        # a hit both times: the EXPLAIN compiled and stored the plan
        assert _cached(db, sql).hits == executions
        starts = [ln for ln in db.trace_log if ln.startswith(
            "exec:ODCIIndexStart")]
        closes = [ln for ln in db.trace_log if ln == "exec:ODCIIndexClose()"]
        assert (len(starts), len(closes)) == (1, 1)
        assert db.workspace.live_handles == 0
    assert sorted(db.execute("SELECT name FROM employees").fetchall()) \
        == [("Amy",), ("Cid",), ("Eve",)]


def test_create_index_between_executions_replans(db):
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    db.insert_rows("t", [[k, k] for k in range(500)])
    sql = "UPDATE t SET v = v + 1 WHERE k = :1"
    assert db.execute(sql, [5]).rowcount == 1
    assert "TABLE SCAN t" in db.explain(sql, [6])[2]
    db.execute("CREATE INDEX t_k ON t(k)")
    invalidations = db.plan_cache.stats.invalidations
    assert db.execute(sql, [6]).rowcount == 1
    assert db.plan_cache.stats.invalidations == invalidations + 1
    lines = db.explain(sql, [7])
    assert "INDEX RANGE SCAN t_k" in lines[2]
    assert lines[-1].startswith("plan cache: HIT")
    assert db.execute("SELECT v FROM t WHERE k IN (5, 6, 7)"
                      ).fetchall() == [(6,), (7,), (7,)]


class TestExplainDML:
    @pytest.fixture
    def idx_db(self, db):
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        db.insert_rows("t", [[k, k % 7] for k in range(400)])
        db.execute("CREATE INDEX t_k ON t(k)")
        return db

    def test_delete_shows_target_plan_markers_and_cache_line(self, idx_db):
        sql = "DELETE FROM t WHERE k >= :1 AND v < :2"
        first = idx_db.explain(sql, [390, 3])
        assert first[0] == "DELETE t"
        scan = next(ln for ln in first if "INDEX RANGE SCAN t_k" in ln)
        assert "[COMPILED]" in scan and "[VECTORIZED]" in scan
        assert first[-1] == "plan cache: MISS (stored)"
        second = idx_db.explain(sql, [1, 1])
        assert second[-1].startswith("plan cache: HIT")
        assert second[:-1] == first[:-1]

    def test_update_and_uncacheable_dml(self, idx_db):
        lines = idx_db.explain("UPDATE t SET v = v * :1 WHERE k = :2", [2, 3])
        assert lines[0] == "UPDATE t" and "[COMPILED]" in lines[1]
        lines = idx_db.explain(
            "DELETE FROM t WHERE k IN (SELECT k FROM t WHERE v = :1)", [9])
        assert lines[-1] == "plan cache: BYPASS (not cacheable)"
        with pytest.raises(ExecutionError, match="explain requires"):
            idx_db.explain("COMMIT")


def test_subquery_dml_sees_its_binds_and_is_not_frozen(db):
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    db.insert_rows("t", [[k, k % 5] for k in range(20)])
    sql = "DELETE FROM t WHERE k IN (SELECT k FROM t WHERE v = :1)"
    assert db.execute(sql, [1]).rowcount == 4
    assert db.execute(sql, [2]).rowcount == 4
    assert _cached(db, sql) is None
    assert db.execute("SELECT COUNT(*) FROM t").fetchall() == [(12,)]


class TestArrayInsert:
    """``executemany`` INSERT ... VALUES: one prepared statement, one
    maintained statement — the body ``insert_rows`` runs."""

    @pytest.fixture
    def ev_db(self, db):
        db.execute("CREATE TABLE ev (id INTEGER NOT NULL, grp INTEGER)")
        db.execute("CREATE INDEX ev_id ON ev(id)")
        return db

    def test_into_empty_storage_loads_in_bulk_and_rolls_back(self, ev_db):
        sql = "INSERT INTO ev VALUES (:1, :2 * 2)"
        ev_db.begin()
        assert ev_db.executemany(sql, [[i, i] for i in range(50)]
                                 ).rowcount == 50
        storage = ev_db.catalog.get_table("ev").storage
        assert storage.versions.tracked_rowids() == []   # one fence
        assert ev_db.execute("SELECT grp FROM ev WHERE id = 7"
                             ).fetchall() == [(14,)]
        ev_db.rollback()
        assert ev_db.execute("SELECT COUNT(*) FROM ev").fetchall() == [(0,)]
        (index,) = ev_db.catalog.indexes_on("ev")
        assert index.structure.entry_count == 0

    def test_a_failing_set_fails_the_batch(self, ev_db):
        sql = "INSERT INTO ev VALUES (:1, :2)"
        ev_db.execute(sql, [1, 1])          # non-empty: the per-row path
        with pytest.raises(ConstraintError, match="NOT NULL"):
            ev_db.executemany(sql, [[2, 2], [None, 3], [4, 4]])
        assert ev_db.execute("SELECT id FROM ev").fetchall() == [(1,)]
        assert ev_db.executemany(sql, [[2, 2], [3, 3]]).rowcount == 2
        assert _cached(ev_db, sql, ("1", "2")).hits == 2
