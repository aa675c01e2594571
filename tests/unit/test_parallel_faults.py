"""Fault semantics of async ODCI prefetch.

The tentpole promise of the prefetch layer is that it changes *when*
work happens, never *what* the dispatcher contract observes: wall-clock
budgets, the fault taxonomy, bounded retry, and
``skip_unusable_indexes`` degrade-and-retry all behave exactly as in
the serial loop — and ``ODCIIndexClose`` fires exactly once per opened
scan even when prefetched batches are abandoned.  Every test here spies
on the real dispatcher seam with :class:`~repro.testing.FaultPlan`.
"""

import pytest

from repro import Database, FetchResult, IndexMethods, IndexState, \
    PrecomputedScan
from repro.errors import CallbackTimeoutError, ODCIError
from repro.testing import FaultPlan, interpreter_forced

pytestmark = pytest.mark.parallel


class EqScanMethods(IndexMethods):
    """Minimal equality indextype (index table + precomputed scan)."""

    def _table(self, ia):
        return f"{ia.index_name.lower()}_data"

    def index_create(self, ia, parameters, env):
        env.callback.execute(
            f"CREATE TABLE {self._table(ia)} (v VARCHAR2(100), rid ROWID)")
        column = ia.column_names[0]
        for rid, value in env.callback.query(
                f"SELECT rowid, {column} FROM {ia.table_name}"):
            env.callback.insert_row(self._table(ia), [value, rid])

    def index_drop(self, ia, env):
        env.callback.execute(f"DROP TABLE {self._table(ia)}")

    def index_insert(self, ia, rowid, new_values, env):
        env.callback.insert_row(self._table(ia), [new_values[0], rowid])

    def index_delete(self, ia, rowid, old_values, env):
        env.callback.execute(
            f"DELETE FROM {self._table(ia)} WHERE rid = :1", [rowid])

    def index_start(self, ia, op_info, query_info, env):
        rows = env.callback.query(
            f"SELECT rid FROM {self._table(ia)} WHERE v = :1",
            [op_info.operator_args[0]])
        return PrecomputedScan(sorted(r[0] for r in rows))

    def index_fetch(self, context, nrows, env):
        batch = context.next_batch(nrows)
        return FetchResult(rowids=batch, done=len(batch) < nrows)

    def index_close(self, context, env):
        context.close()


QUERY = "SELECT v FROM t WHERE Eq_Val(v, :1) = 1"


@pytest.fixture
def db():
    db = Database()
    db.create_function("EqValFunc",
                       lambda v, probe: 1 if v == probe else 0, cost=5.0)
    db.register_methods("EqScanMethods", EqScanMethods)
    db.execute("CREATE OPERATOR Eq_Val BINDING (VARCHAR2, VARCHAR2)"
               " RETURN NUMBER USING EqValFunc")
    db.execute("CREATE INDEXTYPE EqScanType"
               " FOR Eq_Val(VARCHAR2, VARCHAR2) USING EqScanMethods")
    db.execute("CREATE TABLE t (id INTEGER, v VARCHAR2(100))")
    for i in range(40):
        db.execute("INSERT INTO t VALUES (:1, :2)",
                   [i, "match" if i % 2 == 0 else "other"])
    db.execute("CREATE INDEX t_idx ON t(v) INDEXTYPE IS EqScanType")
    db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
    db.fetch_batch_size = 10  # 20 matches -> two full fetch batches
    yield db
    db.close()


def force_prefetch(db, depth=2):
    """Make every domain scan in ``db`` plan with prefetch ``depth``."""
    db.prefetch_depth = depth
    db.prefetch_min_rows = 1
    db.plan_cache.clear()


def serial_scan(db):
    """Pin ``db`` to the serial fetch loop (no prefetch annotation)."""
    db.prefetch_depth = 0
    db.plan_cache.clear()


class TestLimitEarlyStop:
    """Satellite: LIMIT stops the fetch loop at the batch boundary."""

    def test_serial_limit_issues_no_extra_fetch(self, db):
        serial_scan(db)
        with FaultPlan(db) as plan:
            rows = db.execute(QUERY + " LIMIT 10", ["match"]).fetchall()
        assert len(rows) == 10
        # 10 matches at batch size 10: exactly one fetch satisfies the
        # limit, and yield-then-check must not pull a second batch
        assert plan.calls("ODCIIndexFetch") == 1
        assert plan.calls("ODCIIndexClose") == 1

    def test_limit_cancels_queued_prefetches(self, db):
        force_prefetch(db, depth=2)
        with FaultPlan(db) as plan:
            rows = db.execute(QUERY + " LIMIT 10", ["match"]).fetchall()
        assert len(rows) == 10
        # the producer may run at most ``depth`` fetches ahead of the
        # one batch the limit consumed; close() cancels the rest
        assert 1 <= plan.calls("ODCIIndexFetch") <= 3
        assert plan.calls("ODCIIndexClose") == 1

    def test_limit_with_offset_budgets_both(self, db):
        serial_scan(db)
        with FaultPlan(db) as plan:
            rows = db.execute(QUERY + " LIMIT 5 OFFSET 5",
                              ["match"]).fetchall()
        assert len(rows) == 5
        assert plan.calls("ODCIIndexFetch") == 1
        assert plan.calls("ODCIIndexClose") == 1


class TestPrefetchFaults:
    """Dispatcher taxonomy is preserved through the prefetch pipeline."""

    def test_transient_fetch_retried_through_prefetch(self, db):
        expected = db.execute(QUERY, ["match"]).fetchall()
        force_prefetch(db)
        with FaultPlan(db) as plan:
            plan.fail_transient("ODCIIndexFetch", times=1)
            rows = db.execute(QUERY, ["match"]).fetchall()
        assert rows == expected
        assert plan.outcomes("ODCIIndexFetch")[0] == "transient"
        assert db.engine.parallel_stats.prefetch_scans > 0

    def test_budget_timeout_surfaces_through_prefetch(self, db):
        force_prefetch(db)
        db.skip_unusable_indexes = False
        db.dispatcher.set_timeout("ODCIIndexFetch", 0.050)
        with FaultPlan(db) as plan:
            plan.delay("ODCIIndexFetch", ms=200)
            with pytest.raises(CallbackTimeoutError):
                db.execute(QUERY, ["match"]).fetchall()
            assert plan.calls("ODCIIndexClose") == 1

    def test_hard_fetch_failure_degrades_and_retries(self, db):
        expected = db.execute(QUERY, ["match"]).fetchall()
        force_prefetch(db)
        with FaultPlan(db) as plan:
            plan.fail_on_call("ODCIIndexFetch", nth=1)
            rows = db.execute(QUERY, ["match"]).fetchall()
        # degrade-and-retry: index UNUSABLE, functional fallback answers
        assert sorted(rows) == sorted(expected)
        assert db.catalog.get_index(
            "t_idx").domain.state is IndexState.UNUSABLE
        # the failed scan was opened once and closed exactly once; the
        # functional retry never opened a domain scan
        assert plan.calls("ODCIIndexStart") == 1
        assert plan.calls("ODCIIndexClose") == 1

    def test_degrade_retry_reads_statement_snapshot(self, db):
        """The replanned retry runs against the *pinned* snapshot."""
        force_prefetch(db)
        other = db.connect()
        with FaultPlan(db) as plan:
            plan.fail_on_call("ODCIIndexFetch", nth=1)
            cursor = db.execute(QUERY, ["match"])  # snapshot pinned here
            # a concurrent commit lands after the snapshot but before
            # the scan faults and the statement replans
            other.execute("INSERT INTO t VALUES (999, 'match')")
            other.execute("COMMIT")
            rows = cursor.fetchall()
        assert rows == [("match",)] * 20  # 20 pre-snapshot matches only
        # a fresh statement (fresh snapshot) sees the concurrent row
        assert len(db.execute(QUERY, ["match"]).fetchall()) == 21

    def test_fetch_failure_propagates_with_skip_off(self, db):
        force_prefetch(db)
        db.skip_unusable_indexes = False
        with FaultPlan(db) as plan:
            plan.fail_on_call("ODCIIndexFetch", nth=1)
            with pytest.raises(ODCIError):
                db.execute(QUERY, ["match"]).fetchall()
            assert plan.calls("ODCIIndexClose") == 1
        assert db.catalog.get_index(
            "t_idx").domain.state is IndexState.VALID


class TestAbandonedCursor:
    def test_abandoned_prefetching_cursor_closes_once(self, db):
        force_prefetch(db, depth=2)
        with FaultPlan(db) as plan:
            cursor = db.execute(QUERY, ["match"])
            assert cursor.fetchone() is not None
            cursor.close()  # quiesces the pipeline, then closes the scan
            assert plan.calls("ODCIIndexClose") == 1
        # engine still healthy afterwards
        assert len(db.execute(QUERY, ["match"]).fetchall()) == 20

    def test_abandoned_batches_are_counted(self, db):
        force_prefetch(db, depth=2)
        stats = db.engine.parallel_stats
        before = stats.prefetch_scans
        cursor = db.execute(QUERY, ["match"])
        assert cursor.fetchone() is not None
        cursor.close()
        assert stats.prefetch_scans > before


class TestParallelScanFaults:
    """Heap scans run on the calling thread; the morsel knobs are gone."""

    @pytest.fixture
    def scan_db(self):
        db = Database()
        db.execute("CREATE TABLE big (id INTEGER, val NUMBER)")
        db.insert_rows("big", [[i, i / 1000.0] for i in range(5000)])
        db.execute("ANALYZE TABLE big COMPUTE STATISTICS")
        yield db
        db.close()

    def test_filtered_scan_is_vectorized_not_parallel(self, scan_db):
        text = "\n".join(scan_db.explain(
            "SELECT id FROM big WHERE val < 0.5"))
        assert "[VECTORIZED]" in text
        assert "[PARALLEL" not in text

    @pytest.mark.parametrize("knob", [{"max_dop": 4},
                                      {"parallel_min_pages": 1},
                                      {"parallel_pool_size": 4},
                                      {"compile_expressions": False},
                                      {"vectorized_execution": False}])
    def test_removed_knobs_raise_type_error(self, knob):
        from repro.sql.engine import Engine
        with pytest.raises(TypeError):
            Engine(**knob)

    @pytest.mark.parametrize("setting", [{"max_dop": 2},
                                         {"compile_expressions": False},
                                         {"vectorized_execution": False}])
    def test_handshake_refuses_removed_settings(self, setting):
        from repro import dbapi
        from repro.server import Server
        with Server() as server:
            with pytest.raises(dbapi.Error, match=next(iter(setting))):
                dbapi.connect(server.url, timeout=10.0, settings=setting)

    def test_order_by_over_many_pages_matches_interpreter(self, scan_db):
        sql = ("SELECT id, val FROM big WHERE NOT (id = :1)"
               " ORDER BY val DESC, id")
        assert scan_db.catalog.get_table("big").storage.page_count > 8
        ordered = scan_db.execute(sql, [17]).fetchall()
        with interpreter_forced(scan_db):
            assert ordered == scan_db.execute(sql, [17]).fetchall()
        assert len(ordered) == 4999

    def test_explain_reports_prefetch_marker(self, db):
        force_prefetch(db, depth=3)
        text = "\n".join(db.explain(QUERY, ["match"]))
        assert "[PREFETCH depth=3]" in text

    def test_user_parallel_stats_view_populates(self, db):
        force_prefetch(db)
        db.execute(QUERY, ["match"]).fetchall()
        row = db.execute(
            "SELECT prefetch_scans, prefetch_batches, pool_size,"
            " worker_busy_seconds, worker_utilization,"
            " prefetch_abandoned, prefetch_depth_histogram"
            " FROM user_parallel_stats").fetchall()[0]
        assert row[0] >= 1 and row[1] >= 1 and row[2] >= 1


def test_parallel_module_import_surface():
    """sql/parallel.py holds the pool, its stats and the prefetch
    pipeline — no expression code, so nothing from the compiler."""
    import ast as pyast
    import repro.sql.parallel as parallel
    assert parallel.__all__ == ["WorkerPool", "ParallelStats",
                                "PrefetchPipeline"]
    with open(parallel.__file__) as handle:
        tree = pyast.parse(handle.read())
    imported = set()
    for node in pyast.walk(tree):
        if isinstance(node, pyast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
        elif isinstance(node, pyast.Import):
            imported.update(alias.name for alias in node.names)
    assert "repro.sql.compile" not in imported
    assert "repro.sql.ast_nodes" not in imported
