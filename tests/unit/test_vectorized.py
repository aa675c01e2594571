"""Vectorized columnar execution: kernels, fallbacks, knobs, stats.

The vectorized pipeline (:mod:`repro.sql.columnar` plus the vector
kernels in :mod:`repro.sql.compile`) is only allowed to be *faster*
than the reference interpreter — never different.  These tests pin the
EXPLAIN annotation, the per-batch fallback contract (kernel errors
re-run the batch on the interpreter and surface the same error
classes), the
``user_executor_stats`` dictionary view, and the ColumnBatch /
selection-vector plumbing itself.
"""

import random

import pytest

from repro import Database
from repro.errors import ExecutionError
from repro.sql.columnar import ColumnBatch, ExecutorStats
from repro.testing import interpreter_forced
from repro.types.values import NULL

pytestmark = pytest.mark.vectorized


def _populate(db, n=300, seed=7):
    db.execute("CREATE TABLE t (id INTEGER, grp VARCHAR2(8), val NUMBER)")
    rng = random.Random(seed)
    for i in range(n):
        val = NULL if rng.random() < 0.25 else round(rng.uniform(-5, 5), 3)
        db.execute("INSERT INTO t VALUES (:1, :2, :3)",
                   [i, f"g{i % 5}", val])
    return db


# ---------------------------------------------------------------------------
# ColumnBatch plumbing
# ---------------------------------------------------------------------------

class TestColumnBatch:
    def test_from_rows_round_trips_through_iter_rows(self):
        rows = [(rid, [rid * 2, f"s{rid}"]) for rid in range(5)]
        batch = ColumnBatch.from_rows([rid for rid, __ in rows],
                                      [r for __, r in rows], width=2)
        assert batch.n == 5
        assert batch.selected_count() == 5
        assert [(rid, list(row)) for rid, row in batch.iter_rows()] \
            == [(rid, row) for rid, row in rows]

    def test_selection_vector_restricts_iteration(self):
        batch = ColumnBatch.from_rows(list(range(10)),
                                      [[i] for i in range(10)], width=1)
        batch.sel = [1, 4, 7]
        assert batch.selected_count() == 3
        assert [row[0] for __, row in batch.iter_rows()] == [1, 4, 7]

    def test_typed_columns_only_pack_pure_ints(self):
        batch = ColumnBatch.from_rows(
            [0, 1], [[1, True, 1.0], [2, 3, 2.0]], width=3)
        batch.with_typed_columns()
        # column 0 is pure int -> packable; column 1 holds a bool (an
        # int subclass whose identity must survive), column 2 floats
        assert batch.columns[1][0] is True
        assert batch.row(0) == [1, True, 1.0]

    def test_executor_stats_snapshot_and_histogram(self):
        stats = ExecutorStats()
        stats.record_vector_batch(10)
        stats.record_vector_batch(500)
        stats.record_fallback_batch()
        stats.record_factory_decline()
        stats.record_materialize_boundary()
        snap = stats.snapshot()
        assert snap["vector_batches"] == 2
        assert snap["vector_rows"] == 510
        assert snap["fallback_batches"] == 1
        assert snap["factory_declines"] == 1
        assert snap["materialize_boundaries"] == 1
        assert sum(snap["batch_size_histogram"].values()) == 2


# ---------------------------------------------------------------------------
# EXPLAIN annotation
# ---------------------------------------------------------------------------

class TestExplain:
    def test_vectorized_marker_on_eligible_scan(self, db):
        _populate(db, n=40)
        lines = db.explain("SELECT id, val FROM t WHERE id > 3")
        assert any("TABLE SCAN" in ln and "[VECTORIZED]" in ln
                   for ln in lines)
        assert any(ln.strip().startswith("PROJECT")
                   and "[VECTORIZED]" in ln for ln in lines)

    def test_row_fallback_marker_on_pseudo_column_filter(self, db):
        """rowid is not a packable column vector: the scan still runs
        compiled, but on the row path — mirroring [INTERPRETED]."""
        _populate(db, n=40)
        lines = db.explain("SELECT id FROM t WHERE rowid = :1")
        scan = next(ln for ln in lines if "TABLE SCAN" in ln)
        assert "[ROW]" in scan and "[COMPILED]" in scan

    def test_forced_interpreter_runs_no_vector_batches(self, db):
        """The interpreter seam leaves the plan (and its markers)
        alone and ignores every generated artifact on it."""
        _populate(db)
        sql = "SELECT id FROM t WHERE id > 3"
        expected = db.execute(sql).fetchall()
        before = db.engine.executor_stats.snapshot()["vector_batches"]
        with interpreter_forced(db):
            assert any("[VECTORIZED]" in ln for ln in db.explain(sql))
            assert db.execute(sql).fetchall() == expected
        assert db.engine.executor_stats.snapshot()[
            "vector_batches"] == before
        assert len(expected) == 296


# ---------------------------------------------------------------------------
# fallback contract
# ---------------------------------------------------------------------------

class TestFallbackContract:
    def test_kernel_decline_bind_falls_back_whole_statement(self, db):
        """A NULL bind declines the kernel factory; results and stats
        must show the row path served the statement."""
        _populate(db)
        before = db.engine.executor_stats.snapshot()["factory_declines"]
        rows = db.execute("SELECT id FROM t WHERE val < :1",
                          [None]).fetchall()
        assert rows == []  # NULL comparison is never TRUE
        after = db.engine.executor_stats.snapshot()["factory_declines"]
        assert after > before

    def test_mid_batch_error_reruns_batch_on_the_interpreter(self, db):
        """A kernel exception must surface the interpreter's error
        class, not a raw Python traceback, via the per-batch re-run."""
        _populate(db)
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("SELECT id FROM t WHERE val / (id - 5) > 1"
                       " AND id < 50").fetchall()
        snap = db.engine.executor_stats.snapshot()
        assert snap["fallback_batches"] >= 1

    def test_fused_projection_error_matches_the_interpreter(self, db):
        _populate(db)
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("SELECT val / (id - 7) FROM t"
                       " WHERE id < 50").fetchall()

    def test_executor_stats_view_reports_activity(self, db):
        _populate(db)
        db.execute("SELECT id FROM t WHERE id > 100").fetchall()
        rows = db.execute("SELECT vector_batches, vector_rows,"
                          " batch_size_histogram"
                          " FROM user_executor_stats").fetchall()
        assert len(rows) == 1
        batches, vrows, histogram = rows[0]
        assert batches >= 1 and vrows >= 1
        assert ":" in histogram  # "bucket:count" pairs


# ---------------------------------------------------------------------------
# two-way differential: default execution == interpreter-forced
# ---------------------------------------------------------------------------

TWO_WAY_QUERIES = [
    ("SELECT id, val FROM t WHERE val < :1 AND id > :2", [1.5, 10]),
    ("SELECT id FROM t WHERE val IS NULL", []),
    ("SELECT id FROM t WHERE val IS NOT NULL AND grp = 'g2'", []),
    ("SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val)"
     " FROM t GROUP BY grp", []),
    ("SELECT grp, COUNT(val) FROM t GROUP BY grp"
     " HAVING COUNT(*) > 10", []),
    ("SELECT id FROM t WHERE id < 60 ORDER BY val DESC, id", []),
    ("SELECT id * 2 + 1, val FROM t WHERE id BETWEEN 5 AND 25", []),
    ("SELECT grp FROM t WHERE grp LIKE 'g%' AND id < 9", []),
    ("SELECT id FROM t WHERE grp IN ('g1', 'g3') AND val > 0", []),
    ("SELECT COUNT(*) FROM t", []),
    ("SELECT id FROM t WHERE NOT (val > 0 OR id < 100)", []),
    ("SELECT id FROM t WHERE val < :1", [None]),  # kernel-decline bind
    ("SELECT id, val FROM t WHERE id >= 0 LIMIT 17", []),
]


def _both_ways(db, sql, binds=()):
    """[default, interpreter-forced] outcomes of one statement: row
    reprs in order, or the error's class and message."""
    def run():
        try:
            return [tuple(map(repr, r))
                    for r in db.execute(sql, list(binds)).fetchall()]
        except Exception as exc:  # noqa: BLE001 - parity incl. errors
            return (type(exc).__name__, str(exc))
    generated = run()
    with interpreter_forced(db):
        return generated, run()


@pytest.mark.vectorized
class TestTwoWayDifferential:
    @pytest.fixture(scope="class")
    def data(self):
        """One dataset, NULL-heavy so validity handling is exercised on
        every query."""
        return _populate(Database(), n=400, seed=23)

    @pytest.mark.parametrize("sql,binds", TWO_WAY_QUERIES)
    def test_rows_agree(self, data, sql, binds):
        generated, interpreted = _both_ways(data, sql, binds)
        assert generated == interpreted, sql

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_predicates_agree(self, data, seed):
        rng = random.Random(seed)
        cols = ["id", "val"]
        comparisons = ["<", "<=", ">", ">=", "=", "!="]
        for __ in range(6):
            left = rng.choice(cols)
            op = rng.choice(comparisons)
            bound = round(rng.uniform(-4, 4), 2)
            conj = rng.choice(["AND", "OR"])
            null_side = rng.choice(["val IS NULL", "val IS NOT NULL",
                                    "grp LIKE 'g%'"])
            sql = (f"SELECT id, grp, val FROM t WHERE {left} {op} :1"
                   f" {conj} {null_side}")
            generated, interpreted = _both_ways(data, sql, [bound])
            assert generated == interpreted, sql

    def test_error_classes_agree_mid_batch(self, data):
        generated, interpreted = _both_ways(
            data, "SELECT id FROM t WHERE val / (id - 11) > 0 AND id < 40")
        assert generated == interpreted
        assert generated[0] == "ExecutionError"


# ---------------------------------------------------------------------------
# index-driven plans: rowid batches as a second ColumnBatch source
# ---------------------------------------------------------------------------

def _populate_indexed(db, n=400, seed=23):
    _populate(db, n=n, seed=seed)
    db.execute("CREATE INDEX t_id ON t(id)")
    db.execute("CREATE HASH INDEX t_grp ON t(grp)")
    return db


def _plan_root(db, sql, **kwargs):
    from repro.sql.parser import parse
    return db.planner.plan_select(parse(sql), **kwargs).root


class TestIndexDrivenMarkers:
    def test_index_scan_with_residual_is_vectorized(self, db):
        _populate_indexed(db)
        lines = db.explain("SELECT id, val FROM t WHERE id >= 350"
                           " AND val < 1")
        scan = next(ln for ln in lines if "INDEX RANGE SCAN" in ln)
        assert "[COMPILED]" in scan and "[VECTORIZED]" in scan
        assert any(ln.strip().startswith("PROJECT")
                   and "[VECTORIZED]" in ln for ln in lines)

    def test_filterless_index_scan_fuses_under_projection_only(self, db):
        _populate_indexed(db)
        fused = db.explain("SELECT val FROM t WHERE id = 7")
        assert "[VECTORIZED]" in next(
            ln for ln in fused if "INDEX RANGE SCAN" in ln)
        sorted_rows = db.explain("SELECT val FROM t WHERE id >= 390"
                                 " ORDER BY val")
        assert "[ROW]" in next(
            ln for ln in sorted_rows if "INDEX RANGE SCAN" in ln)

    def test_pseudo_column_residual_stays_on_row_path(self, db):
        _populate_indexed(db)
        lines = db.explain("SELECT id FROM t WHERE id >= 390"
                           " AND rowid = :1")
        scan = next(ln for ln in lines if "INDEX RANGE SCAN" in ln)
        assert "[ROW]" in scan and "[COMPILED]" in scan

    def test_one_shot_plans_annotate_full_scans_only(self, db):
        """DML target plans run once: no kernel is generated for an
        index probe's few rows, a full scan still gets one."""
        _populate_indexed(db)
        probe = _plan_root(db, "SELECT * FROM t WHERE id >= 390"
                           " AND val < 1", one_shot=True).child
        assert "INDEX RANGE SCAN" in probe.label()
        assert probe.vector_mode is None
        assert "vector_kernel" not in probe.compiled
        full = _plan_root(db, "SELECT * FROM t WHERE val < 1",
                          one_shot=True).child
        assert full.vector_mode == "VECTORIZED"


class TestIndexDrivenFallbacks:
    def test_declined_kernel_sends_statement_to_row_path(self, db):
        _populate_indexed(db)
        before = db.engine.executor_stats.snapshot()
        rows = db.execute("SELECT id FROM t WHERE id >= 300 AND val < :1",
                          [None]).fetchall()
        assert rows == []
        after = db.engine.executor_stats.snapshot()
        assert after["factory_declines"] > before["factory_declines"]
        assert after["vector_batches"] == before["vector_batches"]

    def test_mid_batch_error_reruns_that_batch_on_the_interpreter(self, db):
        _populate_indexed(db)
        before = db.engine.executor_stats.snapshot()["fallback_batches"]
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("SELECT id FROM t WHERE id BETWEEN 300 AND 390"
                       " AND val / (id - 350) > 0").fetchall()
        assert db.engine.executor_stats.snapshot()[
            "fallback_batches"] > before

    def test_rowids_are_fetched_a_chunk_at_a_time(self, db):
        """fetchone()-then-close and LIMIT stop after the first
        ``fetch_batch_size`` chunk of the probe."""
        _populate_indexed(db)
        storage = db.catalog.get_table("t").storage
        calls = []
        original = storage.fetch_batch

        def spy(rowids, *args):
            calls.append(len(rowids))
            return original(rowids, *args)

        storage.fetch_batch = spy
        try:
            cursor = db.execute("SELECT id FROM t WHERE id >= 0")
            assert cursor.fetchone() == (0,)
            cursor.close()
            assert calls == [db.fetch_batch_size]
            del calls[:]
            rows = db.execute("SELECT id FROM t WHERE id >= 10"
                              " AND val IS NOT NULL LIMIT 3").fetchall()
            assert len(rows) == 3
            assert calls == [db.fetch_batch_size]
            del calls[:]
            # no residual: every fetched row is an output row, so the
            # LIMIT's row budget sizes the chunk
            rows = db.execute("SELECT id FROM t WHERE id >= 10"
                              " LIMIT 3").fetchall()
            assert rows == [(10,), (11,), (12,)]
            assert calls == [3]
            del calls[:]
            # a drained probe doubles its chunk (up to 8x) so a long
            # range shares pages and kernel entries across fewer batches
            assert len(db.execute("SELECT id FROM t WHERE id >= 0"
                                  ).fetchall()) == 400
            assert calls == [32, 64, 128, 176]
        finally:
            del storage.fetch_batch


INDEXED_TWO_WAY_QUERIES = [
    ("SELECT id, val FROM t WHERE id = :1", [123]),
    ("SELECT id, val FROM t WHERE id >= :1 AND val < :2", [250, 0.5]),
    ("SELECT id, grp FROM t WHERE id > :1 AND id <= :2", [17, 140]),
    ("SELECT id, val FROM t WHERE id BETWEEN :1 AND :2 AND val IS NULL",
     [40, 300]),
    ("SELECT id * 2, val FROM t WHERE id BETWEEN 5 AND 95"
     " AND NOT (val > 0 OR grp LIKE 'g1%')", []),
    ("SELECT id, val FROM t WHERE grp = :1 AND val > :2", ["g3", -1]),
    ("SELECT id FROM t WHERE id BETWEEN :1 AND :2 AND val < :3"
     " ORDER BY val DESC, id", [100, 300, 2.0]),
    ("SELECT grp, COUNT(*), MIN(val) FROM t WHERE id >= :1 AND id < :2"
     " GROUP BY grp", [50, 350]),
    ("SELECT id FROM t WHERE id >= :1 AND val < :2", [100, None]),
    ("SELECT id FROM t WHERE id BETWEEN :1 AND :2", [None, 99]),
    ("SELECT id FROM t WHERE id >= :1 AND val IS NOT NULL LIMIT 9", [200]),
]


@pytest.mark.vectorized
class TestIndexDrivenTwoWay:
    @pytest.fixture(scope="class")
    def data(self):
        return _populate_indexed(Database())

    @pytest.mark.parametrize("sql,binds", INDEXED_TWO_WAY_QUERIES)
    def test_rows_and_order_agree(self, data, sql, binds):
        assert any("INDEX" in ln for ln in data.explain(sql, list(binds)))
        generated, interpreted = _both_ways(data, sql, binds)
        assert generated == interpreted, sql
