"""Plan cache, statement pipeline, and cursor-lifecycle unit tests."""

import gc
import types

import pytest

from repro.errors import ExecutionError
from repro.sql.catalog import Catalog
from repro.sql.plan_cache import (
    CachedPlan, PlanCache, normalize_sql, size_bucket)


def _entry(catalog, plan=None, table_sig=()):
    return CachedPlan(plan=plan or object(),
                      catalog_version=catalog.version,
                      table_sig=tuple(table_sig), bind_names=(), sql="")


class TestNormalizeSql:
    def test_whitespace_collapsed(self):
        assert normalize_sql("SELECT  *\n FROM\tt") == "SELECT * FROM t"

    def test_case_is_significant(self):
        # string literals are case-significant; the key must not fold case
        assert normalize_sql("SELECT 'Amy' FROM t") \
            != normalize_sql("SELECT 'amy' FROM t")

    def test_literal_whitespace_is_significant(self):
        # 'a  b' and 'a b' are different values — they must not share a key
        assert normalize_sql("SELECT * FROM t WHERE name = 'a  b'") \
            != normalize_sql("SELECT * FROM t WHERE name = 'a b'")

    def test_literal_interior_preserved_verbatim(self):
        assert normalize_sql("SELECT  'x \t y'  FROM\tt") \
            == "SELECT 'x \t y' FROM t"

    def test_quoted_identifier_whitespace_preserved(self):
        assert normalize_sql('SELECT "a  b"  FROM t') \
            == 'SELECT "a  b" FROM t'

    def test_escaped_quote_stays_inside_literal(self):
        # the doubled quote does not end the literal early
        assert normalize_sql("SELECT 'it''s  ok'   FROM t") \
            == "SELECT 'it''s  ok' FROM t"

    def test_leading_trailing_whitespace_stripped(self):
        assert normalize_sql("  SELECT 1  ") == "SELECT 1"


class TestSizeBucket:
    def test_logarithmic(self):
        assert size_bucket(0) == 0
        assert size_bucket(1) == 1
        assert size_bucket(2) == size_bucket(3) == 2
        assert size_bucket(4) == size_bucket(7) == 3

    def test_doubling_moves_bucket(self):
        assert size_bucket(100) != size_bucket(200)


class TestPlanCacheCore:
    def test_miss_then_hit(self):
        catalog = Catalog()
        cache = PlanCache()
        assert cache.lookup("SELECT 1", (), catalog) is None
        cache.store("SELECT 1", (), _entry(catalog))
        entry = cache.lookup("SELECT 1", (), catalog)
        assert entry is not None
        assert entry.hits == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_bind_signature_is_part_of_the_key(self):
        catalog = Catalog()
        cache = PlanCache()
        cache.store("SELECT :1", ("1",), _entry(catalog))
        assert cache.lookup("SELECT :1", (), catalog) is None
        assert cache.lookup("SELECT :1", ("1",), catalog) is not None

    def test_version_bump_invalidates(self):
        catalog = Catalog()
        cache = PlanCache()
        cache.store("SELECT 1", (), _entry(catalog))
        catalog.bump_version()
        assert cache.lookup("SELECT 1", (), catalog) is None
        assert cache.stats.invalidations == 1
        assert len(cache) == 0  # the stale entry was dropped

    def test_lru_eviction(self):
        catalog = Catalog()
        cache = PlanCache(capacity=2)
        cache.store("a", (), _entry(catalog))
        cache.store("b", (), _entry(catalog))
        cache.lookup("a", (), catalog)      # refresh 'a'
        cache.store("c", (), _entry(catalog))
        assert cache.stats.evictions == 1
        assert cache.lookup("b", (), catalog) is None  # 'b' was LRU
        assert cache.lookup("a", (), catalog) is not None
        assert cache.lookup("c", (), catalog) is not None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_clear(self):
        catalog = Catalog()
        cache = PlanCache()
        cache.store("a", (), _entry(catalog))
        assert cache.clear() == 1
        assert len(cache) == 0


class TestPipelineCaching:
    @pytest.fixture
    def t_db(self, db):
        db.execute("CREATE TABLE t (id INTEGER, grp VARCHAR2(8))")
        for i in range(8):
            db.execute("INSERT INTO t VALUES (:1, :2)",
                       [i, "even" if i % 2 == 0 else "odd"])
        db.execute("CREATE INDEX t_id ON t(id)")
        return db

    def test_repeat_select_hits_cache(self, t_db):
        stats = t_db.plan_cache.stats
        stats.reset()
        assert t_db.execute(
            "SELECT grp FROM t WHERE id = :1", [3]).fetchall() \
            == [("odd",)]
        assert t_db.execute(
            "SELECT grp FROM t WHERE id = :1", [4]).fetchall() \
            == [("even",)]
        assert stats.hits == 1
        assert stats.stores == 1

    def test_shared_plan_gives_per_bind_results(self, t_db):
        for i in range(8):
            rows = t_db.execute(
                "SELECT id FROM t WHERE id = :1", [i]).fetchall()
            assert rows == [(i,)]
        assert t_db.plan_cache.stats.hits >= 7

    def test_whitespace_variants_share_one_entry(self, t_db):
        t_db.execute("SELECT id FROM t WHERE id = :1", [1]).fetchall()
        before = len(t_db.plan_cache)
        t_db.execute("SELECT  id   FROM t\n WHERE id = :1", [2]).fetchall()
        assert len(t_db.plan_cache) == before
        assert t_db.plan_cache.stats.hits >= 1

    def test_literal_whitespace_variants_get_distinct_plans(self, t_db):
        # regression: literals are frozen into the cached plan, so
        # "= 'a  b'" must not reuse the plan compiled for "= 'a b'"
        t_db.execute("INSERT INTO t VALUES (:1, :2)", [50, "a b"])
        t_db.execute("INSERT INTO t VALUES (:1, :2)", [51, "a  b"])
        assert t_db.execute("SELECT id FROM t WHERE grp = 'a  b'").fetchall() \
            == [(51,)]
        assert t_db.execute("SELECT id FROM t WHERE grp = 'a b'").fetchall() \
            == [(50,)]

    def test_miss_is_counted_once_per_execution(self, t_db):
        stats = t_db.plan_cache.stats
        stats.reset()
        t_db.execute("SELECT grp FROM t WHERE id = :1", [1]).fetchall()
        assert (stats.lookups, stats.misses, stats.hits) == (1, 1, 0)
        t_db.execute("SELECT grp FROM t WHERE id = :1", [2]).fetchall()
        assert (stats.lookups, stats.misses, stats.hits) == (2, 1, 1)

    def test_ddl_and_tcl_skip_the_cache_probe(self, t_db):
        stats = t_db.plan_cache.stats
        t_db.plan_cache.clear()
        stats.reset()
        t_db.execute("COMMIT")
        t_db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
        t_db.execute("CREATE INDEX t_grp ON t(grp)")
        assert (stats.lookups, stats.misses) == (0, 0)
        # DML probes the cache, and its second execution hits
        for value in (40, 41):
            t_db.execute("INSERT INTO t VALUES (:1, :2)", [value, "x"])
            t_db.execute("UPDATE t SET grp = 'y' WHERE id = :1", [value])
            t_db.execute("DELETE FROM t WHERE id = :1", [value])
        assert (stats.lookups, stats.misses, stats.hits) == (6, 3, 3)

    def test_dml_is_cached(self, t_db):
        t_db.plan_cache.clear()
        t_db.execute("INSERT INTO t VALUES (:1, :2)", [100, "x"])
        t_db.execute("INSERT INTO t VALUES (:1, :2)", [101, "x"])
        assert len(t_db.plan_cache) == 1
        assert t_db.plan_cache.stats.hits >= 1

    def test_subquery_select_not_cached_and_not_frozen(self, t_db):
        t_db.plan_cache.clear()
        sql = "SELECT COUNT(*) FROM t WHERE id IN (SELECT id FROM t)"
        assert t_db.execute(sql).fetchall()[0][0] == 8
        assert len(t_db.plan_cache) == 0
        t_db.execute("INSERT INTO t VALUES (:1, :2)", [8, "even"])
        # a frozen (cached) plan would still report 8
        assert t_db.execute(sql).fetchall()[0][0] == 9

    def test_dictionary_views_not_cached(self, t_db):
        t_db.plan_cache.clear()
        t_db.execute("SELECT table_name FROM user_tables").fetchall()
        t_db.execute("SELECT table_name FROM user_tables").fetchall()
        assert len(t_db.plan_cache) == 0

    def test_table_growth_invalidates_nonanalyzed_plan(self, t_db):
        stats = t_db.plan_cache.stats
        t_db.execute("SELECT COUNT(*) FROM t WHERE grp = 'even'").fetchall()
        # re-prepare the fixture's INSERT, compiled before CREATE INDEX
        t_db.execute("INSERT INTO t VALUES (:1, :2)", [199, "odd"])
        stats.reset()
        # push the row count across a power-of-two bucket boundary
        for i in range(20):
            t_db.execute("INSERT INTO t VALUES (:1, :2)", [200 + i, "even"])
        t_db.execute("SELECT COUNT(*) FROM t WHERE grp = 'even'").fetchall()
        assert stats.invalidations == 1

    def test_analyzed_table_plan_survives_small_growth(self, t_db):
        t_db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
        t_db.execute("SELECT COUNT(*) FROM t WHERE grp = 'even'").fetchall()
        # re-prepare the fixture's INSERT, compiled before ANALYZE
        t_db.execute("INSERT INTO t VALUES (:1, :2)", [300, "even"])
        stats = t_db.plan_cache.stats
        stats.reset()
        t_db.execute("INSERT INTO t VALUES (:1, :2)", [301, "even"])
        t_db.execute("SELECT COUNT(*) FROM t WHERE grp = 'even'").fetchall()
        assert stats.hits == 2
        assert stats.invalidations == 0

    def test_missing_bind_raises(self, t_db):
        with pytest.raises(ExecutionError, match="no value supplied"):
            t_db.execute("SELECT id FROM t WHERE id = :1").fetchall()

    def test_cached_plan_missing_bind_still_raises(self, t_db):
        t_db.execute("SELECT id FROM t WHERE id = :1", [1]).fetchall()
        with pytest.raises(ExecutionError, match="no value supplied"):
            t_db.execute("SELECT id FROM t WHERE id = :1").fetchall()

    def test_explain_reports_miss_then_hit(self, t_db):
        sql = "SELECT grp FROM t WHERE id = :1"
        first = t_db.explain(sql, [1])
        assert first[-1] == "plan cache: MISS (stored)"
        second = t_db.explain(sql, [2])
        assert second[-1].startswith("plan cache: HIT")
        assert first[:-1] == second[:-1]  # same shared plan tree

    def test_explain_statement_form_reports_cache_state(self, t_db):
        rows = t_db.execute(
            "EXPLAIN SELECT grp FROM t WHERE id = 3").fetchall()
        assert rows[-1][0] == "plan cache: MISS (stored)"
        rows = t_db.execute(
            "EXPLAIN PLAN FOR SELECT grp FROM t WHERE id = 3").fetchall()
        assert rows[-1][0].startswith("plan cache: HIT")

    def test_explain_warms_the_execute_path(self, t_db):
        sql = "SELECT grp FROM t WHERE id = :1"
        t_db.explain(sql, [5])
        stats = t_db.plan_cache.stats
        stats.reset()
        assert t_db.execute(sql, [5]).fetchall() == [("odd",)]
        assert stats.hits == 1

    def test_explain_of_subquery_reports_bypass(self, t_db):
        lines = t_db.explain(
            "SELECT id FROM t WHERE id IN (SELECT id FROM t)")
        assert lines[-1] == "plan cache: BYPASS (not cacheable)"

    def test_parse_artifact_classification(self, t_db):
        pipeline = t_db.pipeline
        assert pipeline.parse("SELECT id FROM t").kind == "query"
        assert pipeline.parse("INSERT INTO t VALUES (1, 'x')").kind == "dml"
        assert pipeline.parse("DROP INDEX t_id").kind == "ddl"
        assert pipeline.parse("COMMIT").kind == "tcl"
        parsed = pipeline.parse("SELECT id FROM t WHERE id = :a OR id = :b")
        assert parsed.bind_names == ("a", "b")
        assert parsed.cacheable


class TestCursorLifecycle:
    def test_context_manager_closes(self, db):
        db.execute("CREATE TABLE c (x INTEGER)")
        db.execute("INSERT INTO c VALUES (1)")
        db.execute("INSERT INTO c VALUES (2)")
        with db.execute("SELECT x FROM c") as cur:
            assert cur.fetchone() is not None
        assert cur.fetchone() is None
        assert cur.fetchall() == []

    def test_fetchmany_returns_empty_after_exhaustion(self, db):
        db.execute("CREATE TABLE c (x INTEGER)")
        db.execute("INSERT INTO c VALUES (1)")
        cur = db.execute("SELECT x FROM c")
        assert cur.fetchmany(10) == [(1,)]
        assert cur.fetchmany(10) == []
        assert cur.fetchmany() == []

    def test_close_is_idempotent(self, db):
        db.execute("CREATE TABLE c (x INTEGER)")
        cur = db.execute("SELECT x FROM c")
        cur.close()
        cur.close()
        assert cur.fetchall() == []

    def test_abandoned_scan_releases_workspace_handles(self, employees_db):
        db = employees_db
        cur = db.execute("SELECT name FROM employees"
                         " WHERE Contains(resume, 'UNIX') = 1")
        assert cur.fetchone() is not None  # scan is open mid-fetch
        assert db.workspace.live_handles > 0
        cur.close()
        assert db.workspace.live_handles == 0

    def test_exhausted_scan_leaves_no_handles(self, employees_db):
        db = employees_db
        with db.execute("SELECT name FROM employees"
                        " WHERE Contains(resume, 'Oracle') = 1") as cur:
            cur.fetchall()
        assert db.workspace.live_handles == 0

    def test_close_fires_odci_index_close(self, employees_db):
        db = employees_db
        db.enable_tracing()
        cur = db.execute("SELECT name FROM employees"
                         " WHERE Contains(resume, 'UNIX') = 1")
        cur.fetchone()
        assert "exec:ODCIIndexClose()" not in db.trace_log
        cur.close()
        assert "exec:ODCIIndexClose()" in db.trace_log


#: the walks a cold parse and plan runs over a statement's expressions
_COLD_WALKS = ("_walk_statement", "_collect_aggregates", "_filter_cost")


def _from_cold_walks(obj):
    """A function defined inside one of the walks, or a cell holding one
    (what a self-calling closure leaves behind as a cycle)."""
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:  # an empty cell
            return False
    return isinstance(obj, types.FunctionType) and any(
        f"{walk}.<locals>" in obj.__qualname__ for walk in _COLD_WALKS)


class TestColdPlanLeavesNoCycles:
    def test_group_by_having_plans_leave_no_walk_closures(self, db):
        db.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
        db.executemany("INSERT INTO t VALUES (:1, :2)",
                       [[i % 3, i] for i in range(12)])
        sql = ("SELECT g, SUM(v) FROM t WHERE v > :1 AND ABS(v) < :2"
               " GROUP BY g HAVING COUNT(*) > :3 ORDER BY g")
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for __ in range(5):
                db.plan_cache.clear()  # every execution plans cold
                assert db.execute(sql, [0, 100, 1]).fetchall() \
                    == [(0, 18), (1, 22), (2, 26)]
            gc.collect()
            leaked = [obj for obj in gc.garbage if _from_cold_walks(obj)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []


class TestSessionFacadeStaysThin:
    def test_session_module_line_ceiling(self):
        """The ceiling is the size deleting the single-session facade
        and the ``query``/``query_one`` shortcuts left."""
        import repro.sql.session as session
        with open(session.__file__, "r", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) <= 518
