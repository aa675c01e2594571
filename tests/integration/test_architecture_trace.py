"""F1: the Figure 1 architecture — who calls whom, in what order.

"When the Oracle server receives a SQL request from a client, the server
calls the appropriate user-defined routines that have been registered
... the indexing component of the Oracle server will call the index scan
routines (ODCIIndexStart/Fetch/Close) ... the optimizer component will
call the cost (ODCIStatsIndexCost) and selectivity
(ODCIStatsSelectivity) routines."
"""

import pytest


@pytest.fixture
def traced(employees_db):
    employees_db.enable_tracing()
    return employees_db


class TestOptimizerCalls:
    def test_stats_routines_invoked_at_planning(self, traced):
        traced.explain(
            "SELECT * FROM employees WHERE Contains(resume, 'Oracle')")
        trace = traced.trace_log
        assert any("ODCIStatsSelectivity(Contains)" in t for t in trace)
        assert any("ODCIStatsIndexCost(resume_text_index)" in t
                   for t in trace)

    def test_selectivity_asked_once_per_predicate_per_plan(self, traced):
        """The full scan and the domain scan price the same predicate:
        its ODCIStatsSelectivity answer is asked for once and reused."""
        traced.explain(
            "SELECT * FROM employees WHERE Contains(resume, 'Oracle')")
        assert sum("optimizer:ODCIStatsSelectivity(Contains)" in t
                   for t in traced.trace_log) == 1

    def test_candidates_costed(self, traced):
        traced.explain(
            "SELECT * FROM employees WHERE Contains(resume, 'Oracle')")
        candidates = [t for t in traced.trace_log
                      if t.startswith("optimizer:candidate")]
        labels = " ".join(candidates)
        assert "TABLE SCAN" in labels
        assert "DOMAIN INDEX SCAN" in labels


class TestExecutionCalls:
    def test_scan_protocol_order(self, traced):
        traced.query(
            "SELECT name FROM employees WHERE Contains(resume, 'Oracle')")
        events = [t for t in traced.trace_log if t.startswith("exec:")]
        assert events[0].startswith("exec:ODCIIndexStart(TextIndexType:")
        assert any(e.startswith("exec:ODCIIndexFetch") for e in events)
        assert events[-1] == "exec:ODCIIndexClose()"

    def test_fetch_reentered_until_done(self, traced):
        traced.fetch_batch_size = 1
        traced.query(
            "SELECT name FROM employees WHERE Contains(resume, 'Oracle')")
        fetches = [t for t in traced.trace_log
                   if t.startswith("exec:ODCIIndexFetch")]
        # 2 matching rows at batch size 1 => at least 3 fetch calls
        assert len(fetches) >= 3


class TestDefinitionAndMaintenanceCalls:
    def test_ddl_calls(self, text_db):
        text_db.enable_tracing()
        text_db.execute("CREATE TABLE notes (body VARCHAR2(100))")
        text_db.execute("CREATE INDEX notes_idx ON notes(body)"
                        " INDEXTYPE IS TextIndexType")
        assert any("ddl:ODCIIndexCreate(TextIndexType:notes_idx)" in t
                   for t in text_db.trace_log)
        text_db.execute("ALTER INDEX notes_idx PARAMETERS (':Ignore zz')")
        assert any("ddl:ODCIIndexAlter(notes_idx)" in t
                   for t in text_db.trace_log)
        text_db.execute("DROP INDEX notes_idx")
        assert any("ddl:ODCIIndexDrop(notes_idx)" in t
                   for t in text_db.trace_log)

    def test_dml_calls(self, traced):
        traced.execute(
            "INSERT INTO employees VALUES ('Zed', 10, 'Oracle fan')")
        assert any("dml:ODCIIndexInsert(resume_text_index)" in t
                   for t in traced.trace_log)
        traced.execute("UPDATE employees SET resume = 'none' WHERE id = 10")
        assert any("dml:ODCIIndexUpdate(resume_text_index)" in t
                   for t in traced.trace_log)
        traced.execute("DELETE FROM employees WHERE id = 10")
        assert any("dml:ODCIIndexDelete(resume_text_index)" in t
                   for t in traced.trace_log)

    def test_truncate_call(self, traced):
        traced.execute("TRUNCATE TABLE employees")
        assert any("ddl:ODCIIndexTruncate(resume_text_index)" in t
                   for t in traced.trace_log)

    def test_analyze_calls_stats_collect(self, traced):
        traced.execute("ANALYZE TABLE employees COMPUTE STATISTICS")
        assert any("analyze:ODCIStatsCollect(resume_text_index)" in t
                   for t in traced.trace_log)
        stats = traced.catalog.domain_index_stats["resume_text_index"]
        assert stats["postings"] > 0


class TestFullRoundTrip:
    def test_complete_figure_sequence(self, traced):
        """One query exercises optimizer then executor paths in order."""
        traced.query(
            "SELECT name FROM employees WHERE Contains(resume, 'UNIX')")
        trace = traced.trace_log
        first_optimizer = next(i for i, t in enumerate(trace)
                               if "ODCIStats" in t)
        first_exec = next(i for i, t in enumerate(trace)
                          if t.startswith("exec:"))
        assert first_optimizer < first_exec
