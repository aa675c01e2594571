"""F1 — Figure 1: the Oracle8i extensibility architecture.

Regenerates the figure as a call trace: client SQL enters the server,
the optimizer consults the cartridge's ODCIStats routines, and index
access drives ODCIIndexStart/Fetch/Close — with the framework-dispatch
overhead measured against a plain (non-extensible) query.
"""

import pytest

from repro import Engine
from repro.bench.harness import ReportTable
from repro.bench.workloads import make_corpus
from repro.cartridges.text import install

REPORT_FILE = "f1_architecture.txt"


@pytest.fixture(scope="module")
def workload():
    corpus = make_corpus(300, words_per_doc=30, vocabulary_size=150,
                         seed=81)
    db = Engine().connect()
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
    db.insert_rows("docs", [[i, d] for i, d in enumerate(corpus.documents)])
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    return db, corpus


def test_f1_traced_query_overhead(benchmark, workload):
    """Tracing on: the full framework round trip."""
    db, corpus = workload
    db.enable_tracing()
    word = corpus.common_word(0)
    sql = f"SELECT id FROM docs WHERE Contains(body, '{word}')"
    try:
        rows = benchmark(lambda: db.execute(sql).fetchall())
    finally:
        db.disable_tracing()
    assert rows


def test_f1_plain_query_baseline(benchmark, workload):
    """A non-extensible query of similar result size, for contrast."""
    db, __ = workload
    rows = benchmark(lambda: db.execute(
        "SELECT id FROM docs WHERE id < 50").fetchall())
    assert rows


def test_f1_report(benchmark, workload, fresh_result_file):
    db, corpus = workload
    word = corpus.common_word(0)
    # text no other test runs: the traced run is a hard parse whatever
    # ran before it, so the optimizer's ODCIStats calls are in the trace
    sql = f"SELECT id AS figure_1 FROM docs WHERE Contains(body, '{word}')"

    def capture():
        db.enable_tracing()
        before = db.plan_cache.stats.snapshot()
        db.execute(sql).fetchall()
        cache = db.plan_cache.stats.diff(before)
        trace = list(db.trace_log)
        db.disable_tracing()
        return trace, cache

    trace, cache = benchmark.pedantic(capture, iterations=1, rounds=1)
    assert cache["misses"] >= 1

    table = ReportTable(
        "F1 — Figure 1 as a call trace (client -> ORDBMS -> cartridge)",
        ["step", "component", "framework call"])
    step = 0
    for event in trace:
        if event.startswith("optimizer:ODCIStats"):
            component = "Optimizer"
        elif event.startswith("optimizer:candidate"):
            continue  # plan enumeration detail, not a figure arrow
        elif event.startswith("exec:"):
            component = "Index Access"
        else:
            component = "Server"
        step += 1
        table.add_row(step, component, event.split(":", 1)[1])
    table.emit(fresh_result_file)

    # the figure's arrows, in order: optimizer first, then index access
    stats_calls = [e for e in trace if e.startswith("optimizer:ODCIStats")]
    exec_calls = [e for e in trace if e.startswith("exec:")]
    assert any("ODCIStatsSelectivity" in e for e in stats_calls)
    assert any("ODCIStatsIndexCost" in e for e in stats_calls)
    assert exec_calls[0].startswith("exec:ODCIIndexStart")
    assert exec_calls[-1] == "exec:ODCIIndexClose()"
    assert trace.index(stats_calls[0]) < trace.index(exec_calls[0])

    # the same text again is a plan-cache HIT: no optimizer, no ODCIStats
    rerun, cache = capture()
    assert cache["hits"] >= 1 and cache["misses"] == 0
    assert not any("ODCIStats" in e for e in rerun)
    assert any(e.startswith("exec:ODCIIndexStart") for e in rerun)
