"""E6 (ablation) — §2.2.3 scan-context mechanisms.

Measures the design choices the paper describes for ODCIIndex scans:

* **batched fetch** — "The fetch method supports returning a single row
  or a batch of rows in each call": row-at-a-time vs batched
  ODCIIndexFetch calls;
* **incremental vs precompute-all** — time-to-first-row of a streaming
  single-term scan (LIMIT) vs a precomputed boolean scan;
* **return state vs return handle** — workspace overhead for parked
  result sets.
"""

import gc

import pytest

from repro import Engine
from repro.bench.harness import ReportTable, time_call, time_to_first_row
from repro.bench.workloads import make_corpus
from repro.cartridges.text import install

REPORT_FILE = "e6_scan_context.txt"
N_DOCS = 1500


@pytest.fixture(scope="module")
def workload():
    corpus = make_corpus(N_DOCS, words_per_doc=40, vocabulary_size=250,
                         seed=61)
    db = Engine().connect()
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")
    db.insert_rows("docs", [[i, d] for i, d in enumerate(corpus.documents)])
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    return db, corpus


@pytest.mark.parametrize("batch_size", [1, 8, 64])
def test_e6_fetch_batch_size(benchmark, workload, batch_size):
    db, corpus = workload
    db.fetch_batch_size = batch_size
    word = corpus.common_word(0)
    sql = f"SELECT id FROM docs WHERE Contains(body, '{word}')"
    try:
        rows = benchmark(lambda: db.execute(sql).fetchall())
    finally:
        db.fetch_batch_size = 32
    assert rows


def test_e6_incremental_first_row(benchmark, workload):
    """Single-term query with LIMIT 1 streams via incremental scan."""
    db, corpus = workload
    word = corpus.common_word(0)
    sql = f"SELECT id FROM docs WHERE Contains(body, '{word}') LIMIT 1"

    def first():
        return db.execute(sql).fetchall()

    assert benchmark(first)


def test_e6_report(benchmark, workload, fresh_result_file):
    db, corpus = workload
    word = corpus.common_word(0)

    def build_report():
        sql = f"SELECT id FROM docs WHERE Contains(body, '{word}')"
        batch_table = ReportTable(
            "E6a (§2.2.3) — ODCIIndexFetch batch size (same result set)",
            ["batch size", "time_s", "fetch_calls(approx)"])
        batch_times = {}
        match_count = len(db.execute(sql).fetchall())
        # each cell is one cold run, so one full collection landing on a
        # cell decides the batch assertion below: time with the
        # collector off, as E1 does
        gc.collect()
        gc.disable()
        try:
            for batch_size in (1, 8, 64):
                db.fetch_batch_size = batch_size
                run = time_call(lambda: db.execute(sql).fetchall())
                batch_times[batch_size] = run.elapsed
                batch_table.add_row(batch_size, run.elapsed,
                                    match_count // batch_size + 1)
        finally:
            gc.enable()
        db.fetch_batch_size = 32

        stream_table = ReportTable(
            "E6b — incremental (LIMIT 1, streaming) vs precompute-all "
            "(full boolean scan)",
            ["scan style", "first_row_s", "total_s", "rows"])
        limited = time_to_first_row(lambda: iter(db.execute(
            f"SELECT id FROM docs WHERE Contains(body, '{word}') LIMIT 1")))
        full = time_to_first_row(lambda: iter(db.execute(
            f"SELECT id FROM docs WHERE Contains(body, "
            f"'{word} OR {corpus.common_word(1)}')")))
        stream_table.add_row("incremental (single term, LIMIT)",
                             limited.first_row, limited.elapsed,
                             limited.rows)
        stream_table.add_row("precompute-all (boolean query)",
                             full.first_row, full.elapsed, full.rows)
        return batch_table, stream_table, batch_times, limited, full

    (batch_table, stream_table, batch_times, limited,
     full) = benchmark.pedantic(build_report, iterations=1, rounds=1)
    batch_table.emit(fresh_result_file)
    stream_table.emit(fresh_result_file)

    # batching reduces call overhead: 64-row batches beat row-at-a-time
    assert batch_times[64] < batch_times[1]
    # streaming scan reaches its first row before the precompute-all
    # scan finishes computing the whole result
    assert limited.first_row < full.elapsed


def test_e6_bulk_build_vs_incremental(benchmark, fresh_result_file):
    """§2.5 batch interfaces: building the index in one ODCIIndexCreate
    (bulk callback inserts) vs maintaining it row by row."""
    corpus = make_corpus(500, words_per_doc=30, vocabulary_size=200,
                         seed=62)

    def build(bulk: bool):
        db = Engine().connect()
        install(db)
        db.execute("CREATE TABLE d (id INTEGER, body VARCHAR2(2000))")
        if bulk:
            db.insert_rows("d", [[i, doc] for i, doc
                                 in enumerate(corpus.documents)])
            from repro.bench.harness import time_call as tc
            run = tc(lambda: db.execute(
                "CREATE INDEX d_idx ON d(body) INDEXTYPE IS TextIndexType"))
        else:
            db.execute("CREATE INDEX d_idx ON d(body)"
                       " INDEXTYPE IS TextIndexType")
            from repro.bench.harness import time_call as tc
            run = tc(lambda: db.insert_rows(
                "d", [[i, doc] for i, doc in enumerate(corpus.documents)]))
        return run.elapsed

    def compare():
        return {"bulk": build(True), "incremental": build(False)}

    results = benchmark.pedantic(compare, iterations=1, rounds=1)
    table = ReportTable(
        "E6c (§2.5) — index population: bulk ODCIIndexCreate vs row-at-a-"
        "time maintenance (500 docs)",
        ["path", "seconds"])
    table.add_row("bulk build (CREATE INDEX on loaded table)",
                  results["bulk"])
    table.add_row("incremental (500 maintained inserts)",
                  results["incremental"])
    table.emit(fresh_result_file)
    assert results["bulk"] < results["incremental"]


def test_e6_workspace_handles_released(benchmark, workload):
    """Return-handle scans must free their workspace entries."""
    db, corpus = workload
    word = corpus.common_word(2)
    sql = (f"SELECT id FROM docs WHERE Contains(body, "
           f"'{word} AND {corpus.common_word(3)}')")

    def run():
        return db.execute(sql).fetchall()

    benchmark(run)
    assert db.workspace.live_handles == 0
