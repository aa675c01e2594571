"""E8 (ablation) — §2.5: shared buffering of user index data.

"When the index data is stored within the database, and is accessed and
manipulated using SQL, the server functionality, in terms of concurrency
control and data buffering, are also applicable to the user index data."

This ablation varies the buffer-cache capacity and measures the physical
I/O of repeated text-index queries: with a cache large enough to hold
the base table and the cartridge's index tables, warm queries do zero
physical reads; with a tiny cache, every query pays disk traffic — the
cartridge never wrote a line of buffering code either way.
"""

import pytest

from repro import Engine
from repro.bench.harness import ReportTable, io_delta
from repro.bench.workloads import make_corpus
from repro.cartridges.text import install

REPORT_FILE = "e8_buffering.txt"
CACHE_SIZES = (8, 64, 4096)
N_DOCS = 800


def build_database(cache_pages):
    corpus = make_corpus(N_DOCS, words_per_doc=40, vocabulary_size=300,
                         seed=88)
    db = Engine(buffer_capacity=cache_pages).connect()
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")
    db.insert_rows("docs", [[i, d] for i, d in enumerate(corpus.documents)])
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    return db, corpus


@pytest.fixture(scope="module")
def workloads():
    return {pages: build_database(pages) for pages in CACHE_SIZES}


@pytest.mark.parametrize("cache_pages", CACHE_SIZES)
def test_e8_query_under_cache_size(benchmark, workloads, cache_pages):
    db, corpus = workloads[cache_pages]
    word = corpus.common_word(3)
    sql = f"SELECT id, body FROM docs WHERE Contains(body, '{word}')"
    db.execute(sql).fetchall()  # warm what fits
    rows = benchmark(lambda: db.execute(sql).fetchall())
    assert rows


def test_e8_report(benchmark, workloads, fresh_result_file):
    def build_report():
        table = ReportTable(
            "E8 (§2.5) — buffer-cache capacity vs physical I/O of a warm "
            "text query (the cartridge wrote no buffering code)",
            ["cache pages", "warm physical reads", "warm time_s"])
        shape = []
        for cache_pages in CACHE_SIZES:
            db, corpus = workloads[cache_pages]
            word = corpus.common_word(3)
            sql = (f"SELECT id, body FROM docs "
                   f"WHERE Contains(body, '{word}')")
            db.execute(sql).fetchall()  # warm pass
            run = io_delta(db, lambda: db.execute(sql).fetchall())
            table.add_row(cache_pages, run.io.get("physical_reads", 0),
                          run.elapsed)
            shape.append((cache_pages, run))
        return table, shape

    table, shape = benchmark.pedantic(build_report, iterations=1, rounds=1)
    table.emit(fresh_result_file)

    reads = {pages: run.io.get("physical_reads", 0)
             for pages, run in shape}
    # big enough cache -> zero physical I/O on the warm query
    assert reads[CACHE_SIZES[-1]] == 0
    # starving the cache forces repeated physical reads
    assert reads[CACHE_SIZES[0]] > reads[CACHE_SIZES[-1]]
    assert reads[CACHE_SIZES[0]] >= reads[CACHE_SIZES[1]]
