"""Micro-benchmarks of the engine substrates (baseline health numbers).

Not tied to a paper table; these keep the substrate performance visible
so regressions in the storage/index layers are caught before they skew
the experiment benchmarks.
"""

import random
import time

import pytest

from repro import Engine
from repro.bench.harness import ReportTable
from repro.index import BTree

REPORT_FILE = "micro_plan_cache.txt"
N = 5000
REPEATS = 1000


@pytest.fixture(scope="module")
def loaded_db():
    db = Engine(buffer_capacity=2048).connect()
    db.execute("CREATE TABLE t (id INTEGER, grp VARCHAR2(8), val NUMBER)")
    rng = random.Random(91)
    db.insert_rows("t", [[i, f"g{i % 16}", rng.random()]
                         for i in range(N)])
    db.execute("CREATE INDEX t_id ON t(id)")
    db.execute("CREATE INDEX t_grp ON t(grp)")
    db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
    return db


def test_micro_btree_build(benchmark):
    keys = list(range(N))
    random.Random(1).shuffle(keys)

    def build():
        tree = BTree(order=64)
        for key in keys:
            tree.insert(key, key)
        return tree

    tree = benchmark(build)
    assert len(tree) == N


def test_micro_btree_point_lookup(benchmark):
    tree = BTree(order=64)
    for key in range(N):
        tree.insert(key, key)
    benchmark(lambda: [tree.search(k) for k in range(0, N, 97)])


def test_micro_full_scan_sql(benchmark, loaded_db):
    rows = benchmark(lambda: loaded_db.execute(
        "SELECT COUNT(*) FROM t WHERE val < 0.5").fetchall())
    assert rows[0][0] > 0


def test_micro_indexed_point_sql(benchmark, loaded_db):
    rows = benchmark(lambda: loaded_db.execute(
        "SELECT grp FROM t WHERE id = 2500").fetchall())
    assert rows


def test_micro_insert_with_indexes(benchmark, loaded_db):
    counter = [10 ** 6]

    def insert():
        counter[0] += 1
        loaded_db.execute("INSERT INTO t VALUES (:1, 'g1', 0.5)",
                          [counter[0]])

    benchmark(insert)


def test_micro_group_by_sql(benchmark, loaded_db):
    rows = benchmark(lambda: loaded_db.execute(
        "SELECT grp, COUNT(*), AVG(val) FROM t GROUP BY grp").fetchall())
    assert len(rows) == 16


def _repeated_point_queries(db, cold):
    """Time REPEATS executions of one parameterized point SELECT.

    ``cold`` clears the plan cache before every execution, forcing a
    hard parse + plan each time; warm mode reuses the shared plan.
    """
    sql = "SELECT grp FROM t WHERE id = :1"
    ids = [(i * 37) % N for i in range(REPEATS)]
    db.plan_cache.clear()
    start = time.perf_counter()
    for ident in ids:
        if cold:
            db.plan_cache.clear()
        rows = db.execute(sql, [ident]).fetchall()
        assert rows
    return time.perf_counter() - start


def test_micro_repeated_statement_cold_vs_warm(loaded_db, fresh_result_file):
    """1k executions of the same parameterized SELECT: the shared plan
    cache must measurably beat per-execution hard parsing."""
    cold = _repeated_point_queries(loaded_db, cold=True)
    warm = _repeated_point_queries(loaded_db, cold=False)
    stats = loaded_db.plan_cache.stats
    table = ReportTable(
        "micro — repeated parameterized point SELECT "
        f"({REPEATS} executions): cold vs warm plan cache",
        ["mode", "total_s", "per_exec_us", "speedup"])
    table.add_row("cold (hard parse each)", cold,
                  cold / REPEATS * 1e6, 1.0)
    table.add_row("warm (shared plan)", warm,
                  warm / REPEATS * 1e6, cold / warm)
    table.emit(fresh_result_file)
    assert stats.hits >= REPEATS - 1
    assert warm < cold


def test_micro_warm_plan_cache_point_sql(benchmark, loaded_db):
    loaded_db.execute(
        "SELECT grp FROM t WHERE id = :1", [1]).fetchall()  # warm the cache
    rows = benchmark(lambda: loaded_db.execute(
        "SELECT grp FROM t WHERE id = :1", [2500]).fetchall())
    assert rows


def test_micro_cold_plan_cache_point_sql(benchmark, loaded_db):
    def cold_query():
        loaded_db.plan_cache.clear()
        return loaded_db.execute(
            "SELECT grp FROM t WHERE id = :1", [2500]).fetchall()

    rows = benchmark(cold_query)
    assert rows


def test_micro_filter_heavy_full_scan(benchmark, loaded_db):
    """The compile-and-batch target workload: several predicates over a
    full scan, warm plan cache (expression evaluation dominates)."""
    sql = ("SELECT id FROM t WHERE val < :1 AND grp LIKE 'g1%'"
           " AND id BETWEEN :2 AND :3")
    loaded_db.execute(sql, [0.9, 100, N - 100]).fetchall()  # warm the cache
    rows = benchmark(lambda: loaded_db.execute(
        sql, [0.9, 100, N - 100]).fetchall())
    assert rows


def test_micro_domain_scan_text(benchmark):
    """Warm domain-index scan through the batched ODCI fetch loop."""
    from repro.bench.workloads import make_corpus
    from repro.cartridges.text import install
    corpus = make_corpus(400, words_per_doc=40, vocabulary_size=400, seed=17)
    db = Engine(buffer_capacity=2048).connect()
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")
    db.insert_rows("docs", [[i, d] for i, d in enumerate(corpus.documents)])
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    sql = "SELECT id FROM docs WHERE Contains(body, :1)"
    word = corpus.common_word(5)
    db.execute(sql, [word]).fetchall()  # warm the cache
    rows = benchmark(lambda: db.execute(sql, [word]).fetchall())
    assert rows


def test_micro_hash_join_sql(benchmark, loaded_db):
    loaded_db.execute("CREATE TABLE g (grp VARCHAR2(8), label VARCHAR2(8))")
    for i in range(16):
        loaded_db.execute("INSERT INTO g VALUES (:1, :2)",
                          [f"g{i}", f"L{i}"])
    rows = benchmark(lambda: loaded_db.execute(
        "SELECT COUNT(*) FROM t, g WHERE t.grp = g.grp").fetchall())
    assert rows[0][0] >= N
