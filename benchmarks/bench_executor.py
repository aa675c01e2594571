"""Executor benchmark: generated-vs-interpreted, cold-vs-warm, batch sweep.

Measures generated code (vector kernels over column batches, row
functions over row contexts) against the tree-walking interpreter on
the same engine build and the same plans
(:func:`repro.testing.interpreter_forced`), and emits a
machine-readable ``BENCH_executor.json`` at the repo root so the perf
trajectory is tracked across PRs.

Run directly::

    python benchmarks/bench_executor.py            # record: JSON + table
    python benchmarks/bench_executor.py --smoke --check   # CI perf gate

``--check`` compares *speedup ratios* (not absolute seconds, which vary
by machine) against the committed baseline JSON (``BASELINE``); it also
enforces the absolute speedup floors and the ceiling on a full scan
right after every page was written (``GATES``).
The same entry points run under pytest via
:func:`test_executor_benchmark` so the suite keeps them healthy.
"""

import gc
import json
import os
import random
import sys
import time

if __name__ == "__main__":  # runnable without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", "src"))

from repro import Engine
from repro.bench.harness import (
    Baseline, BenchScript, Gate, ReportTable, assert_gates, fastest)
from repro.bench.workloads import make_corpus
from repro.testing import interpreter_forced

#: several compiled-friendly predicates over one full scan — the
#: expression-evaluation-dominated workload the compiler targets
FILTER_SQL = ("SELECT id FROM t WHERE val < :1 AND grp LIKE 'g1%'"
              " AND id BETWEEN :2 AND :3 AND NOT (val * 2 > 1.9)")

#: the scan both sides of the rescan case time
RESCAN_SQL = "SELECT COUNT(*) FROM t WHERE val < :1"


def build_scan_db(n_rows):
    db = Engine(buffer_capacity=4096).connect()
    db.execute("CREATE TABLE t (id INTEGER, grp VARCHAR2(8), val NUMBER)")
    rng = random.Random(91)
    db.insert_rows("t", [[i, f"g{i % 16}", rng.random()]
                         for i in range(n_rows)])
    db.execute("CREATE INDEX t_id ON t(id)")
    db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
    return db


def build_text_db(n_docs):
    from repro.cartridges.text import install
    corpus = make_corpus(n_docs, words_per_doc=40, vocabulary_size=400,
                         seed=17)
    db = Engine(buffer_capacity=4096).connect()
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")
    db.insert_rows("docs", [[i, d] for i, d in enumerate(corpus.documents)])
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    db.execute("ANALYZE TABLE docs COMPUTE STATISTICS")
    return db, corpus


def _clock(fn):
    """A side for :func:`fastest` that times all of ``fn``."""
    def side():
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    return side


def _timed(db, sql, binds, repeats):
    """The interpreter against generated code on one freshly planned,
    cached plan: ``3 * repeats`` rounds of one execution a side, and no
    fewer than the dispatch guard's 60 (see :func:`fastest`).  Returns
    ``(interpreted_s, generated_s, rows)``, each side's fastest
    execution scaled to ``repeats`` executions."""
    def run(interpreted):
        def execute():
            if interpreted:
                with interpreter_forced(db):
                    return db.execute(sql, binds).fetchall()
            return db.execute(sql, binds).fetchall()
        return execute

    db.plan_cache.clear()
    n1, n2 = len(run(True)()), len(run(False)())
    assert n1 == n2 and n1 > 0, (n1, n2)
    best = fastest({"interpreted": _clock(run(True)),
                     "generated": _clock(run(False))},
                    max(60, 3 * repeats))
    return best["interpreted"] * repeats, best["generated"] * repeats, n1


def _versus_interpreter(interpreted, generated, **extra):
    return dict(extra, interpreted_s=round(interpreted, 4),
                generated_s=round(generated, 4),
                speedup=round(interpreted / generated, 3))


def bench_filter_full_scan(n_rows, repeats):
    """Filter-heavy full scan: vector kernel vs interpreter."""
    db = build_scan_db(n_rows)
    binds = [0.9, 100, n_rows - 100]
    interpreted, generated, rows = _timed(db, FILTER_SQL, binds, repeats)
    return _versus_interpreter(interpreted, generated, rows=rows)


def bench_vectorized_agg(n_rows, repeats):
    """GROUP BY aggregation: grouped column folds vs interpreted
    group keys and aggregate arguments over a context per row."""
    db = build_scan_db(n_rows)
    sql = ("SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val)"
           " FROM t GROUP BY grp")
    interpreted, generated, groups = _timed(db, sql, [], repeats)
    return _versus_interpreter(interpreted, generated, groups=groups)


def bench_index_lookup(n_rows, repeats):
    """B-tree range probe with a selective residual filter.

    The shape of a cartridge's callback SQL (the spatial tile probe):
    the index returns ~300 rowids, the residual keeps ~1% of them.
    Both modes fetch the rowids in page-sorted batches; generated, the
    residual runs over the fetched columns and only the survivors are
    projected; interpreted, every fetched row gets a RowContext and a
    tree walk.  Ten times the rounds of the other cases: one probe is
    a millisecond or so.
    """
    db = build_scan_db(n_rows)
    sql = ("SELECT id, grp FROM t WHERE id BETWEEN :1 AND :2"
           " AND val < :3 AND grp LIKE 'g%'")
    low = n_rows // 3
    binds = [low, low + 299, 0.01]
    interpreted, generated, rows = _timed(db, sql, binds, repeats * 10)
    return _versus_interpreter(interpreted, generated, fetched=300,
                               rows=rows)


#: what stays on the row pipeline: a sort over an IOT prefix scan, and
#: a hash join (keys, a condition over both tables, the projection);
#: no scan below them has a filter a kernel could take
ROW_LOOP_SQL = (
    "SELECT doc, freq * 2 FROM postings WHERE term = :1 ORDER BY doc DESC",
    "SELECT p.doc, d.grp FROM postings p, d"
    " WHERE p.doc = d.id AND p.term = :1 AND p.freq > d.id - p.doc")

#: a callback-shaped posting read (the text cartridge's ``SELECT rid,
#: freq ... WHERE token = :1``) with a residual: the IOT's prefix
#: batches go through the vector kernel and the fused projection
IOT_PREFIX_SQL = ("SELECT doc, freq * 2 FROM postings"
                  " WHERE term = :1 AND freq > 1")


def build_row_loop_db(n_rows):
    db = Engine(buffer_capacity=4096).connect()
    db.execute("CREATE TABLE postings (term VARCHAR2(16), doc INTEGER,"
               " freq INTEGER, PRIMARY KEY (term, doc)) ORGANIZATION INDEX")
    db.execute("CREATE TABLE d (id INTEGER, grp VARCHAR2(8))")
    db.insert_rows("postings", [[f"w{i % 4}", i, i % 5]
                                for i in range(n_rows)])
    db.insert_rows("d", [[i, f"g{i % 16}"] for i in range(n_rows // 2)])
    return db


def bench_row_loop(n_rows, repeats):
    """Row functions: a sort over an IOT prefix scan, and a hash join
    (keys, condition, projection) — nothing here reaches a vector
    kernel."""
    db = build_row_loop_db(n_rows)
    for sql in ROW_LOOP_SQL:
        assert not any("VECTORIZED" in line
                       for line in db.explain(sql, ["w1"])), sql

    timings = [_timed(db, sql, ["w1"], repeats) for sql in ROW_LOOP_SQL]
    interpreted, generated, rows = (sum(t) for t in zip(*timings))
    return _versus_interpreter(interpreted, generated, rows=rows)


def bench_iot_prefix(n_rows, repeats):
    """An IOT prefix scan with a residual under a projection: prefix
    batches through the vector kernel and the fused gather vs the
    interpreter."""
    db = build_row_loop_db(n_rows)
    assert all("VECTORIZED" in line
               for line in db.explain(IOT_PREFIX_SQL, ["w1"])[:2])
    interpreted, generated, rows = _timed(db, IOT_PREFIX_SQL, ["w1"],
                                          repeats)
    return _versus_interpreter(interpreted, generated, rows=rows)


def bench_rescan_after_writes(n_rows, repeats):
    """A full scan after an UPDATE that wrote every page, so every page
    rebuilds its column image, against a cold scan of the same table
    (just reloaded: no page has an image yet) and a warm one (every
    image reused).  The plan is cached and the write's garbage collected
    before each timed scan; the fastest of ``3 * repeats`` rounds of one
    scan a mode (one scan is a millisecond or so; see :func:`fastest`).
    Each mode's write sets up its own start, whatever ran before it."""
    db = Engine(buffer_capacity=4096).connect()
    db.execute("CREATE TABLE t (id INTEGER, grp VARCHAR2(8), val NUMBER)")
    rng = random.Random(91)
    rows = [[i, f"g{i % 16}", rng.random()] for i in range(n_rows)]
    sql, binds = RESCAN_SQL, [0.5]

    def reload():
        db.execute("TRUNCATE TABLE t")
        db.insert_rows("t", rows)

    def scan_after(write):
        def side():
            write()
            db.explain(sql, binds)  # plan (or hit the cache) untimed
            gc.collect()
            start = time.perf_counter()
            db.execute(sql, binds).fetchall()
            return time.perf_counter() - start
        return side

    best = fastest({
        "cold": scan_after(reload),
        "rescan": scan_after(lambda: db.execute("UPDATE t SET val = val")),
        "warm": scan_after(lambda: None)}, 3 * repeats)
    cold, rescan, warm = best["cold"], best["rescan"], best["warm"]
    return {"cold_s": round(cold, 5), "rescan_s": round(rescan, 5),
            "warm_s": round(warm, 5), "ratio": round(rescan / cold, 3)}


def bench_cold_vs_warm(n_rows, repeats):
    """Hard parse+plan+compile each execution vs the shared cached plan.

    Uses an indexed point query so per-execution work is small and the
    plan-time cost (now including expression compilation) is what gets
    measured; many repeats per mode keep the ratio stable.
    """
    db = build_scan_db(n_rows)
    sql = "SELECT grp FROM t WHERE id = :1"
    rounds = repeats * 20
    db.execute(sql, [1]).fetchall()
    start = time.perf_counter()
    for i in range(rounds):
        db.plan_cache.clear()
        db.execute(sql, [(i * 37) % n_rows]).fetchall()
    cold = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(rounds):
        db.execute(sql, [(i * 37) % n_rows]).fetchall()
    warm = time.perf_counter() - start
    return {"cold_s": round(cold, 4), "warm_s": round(warm, 4),
            "speedup": round(cold / warm, 3)}


def bench_domain_scan(n_docs, repeats):
    """Text-cartridge Contains scan: generated vs interpreted pipeline."""
    db, corpus = build_text_db(n_docs)
    sql = "SELECT id FROM docs WHERE Contains(body, :1)"
    binds = [corpus.common_word(5)]
    interpreted, generated, rows = _timed(db, sql, binds, repeats)
    return _versus_interpreter(interpreted, generated, rows=rows)


def bench_batch_sweep(n_docs, repeats, sizes=(8, 32, 128)):
    """ODCIIndexFetch batch-size sweep over the same domain scan: each
    size's fastest execution (see :func:`fastest`), scaled to
    ``repeats`` executions."""
    db, corpus = build_text_db(n_docs)
    sql = "SELECT id FROM docs WHERE Contains(body, :1)"
    binds = [corpus.common_word(2)]

    def at(size):
        def execute():
            db.fetch_batch_size = size
            db.execute(sql, binds).fetchall()
        return _clock(execute)

    best = fastest({str(size): at(size) for size in sizes}, 3 * repeats)
    return {size: round(elapsed * repeats, 4)
            for size, elapsed in best.items()}


def run_benchmarks(smoke=False):
    n_rows = 6000 if smoke else 20000
    n_docs = 300 if smoke else 1000
    repeats = 8 if smoke else 30
    return {
        "meta": {"n_rows": n_rows, "n_docs": n_docs,
                 "repeats": repeats, "smoke": smoke},
        "cases": {
            "filter_full_scan": bench_filter_full_scan(n_rows, repeats),
            "vectorized_agg": bench_vectorized_agg(n_rows, repeats),
            "index_lookup": bench_index_lookup(n_rows, repeats),
            "row_loop": bench_row_loop(n_rows, repeats),
            "iot_prefix": bench_iot_prefix(n_rows, repeats),
            "rescan_after_writes": bench_rescan_after_writes(n_rows,
                                                             repeats),
            "plan_cache": bench_cold_vs_warm(n_rows, repeats),
            "domain_scan": bench_domain_scan(n_docs, repeats),
            "batch_sweep": bench_batch_sweep(n_docs, repeats),
        },
    }


def render_table(results):
    cases = results["cases"]
    table = ReportTable(
        "executor — generated code vs interpreter "
        f"(rows={results['meta']['n_rows']}, "
        f"repeats={results['meta']['repeats']})",
        ["case", "baseline_s", "optimized_s", "speedup"])
    for name, label in (
            ("filter_full_scan", "filter-heavy full scan"),
            ("vectorized_agg", "group-by aggregation"),
            ("index_lookup", "b-tree range probe + residual"),
            ("row_loop", "sort + hash join (row functions)"),
            ("iot_prefix", "iot prefix scan + residual, fused projection"),
            ("domain_scan", "text domain scan")):
        case = cases[name]
        table.add_row(f"{label} (interp -> generated)",
                      case["interpreted_s"], case["generated_s"],
                      case["speedup"])
    rescan = cases["rescan_after_writes"]
    for label, key in (("after writing every page", "rescan_s"),
                       ("column images reused", "warm_s")):
        table.add_row(f"full scan (cold -> {label})", rescan["cold_s"],
                      rescan[key], round(rescan["cold_s"] / rescan[key], 3))
    pc = cases["plan_cache"]
    table.add_row("plan cache (cold -> warm)",
                  pc["cold_s"], pc["warm_s"], pc["speedup"])
    for size, elapsed in cases["batch_sweep"].items():
        table.add_row(f"domain scan, fetch batch {size}", elapsed, "-", "-")
    return table


#: the bounds on a run.  The pytest entry's are looser where they differ:
#: under the full suite's load the timings wobble, and the perf job
#: (--smoke --check) holds the line
GATES = (
    # acceptance floor: the vector kernel must beat the interpreter by
    # >= 2x on the filter-heavy full scan
    Gate("filter_full_scan.speedup", ">=", 2.0),
    # grouped column folds must beat the interpreted accumulator loop
    Gate("vectorized_agg.speedup", ">=", 1.3, test=1.1),
    # a B-tree range probe with a selective residual: vector kernel over
    # the fetched rowid batches vs the interpreter over a context per row
    Gate("index_lookup.speedup", ">=", 1.5, test=1.2),
    # generated row functions (sort keys, hash-join keys and condition,
    # projections) must beat the interpreter on the row pipeline
    Gate("row_loop.speedup", ">=", 1.1, test=1.0),
    # an IOT prefix scan's batches through the vector kernel and the
    # fused projection vs the interpreter over a context per posting
    Gate("iot_prefix.speedup", ">=", 1.5, test=1.2),
    # at smoke scale the domain scan is ODCI-dispatch dominated, so its
    # ratio is not stable across corpus sizes: generated code must not
    # be slower, no more
    Gate("domain_scan.speedup", ">=", 0.9, test=None),
    # a full scan right after every page was written (each page rebuilds
    # its column image) vs a cold scan of the same table: what a
    # write-heavy table pays for the cache
    Gate("rescan_after_writes.ratio", "<=", 1.2, test=1.5),
    Gate("plan_cache.speedup", ">", None, test=1.0),
)
#: regression tolerance for --check: a speedup ratio may not drop below
#: 80% of the committed baseline's
CHECK_TOLERANCE = 0.8
BASELINE = Baseline(("filter_full_scan.speedup", "plan_cache.speedup"),
                    CHECK_TOLERANCE)


def keep_previous(results, json_path):
    """Keep the recording being replaced next to the new one, so the file
    shows which way each case moved (and what a dropped case last
    measured)."""
    if not os.path.exists(json_path):
        return
    with open(json_path) as handle:
        before = json.load(handle)
    dropped = before.get("previous", {})
    for name, case in before["cases"].items():
        if "speedup" not in case:  # the batch sweep: bare timings
            continue
        case.pop("previous", None)
        now = results["cases"].get(name)
        if now is None:
            dropped[name] = case
            continue
        # recorded once by hand: the same queries on the parent
        # commit's closure tier, same box, same session
        if "parent_closure_s" in case:
            now["parent_closure_s"] = case.pop("parent_closure_s")
        now["previous"] = case
    results["previous"] = dropped


BENCH = BenchScript(__file__, run_benchmarks, render_table, GATES, BASELINE,
                    before_write=keep_previous)


def test_executor_benchmark():
    """Smoke-size run: results must hold the pytest side of ``GATES``."""
    assert_gates(GATES, run_benchmarks(smoke=True))


if __name__ == "__main__":
    sys.exit(BENCH.main())
