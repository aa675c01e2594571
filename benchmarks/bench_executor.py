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
by machine) against the committed baseline JSON and fails on a >20%
regression; it also enforces the >= 2x floor on the filter-heavy
full-scan case.  The same entry points run under pytest via
:func:`test_executor_benchmark` so the suite keeps them healthy.
"""

import argparse
import json
import os
import random
import sys
import time

if __name__ == "__main__":  # runnable without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", "src"))

from repro import Database
from repro.bench.harness import ReportTable
from repro.bench.workloads import make_corpus
from repro.testing import interpreter_forced

REPORT_FILE = "executor.txt"
JSON_FILE = "BENCH_executor.json"
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: machine-readable results live at the repo root (text reports stay
#: under benchmarks/results/)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: several compiled-friendly predicates over one full scan — the
#: expression-evaluation-dominated workload the compiler targets
FILTER_SQL = ("SELECT id FROM t WHERE val < :1 AND grp LIKE 'g1%'"
              " AND id BETWEEN :2 AND :3 AND NOT (val * 2 > 1.9)")

#: regression tolerance for --check: a speedup ratio may not drop below
#: 80% of the committed baseline's
CHECK_TOLERANCE = 0.8
#: acceptance floor: the vector kernel must beat the interpreter by
#: >= 2x on the filter-heavy full scan
FILTER_SPEEDUP_FLOOR = 2.0
#: grouped column folds must beat the interpreted accumulator loop
VECTORIZED_AGG_FLOOR = 1.3
#: a B-tree range probe with a selective residual: vector kernel over
#: the fetched rowid batches vs the interpreter over a context per row
INDEX_LOOKUP_FLOOR = 1.5
#: generated row functions (IOT prefix scan, hash-join keys,
#: projections) must beat the interpreter on the row pipeline
ROW_LOOP_FLOOR = 1.1


def build_scan_db(n_rows):
    db = Database(buffer_capacity=4096)
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
    db = Database(buffer_capacity=4096)
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")
    db.insert_rows("docs", [[i, d] for i, d in enumerate(corpus.documents)])
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    db.execute("ANALYZE TABLE docs COMPUTE STATISTICS")
    return db, corpus


def _timed(db, sql, binds, repeats, interpreted=False):
    """Plan afresh, warm the plan cache, then time ``repeats``
    executions — with ``interpreted``, on the interpreter only."""
    if interpreted:
        with interpreter_forced(db):
            return _timed(db, sql, binds, repeats)
    db.plan_cache.clear()
    rows = db.execute(sql, binds).fetchall()
    start = time.perf_counter()
    for __ in range(repeats):
        db.execute(sql, binds).fetchall()
    return time.perf_counter() - start, len(rows)


def _versus_interpreter(interpreted, generated, **extra):
    return dict(extra, interpreted_s=round(interpreted, 4),
                generated_s=round(generated, 4),
                speedup=round(interpreted / generated, 3))


def bench_filter_full_scan(n_rows, repeats):
    """Filter-heavy full scan: vector kernel vs interpreter."""
    db = build_scan_db(n_rows)
    binds = [0.9, 100, n_rows - 100]
    interpreted, n1 = _timed(db, FILTER_SQL, binds, repeats, True)
    generated, n2 = _timed(db, FILTER_SQL, binds, repeats)
    assert n1 == n2 and n1 > 0, (n1, n2)
    return _versus_interpreter(interpreted, generated, rows=n1)


def bench_vectorized_agg(n_rows, repeats):
    """GROUP BY aggregation: grouped column folds vs interpreted
    group keys and aggregate arguments over a context per row."""
    db = build_scan_db(n_rows)
    sql = ("SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val)"
           " FROM t GROUP BY grp")
    interpreted, n1 = _timed(db, sql, [], repeats, True)
    generated, n2 = _timed(db, sql, [], repeats)
    assert n1 == n2 and n1 > 0, (n1, n2)
    return _versus_interpreter(interpreted, generated, groups=n1)


def bench_index_lookup(n_rows, repeats):
    """B-tree range probe with a selective residual filter.

    The shape of a cartridge's callback SQL (the spatial tile probe):
    the index returns ~300 rowids, the residual keeps ~1% of them.
    Both modes fetch the rowids in page-sorted batches; generated, the
    residual runs over the fetched columns and only the survivors are
    projected; interpreted, every fetched row gets a RowContext and a
    tree walk.  Min of five rounds per mode.
    """
    db = build_scan_db(n_rows)
    sql = ("SELECT id, grp FROM t WHERE id BETWEEN :1 AND :2"
           " AND val < :3 AND grp LIKE 'g%'")
    low = n_rows // 3
    binds = [low, low + 299, 0.01]
    rounds = repeats * 10
    interpreted, n1 = min(_timed(db, sql, binds, rounds, True)
                          for __ in range(5))
    generated, n2 = min(_timed(db, sql, binds, rounds) for __ in range(5))
    assert n1 == n2 and n1 > 0, (n1, n2)
    return _versus_interpreter(interpreted, generated, fetched=300, rows=n1)


#: the row pipeline's two biggest consumers in benchmarks/e2e: a
#: projection over an IOT prefix scan (the text cartridge's posting
#: reads) and hash-join keys
ROW_LOOP_SQL = (
    "SELECT doc, freq * 2 FROM postings WHERE term = :1",
    "SELECT p.doc, d.grp FROM postings p, d"
    " WHERE p.doc = d.id AND p.term = :1 AND p.freq > 1")


def build_row_loop_db(n_rows):
    db = Database(buffer_capacity=4096)
    db.execute("CREATE TABLE postings (term VARCHAR2(16), doc INTEGER,"
               " freq INTEGER, PRIMARY KEY (term, doc)) ORGANIZATION INDEX")
    db.execute("CREATE TABLE d (id INTEGER, grp VARCHAR2(8))")
    db.insert_rows("postings", [[f"w{i % 4}", i, i % 5]
                                for i in range(n_rows)])
    db.insert_rows("d", [[i, f"g{i % 16}"] for i in range(n_rows // 2)])
    return db


def bench_row_loop(n_rows, repeats):
    """Row functions: IOT prefix scan + projection, and a hash join
    (filter, keys, projection) — nothing here reaches a vector kernel.
    Min of three rounds per mode."""
    db = build_row_loop_db(n_rows)

    def total(interpreted):
        timings = [_timed(db, sql, ["w1"], repeats, interpreted)
                   for sql in ROW_LOOP_SQL]
        return sum(t for t, __ in timings), sum(n for __, n in timings)

    interpreted, n1 = min(total(True) for __ in range(3))
    generated, n2 = min(total(False) for __ in range(3))
    assert n1 == n2 and n1 > 0, (n1, n2)
    return _versus_interpreter(interpreted, generated, rows=n1)


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
    interpreted, n1 = _timed(db, sql, binds, repeats, True)
    generated, n2 = _timed(db, sql, binds, repeats)
    assert n1 == n2 and n1 > 0, (n1, n2)
    return _versus_interpreter(interpreted, generated, rows=n1)


def bench_batch_sweep(n_docs, repeats, sizes=(8, 32, 128)):
    """ODCIIndexFetch batch-size sweep over the same domain scan."""
    db, corpus = build_text_db(n_docs)
    sql = "SELECT id FROM docs WHERE Contains(body, :1)"
    binds = [corpus.common_word(2)]
    sweep = {}
    for size in sizes:
        db.fetch_batch_size = size
        elapsed, __ = _timed(db, sql, binds, repeats)
        sweep[str(size)] = round(elapsed, 4)
    return sweep


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
            ("row_loop", "iot prefix scan + hash join (row functions)"),
            ("domain_scan", "text domain scan")):
        case = cases[name]
        table.add_row(f"{label} (interp -> generated)",
                      case["interpreted_s"], case["generated_s"],
                      case["speedup"])
    pc = cases["plan_cache"]
    table.add_row("plan cache (cold -> warm)",
                  pc["cold_s"], pc["warm_s"], pc["speedup"])
    for size, elapsed in cases["batch_sweep"].items():
        table.add_row(f"domain scan, fetch batch {size}", elapsed, "-", "-")
    return table


#: absolute speedup floors --check enforces, whatever the baseline says
FLOORS = {"filter_full_scan": FILTER_SPEEDUP_FLOOR,
          "vectorized_agg": VECTORIZED_AGG_FLOOR,
          "index_lookup": INDEX_LOOKUP_FLOOR,
          "row_loop": ROW_LOOP_FLOOR,
          # at smoke scale the domain scan is ODCI-dispatch dominated,
          # so its ratio is not stable across corpus sizes: generated
          # code must not be slower, no more
          "domain_scan": 0.9}


def check_against_baseline(results, baseline_path):
    """Ratio-based regression gate; returns a list of failure strings."""
    failures = []
    for case, floor in FLOORS.items():
        speedup = results["cases"][case]["speedup"]
        if speedup < floor:
            failures.append(
                f"{case} speedup {speedup} is below the {floor}x floor")
    if not os.path.exists(baseline_path):
        failures.append(f"no committed baseline at {baseline_path}")
        return failures
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    for case in ("filter_full_scan", "plan_cache"):
        base = baseline["cases"].get(case, {}).get("speedup")
        now = results["cases"][case]["speedup"]
        if base is None:
            continue
        if now < base * CHECK_TOLERANCE:
            failures.append(
                f"{case}: speedup regressed >20% "
                f"(baseline {base}x, now {now}x)")
    return failures


def write_results(results):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(REPO_ROOT, JSON_FILE)
    if os.path.exists(json_path):
        # keep the recording being replaced next to the new one, so the
        # file shows which way each case moved (and what a dropped case
        # last measured)
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
    with open(json_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    render_table(results).emit(os.path.join(RESULTS_DIR, REPORT_FILE))
    return json_path


# -- pytest entry point (keeps the script healthy inside the suite) --------

def test_executor_benchmark():
    """Smoke-size run: results must satisfy the acceptance floor."""
    results = run_benchmarks(smoke=True)
    speedup = results["cases"]["filter_full_scan"]["speedup"]
    assert speedup >= FILTER_SPEEDUP_FLOOR, (
        f"vector kernel only {speedup}x over the interpreter")
    assert results["cases"]["plan_cache"]["speedup"] > 1.0
    # looser than the perf-job gates: under the full suite's load the
    # timings wobble, and the perf job (--smoke --check) holds the line
    agg = results["cases"]["vectorized_agg"]["speedup"]
    assert agg >= 1.1, f"vectorized aggregation only {agg}x"
    lookup = results["cases"]["index_lookup"]["speedup"]
    assert lookup >= 1.2, f"vectorized index lookup only {lookup}x"
    row_loop = results["cases"]["row_loop"]["speedup"]
    assert row_loop >= 1.0, f"row functions slower than interpreter"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--check", action="store_true",
                        help="compare speedup ratios against the committed "
                             "baseline instead of overwriting it")
    args = parser.parse_args(argv)

    results = run_benchmarks(smoke=args.smoke)
    if args.check:
        render_table(results).emit()
        failures = check_against_baseline(
            results, os.path.join(REPO_ROOT, JSON_FILE))
        for failure in failures:
            print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    path = write_results(results)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
