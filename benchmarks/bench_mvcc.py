"""MVCC read benchmark: snapshot readers vs locked readers under writers.

Measures the read path introduced by multi-version concurrency control:

* **reader throughput under write stress** — 8 writer threads run
  continuous balance-transfer transactions (each holding an exclusive
  table lock until commit) while reader threads run the mixed
  aggregate / text-index / spatial-index query load from the MVCC
  stress suite.  MVCC readers resolve rows against a statement
  snapshot and never touch the lock manager; the **locked baseline**
  re-creates the pre-MVCC read path — ``snapshot_reads`` off and an
  explicit SHARED ``table:accounts`` lock around every query — so
  every read queues behind the writers' exclusive locks;
* **single-session resolve overhead** — the same scan with
  ``snapshot_reads`` on vs off with no concurrent writers, recording
  what a snapshot scan costs when there is nothing to resolve
  (``--check`` holds a ceiling on the ratio).

Emits ``BENCH_mvcc.json`` at the repo root.  Run directly::

    python benchmarks/bench_mvcc.py            # record JSON + table
    python benchmarks/bench_mvcc.py --smoke --check   # CI perf gate

``--check`` enforces the acceptance floor (MVCC aggregate reader
throughput >= 2x the locked baseline under 8-writer stress), the
resolve-overhead ceiling, and compares the speedup ratio against the
committed baseline, failing on a >20% regression.
"""

import argparse
import json
import os
import random
import sys
import threading
import time

if __name__ == "__main__":  # runnable without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", "src"))

from repro import Database
from repro.bench.harness import ReportTable
from repro.sql.engine import Engine
from repro.txn.locks import LockMode

REPORT_FILE = "mvcc.txt"
JSON_FILE = "BENCH_mvcc.json"
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: machine-readable results live at the repo root (text reports stay
#: under benchmarks/results/)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: regression tolerance for --check: the speedup ratio may not drop
#: below 80% of the committed baseline's
CHECK_TOLERANCE = 0.8
#: acceptance floor (ISSUE 6): aggregate reader throughput under
#: 8-writer stress, MVCC snapshot reads over the locked-read baseline
MVCC_FLOOR = 2.0
#: ceiling on ``resolve_overhead.overhead_x``: a snapshot scan of a
#: settled table over the same scan in current mode (1.674 while every
#: row kept a head; ~1.1 once settled heads are forgotten)
RESOLVE_OVERHEAD_CEILING = 1.2
#: speedups are clamped here before the baseline comparison: beyond
#: this the locked baseline is starvation-dominated and the exact
#: ratio is scheduling noise (observed 30-70x run to run), while the
#: gate only needs to see it stay comfortably above the floor
SPEEDUP_CAP = 4 * MVCC_FLOOR

N_WRITERS = 8
N_READERS = 4
N_ACCOUNTS = 16
#: client think time between reader queries, both modes.  Without it
#: the locked baseline is bimodal: overlapping SHARED holds from
#: free-running readers can starve the writers outright (the lock
#: manager grants S while S is held), leaving the readers measuring an
#: effectively write-free table.  The gap lets writers take their X
#: locks so the baseline measures readers genuinely queueing behind
#: write transactions — the regime the MVCC read path eliminates.
THINK_S = 0.001
#: base for the pseudo txn ids locked-baseline readers lock under
#: (far above any id the engine's own transactions will reach)
_READER_TOKEN_BASE = 50_000_000


def _note(rng):
    return "alpha " + " ".join(
        rng.sample(["bravo", "carbon", "delta", "ember", "falcon"], 2))


def _shape(rng, gt, make_rect):
    x, y = rng.uniform(50, 700), rng.uniform(50, 700)
    return make_rect(gt, x, y, x + 50, y + 50)


def _build_engine():
    from repro.cartridges.spatial import install as install_spatial
    from repro.cartridges.spatial import make_rect
    from repro.cartridges.text import install as install_text
    engine = Engine(lock_timeout=60.0)
    setup = engine.connect()
    install_text(setup)
    install_spatial(setup)
    setup.execute("CREATE TABLE accounts (id INTEGER, amount INTEGER,"
                  " note VARCHAR2(120), shape SDO_GEOMETRY)")
    gt = setup.catalog.get_object_type("SDO_GEOMETRY")
    rng = random.Random(42)
    for i in range(N_ACCOUNTS):
        setup.insert_row(
            "accounts", [i, 100, _note(rng), _shape(rng, gt, make_rect)])
    setup.execute("CREATE INDEX acc_tidx ON accounts(note)"
                  " INDEXTYPE IS TextIndexType")
    setup.execute("CREATE INDEX acc_sidx ON accounts(shape)"
                  " INDEXTYPE IS SpatialIndexType")
    return engine, make_rect


class _Writer:
    """Continuous balance-transfer transactions until told to stop."""

    def __init__(self, engine, tid, stop, make_rect):
        self.session = engine.connect()
        self.gt = self.session.catalog.get_object_type("SDO_GEOMETRY")
        self.rng = random.Random(5000 + tid)
        self.stop = stop
        self.make_rect = make_rect
        self.txns = 0
        self.error = None

    def run(self):
        try:
            while not self.stop.is_set():
                self._one_txn()
                self.txns += 1
        except BaseException as exc:
            self.error = exc

    def _one_txn(self):
        rng, s = self.rng, self.session
        a, b = rng.sample(range(N_ACCOUNTS), 2)
        delta = rng.randrange(1, 50)
        s.begin()
        s.execute("UPDATE accounts SET amount = amount - :1 WHERE id = :2",
                  [delta, a])
        if rng.random() < 0.4:
            s.execute("UPDATE accounts SET note = :1 WHERE id = :2",
                      [_note(rng), a])
        if rng.random() < 0.3:
            s.execute(
                "UPDATE accounts SET shape = :1 WHERE id = :2",
                [_shape(rng, self.gt, self.make_rect), b])
        s.execute("UPDATE accounts SET amount = amount + :1 WHERE id = :2",
                  [delta, b])
        s.commit()


class _Reader:
    """Mixed aggregate / text / spatial queries until told to stop.

    ``locked=True`` re-creates the pre-MVCC read path: current-mode
    reads (``snapshot_reads`` off) guarded by an explicit SHARED table
    lock per query, released immediately after the fetch.
    """

    def __init__(self, engine, tid, stop, window, locked):
        self.engine = engine
        self.session = engine.connect()
        self.rng = random.Random(7000 + tid)
        self.stop = stop
        self.window = window
        self.locked = locked
        self.token = _READER_TOKEN_BASE + tid * 1_000_000
        self.queries = 0
        self.error = None
        if locked:
            self.session.snapshot_reads = False

    def run(self):
        try:
            while not self.stop.is_set():
                self._one_query()
                self.queries += 1
                time.sleep(THINK_S)
        except BaseException as exc:
            self.error = exc

    def _one_query(self):
        if not self.locked:
            self._query()
            return
        token = self.token + self.queries
        self.engine.locks.acquire(token, "table:accounts", LockMode.SHARED)
        try:
            self._query()
        finally:
            self.engine.locks.release_all(token)

    def _query(self):
        s, r = self.session, self.rng.random()
        if r < 0.4:
            s.execute("SELECT SUM(amount), COUNT(*) FROM accounts"
                      ).fetchall()
        elif r < 0.7:
            s.execute("SELECT id FROM accounts WHERE"
                      " Contains(note, 'alpha')").fetchall()
        else:
            s.execute("SELECT id FROM accounts WHERE Sdo_Relate(shape, :1,"
                      " 'mask=ANYINTERACT')", [self.window]).fetchall()


def _run_mode(locked, duration):
    """One timed window: 8 writers + N readers, aggregate reader qps."""
    engine, make_rect = _build_engine()
    gt = engine.connect().catalog.get_object_type("SDO_GEOMETRY")
    window = make_rect(gt, 0, 0, 900, 900)
    stop = threading.Event()
    writers = [_Writer(engine, i, stop, make_rect)
               for i in range(N_WRITERS)]
    readers = [_Reader(engine, i, stop, window, locked)
               for i in range(N_READERS)]
    threads = [threading.Thread(target=a.run) for a in writers + readers]
    start = time.perf_counter()
    for t in threads:
        t.start()
    time.sleep(duration)
    stop.set()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    for agent in writers + readers:
        if agent.error is not None:
            raise agent.error
    queries = sum(r.queries for r in readers)
    txns = sum(w.txns for w in writers)
    stats = engine.locks.stats.snapshot()
    return {"reader_queries": queries, "writer_txns": txns,
            "elapsed_s": round(elapsed, 4),
            "reader_qps": round(queries / elapsed, 2),
            "writer_tps": round(txns / elapsed, 2),
            "lock_waits": stats["waits"],
            "deadlocks": stats["deadlocks"]}


def bench_reader_throughput(duration):
    """Aggregate reader throughput: MVCC vs the locked-read baseline."""
    locked = _run_mode(locked=True, duration=duration)
    mvcc = _run_mode(locked=False, duration=duration)
    return {"locked": locked, "mvcc": mvcc,
            "speedup": round(
                mvcc["reader_qps"] / max(locked["reader_qps"], 1e-9), 3)}


def bench_resolve_overhead(n_rows, n_scans, repeats=7):
    """Single-session scan cost with snapshot reads on vs off.

    The rows go in through conventional ``INSERT``s, so each gets a
    depth-1 chain; with no snapshot open those settle at a prune pass
    and the store forgets them, which leaves a snapshot scan the page
    as it stands.  What is timed is what remains: taking a snapshot
    and the store's epoch bracket per page.  Both modes are timed
    alternately, best of ``repeats`` (the windows are milliseconds).
    """
    dbs = {}
    for label, snapshot_reads in (("mvcc", True), ("current", False)):
        db = dbs[label] = Database()
        db.snapshot_reads = snapshot_reads
        db.execute("CREATE TABLE t (k INTEGER, v VARCHAR2(30))")
        for i in range(n_rows):
            db.execute("INSERT INTO t VALUES (:1, :2)", [i, f"v{i % 7}"])
        db.engine.prune_versions()
    timings = {label: float("inf") for label in dbs}
    for __ in range(repeats):
        for label, db in dbs.items():
            start = time.perf_counter()
            for __ in range(n_scans):
                db.execute("SELECT k, v FROM t WHERE k >= 10").fetchall()
            timings[label] = min(timings[label],
                                 time.perf_counter() - start)
    tracked = len(dbs["mvcc"].catalog.get_table("t")
                  .storage.versions.tracked_rowids())
    return {"rows": n_rows, "scans": n_scans, "heads_tracked": tracked,
            "mvcc_s": round(timings["mvcc"], 4),
            "current_s": round(timings["current"], 4),
            "overhead_x": round(
                timings["mvcc"] / max(timings["current"], 1e-9), 3),
            "note": "single-session, conventionally inserted rows whose "
                    "depth-1 chains have settled; records what a "
                    "snapshot scan costs when uncontended"}


def run_benchmarks(smoke=False):
    duration = 0.8 if smoke else 4.0
    n_rows = 500 if smoke else 2000
    n_scans = 20 if smoke else 50
    return {
        "meta": {"duration_s": duration, "n_writers": N_WRITERS,
                 "n_readers": N_READERS, "n_accounts": N_ACCOUNTS,
                 "smoke": smoke},
        "cases": {
            "reader_throughput": bench_reader_throughput(duration),
            "resolve_overhead": bench_resolve_overhead(n_rows, n_scans),
        },
    }


def render_table(results):
    cases = results["cases"]
    meta = results["meta"]
    table = ReportTable(
        "mvcc — snapshot readers vs locked readers under "
        f"{meta['n_writers']}-writer stress "
        f"({meta['n_readers']} readers, {meta['duration_s']}s window)",
        ["case", "locked", "mvcc", "speedup"])
    rt = cases["reader_throughput"]
    table.add_row("reader throughput (queries/s)",
                  rt["locked"]["reader_qps"], rt["mvcc"]["reader_qps"],
                  rt["speedup"])
    table.add_row("lock waits (all sessions)",
                  rt["locked"]["lock_waits"], rt["mvcc"]["lock_waits"],
                  "")
    table.add_row("writer throughput (txns/s)",
                  rt["locked"]["writer_tps"], rt["mvcc"]["writer_tps"],
                  "")
    ro = cases["resolve_overhead"]
    table.add_row(
        f"uncontended scan x{ro['scans']} (resolve overhead)",
        ro["current_s"], ro["mvcc_s"], f"{ro['overhead_x']}x cost")
    return table


def check_against_baseline(results, baseline_path):
    """Ratio-based regression gate; returns a list of failure strings."""
    failures = []
    rt = results["cases"]["reader_throughput"]
    if rt["speedup"] < MVCC_FLOOR:
        failures.append(
            f"reader_throughput speedup {rt['speedup']} is below the "
            f"{MVCC_FLOOR}x acceptance floor")
    if rt["mvcc"]["deadlocks"] != 0:
        failures.append(
            f"mvcc mode saw {rt['mvcc']['deadlocks']} deadlocks")
    ro = results["cases"]["resolve_overhead"]
    if ro["overhead_x"] > RESOLVE_OVERHEAD_CEILING or ro["heads_tracked"]:
        failures.append(
            f"resolve_overhead {ro['overhead_x']}x is above the "
            f"{RESOLVE_OVERHEAD_CEILING}x ceiling, or the settled table "
            f"still tracks {ro['heads_tracked']} heads")
    if not os.path.exists(baseline_path):
        failures.append(f"no committed baseline at {baseline_path}")
        return failures
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    base = baseline["cases"].get(
        "reader_throughput", {}).get("speedup")
    if base is not None:
        capped_base = min(base, SPEEDUP_CAP)
        capped_now = min(rt["speedup"], SPEEDUP_CAP)
        if capped_now < capped_base * CHECK_TOLERANCE:
            failures.append(
                "reader_throughput: speedup regressed >20% "
                f"(baseline {base}x, now {rt['speedup']}x, "
                f"compared capped at {SPEEDUP_CAP}x)")
    return failures


def write_results(results):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(REPO_ROOT, JSON_FILE)
    with open(json_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    render_table(results).emit(os.path.join(RESULTS_DIR, REPORT_FILE))
    return json_path


# -- pytest entry point (keeps the script healthy inside the suite) --------

def test_mvcc_benchmark():
    """Smoke-size run: MVCC readers must beat locked readers >= 2x."""
    results = run_benchmarks(smoke=True)
    rt = results["cases"]["reader_throughput"]
    assert rt["speedup"] >= MVCC_FLOOR, rt
    assert rt["mvcc"]["deadlocks"] == 0, rt


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--check", action="store_true",
                        help="compare the speedup ratio against the "
                             "committed baseline instead of overwriting it")
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
