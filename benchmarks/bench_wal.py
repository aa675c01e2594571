"""WAL benchmark: group commit vs per-commit fsync, and WAL overhead.

Measures the durability subsystem's two costs:

* **group-commit throughput** — N concurrent sessions each run small
  commit-heavy transactions against a WAL whose fsync is artificially
  slowed to ``FSYNC_DELAY_S`` (a realistic spinning-disk / fsync-heavy
  regime; in-memory tmpfs fsyncs are too fast to show batching).
  **Grouped** is the engine as shipped: each session makes its own
  commit durable through ``WriteAheadLog.flush_to``, and commits that
  arrive while an fsync is in flight share the next one.  The
  **per-commit baseline** patches the engine's WAL here, in the
  benchmark, so that every commit pays its own fsync under one lock.
  Reported at 1, 4, and 8 sessions — batching cannot help a single
  session, and the win must grow with concurrency;
* **WAL on vs off DML overhead** — the same single-session insert/
  update workload with durability enabled (``data_dir`` set, no fsync
  delay) vs the pure in-memory engine, recording what logging itself
  costs (informational, not gated).

Emits ``BENCH_wal.json`` at the repo root.  Run directly::

    python benchmarks/bench_wal.py            # record JSON + table
    python benchmarks/bench_wal.py --smoke --check   # CI perf gate

``--check`` enforces the acceptance floor (group-commit throughput
>= 3x the per-commit baseline at 8 sessions) and a work ceiling
(grouped fsyncs <= 0.5 per commit at 8 sessions), and compares the
ratio against the committed baseline, failing on a >20% regression.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time

if __name__ == "__main__":  # runnable without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", "src"))

from repro import Engine
from repro.bench.harness import ReportTable

REPORT_FILE = "wal.txt"
JSON_FILE = "BENCH_wal.json"
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: machine-readable results live at the repo root (text reports stay
#: under benchmarks/results/)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: regression tolerance for --check: the speedup ratio may not drop
#: below 80% of the committed baseline's
CHECK_TOLERANCE = 0.8
#: acceptance floor (ISSUE 7): group-commit throughput over the
#: per-commit-fsync baseline at 8 concurrent sessions
GROUP_COMMIT_FLOOR = 3.0
#: speedups are clamped here before the baseline comparison — beyond
#: this the per-commit baseline is fsync-serialization-dominated and
#: the exact ratio is scheduling noise, while the gate only needs to
#: see it stay comfortably above the floor
SPEEDUP_CAP = 4 * GROUP_COMMIT_FLOOR
#: work ceiling: grouped fsyncs per commit at 8 concurrent sessions —
#: a count, so it holds on a loaded box where the timing floor wobbles
GROUPED_FSYNCS_PER_COMMIT_CEILING = 0.5

#: simulated fsync latency; ~2 ms is a cheap-SSD / shared-disk figure
FSYNC_DELAY_S = 0.002
SESSION_COUNTS = (1, 4, 8)


class _Committer:
    """One session running tiny commit-per-row transactions.

    Each session writes its own ledger table: table locks are exclusive
    until commit, so a shared table would serialize the transactions
    themselves and group commit would never see two commits in flight.
    """

    def __init__(self, db, tid, n_txns):
        self.session = db.engine.connect(user="main")
        self.tid = tid
        self.n_txns = n_txns
        self.error = None

    def run(self):
        try:
            s = self.session
            for i in range(self.n_txns):
                s.begin()
                s.execute(f"INSERT INTO ledger{self.tid} "
                          "VALUES (:1, :2)",
                          [self.tid * 1_000_000 + i, f"t{self.tid}"])
                s.commit()
        except BaseException as exc:
            self.error = exc


def _fsync_every_commit(wal):
    """Patch ``wal`` into the per-commit baseline: each commit pays its
    own fsync, serialized under one lock, even when a concurrent fsync
    already covered its record (the engine's ``flush_to`` would share
    that one)."""
    lock = threading.Lock()

    def commit_flush(lsn):
        wal.stats.commit_waits += 1
        with lock:
            target = wal.end_lsn
            wal.device.fsync()
            wal.stats.fsyncs += 1
            wal.flushed_lsn = max(wal.flushed_lsn, target)

    wal.commit_flush = commit_flush


def _run_commit_load(group_commit, n_sessions, txns_per_session):
    data_dir = tempfile.mkdtemp(prefix="bench-wal-")
    try:
        db = Engine(data_dir=data_dir,
                    wal_fsync_delay=FSYNC_DELAY_S).connect()
        if not group_commit:
            _fsync_every_commit(db.engine.durability.wal)
        for i in range(n_sessions):
            db.execute(f"CREATE TABLE ledger{i} "
                       "(id NUMBER, who VARCHAR2(10))")
        agents = [_Committer(db, i, txns_per_session)
                  for i in range(n_sessions)]
        threads = [threading.Thread(target=a.run) for a in agents]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        for agent in agents:
            if agent.error is not None:
                raise agent.error
        stats = db.engine.durability.wal.stats.snapshot()
        db.close()
        db.engine.close()
        commits = n_sessions * txns_per_session
        return {"commits": commits,
                "elapsed_s": round(elapsed, 4),
                "commits_per_s": round(commits / elapsed, 2),
                "fsyncs": stats["fsyncs"],
                "fsyncs_per_commit": round(stats["fsyncs"] / commits, 3),
                "group_batches": stats["group_batches"],
                "max_batch": stats["max_batch"]}
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def bench_group_commit(txns_per_session):
    """Commit throughput by session count, grouped vs per-commit."""
    out = {}
    for n in SESSION_COUNTS:
        per_commit = _run_commit_load(False, n, txns_per_session)
        grouped = _run_commit_load(True, n, txns_per_session)
        out[str(n)] = {
            "per_commit": per_commit, "grouped": grouped,
            "speedup": round(grouped["commits_per_s"] /
                             max(per_commit["commits_per_s"], 1e-9), 3)}
    return out


def bench_wal_overhead(n_rows):
    """Single-session DML with durability on vs the in-memory engine.

    No fsync delay here — this isolates the cost of record encoding,
    appends, and LSN bookkeeping (informational, not gated).
    """
    timings = {}
    data_dir = tempfile.mkdtemp(prefix="bench-wal-ovh-")
    try:
        for label in ("wal_on", "wal_off"):
            db = (Engine(data_dir=data_dir).connect() if label == "wal_on"
                  else Engine().connect())
            db.execute("CREATE TABLE t (k NUMBER, v VARCHAR2(30))")
            start = time.perf_counter()
            db.begin()
            for i in range(n_rows):
                db.execute("INSERT INTO t VALUES (:1, :2)",
                           [i, f"v{i % 7}"])
            db.execute("UPDATE t SET v = 'x' WHERE k < :1", [n_rows // 4])
            db.commit()
            timings[label] = time.perf_counter() - start
            db.close()
            db.engine.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return {"rows": n_rows,
            "wal_on_s": round(timings["wal_on"], 4),
            "wal_off_s": round(timings["wal_off"], 4),
            "overhead_x": round(
                timings["wal_on"] / max(timings["wal_off"], 1e-9), 3),
            "note": "no fsync delay; cost of logging itself, "
                    "not of durability waits"}


def run_benchmarks(smoke=False):
    txns = 25 if smoke else 120
    n_rows = 500 if smoke else 3000
    return {
        "meta": {"txns_per_session": txns,
                 "fsync_delay_s": FSYNC_DELAY_S,
                 "session_counts": list(SESSION_COUNTS),
                 "smoke": smoke},
        "cases": {
            "group_commit": bench_group_commit(txns),
            "wal_overhead": bench_wal_overhead(n_rows),
        },
    }


def render_table(results):
    cases = results["cases"]
    meta = results["meta"]
    table = ReportTable(
        "wal — group commit vs per-commit fsync "
        f"({meta['txns_per_session']} txns/session, "
        f"{meta['fsync_delay_s'] * 1000:.1f}ms fsync)",
        ["case", "per-commit", "grouped", "speedup"])
    gc = cases["group_commit"]
    for n in meta["session_counts"]:
        row = gc[str(n)]
        table.add_row(
            f"{n} session(s) commits/s",
            row["per_commit"]["commits_per_s"],
            row["grouped"]["commits_per_s"], row["speedup"])
        table.add_row(
            f"{n} session(s) fsyncs",
            row["per_commit"]["fsyncs"], row["grouped"]["fsyncs"], "")
    ov = cases["wal_overhead"]
    table.add_row(
        f"DML x{ov['rows']} rows (wal off vs on, info)",
        ov["wal_off_s"], ov["wal_on_s"], f"{ov['overhead_x']}x cost")
    return table


def check_against_baseline(results, baseline_path):
    """Ratio-based regression gate; returns a list of failure strings."""
    failures = []
    gc = results["cases"]["group_commit"]
    at8 = gc["8"]
    if at8["speedup"] < GROUP_COMMIT_FLOOR:
        failures.append(
            f"group_commit speedup at 8 sessions {at8['speedup']} is "
            f"below the {GROUP_COMMIT_FLOOR}x acceptance floor")
    if at8["grouped"]["fsyncs"] >= at8["per_commit"]["fsyncs"]:
        failures.append(
            "group commit did not reduce fsyncs at 8 sessions "
            f"({at8['grouped']['fsyncs']} vs "
            f"{at8['per_commit']['fsyncs']})")
    per_commit = at8["grouped"]["fsyncs_per_commit"]
    if per_commit > GROUPED_FSYNCS_PER_COMMIT_CEILING:
        failures.append(
            f"grouped fsyncs per commit at 8 sessions {per_commit} is "
            f"above the {GROUPED_FSYNCS_PER_COMMIT_CEILING} ceiling")
    if not os.path.exists(baseline_path):
        failures.append(f"no committed baseline at {baseline_path}")
        return failures
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    base = baseline["cases"].get("group_commit", {}).get(
        "8", {}).get("speedup")
    if base is not None:
        capped_base = min(base, SPEEDUP_CAP)
        capped_now = min(at8["speedup"], SPEEDUP_CAP)
        if capped_now < capped_base * CHECK_TOLERANCE:
            failures.append(
                "group_commit: 8-session speedup regressed >20% "
                f"(baseline {base}x, now {at8['speedup']}x, "
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

def test_wal_benchmark():
    """Smoke-size run: group commit must beat per-commit >= 3x at 8,
    with at most half an fsync per commit."""
    results = run_benchmarks(smoke=True)
    at8 = results["cases"]["group_commit"]["8"]
    assert at8["speedup"] >= GROUP_COMMIT_FLOOR, at8
    assert at8["grouped"]["fsyncs"] < at8["per_commit"]["fsyncs"], at8
    assert (at8["grouped"]["fsyncs_per_commit"]
            <= GROUPED_FSYNCS_PER_COMMIT_CEILING), at8


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
