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

``--check`` holds ``GATES`` (the group-commit floor over the
per-commit baseline at 8 sessions, and the grouped fsyncs-per-commit
work ceiling) and compares the ratio against the committed baseline
(``BASELINE``).
"""

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
from repro.bench.harness import (
    Baseline, BenchScript, Gate, ReportTable, assert_gates)

#: acceptance floor (ISSUE 7): group-commit throughput over the
#: per-commit-fsync baseline at 8 concurrent sessions
GROUP_COMMIT_FLOOR = 3.0
#: regression tolerance for --check: the speedup ratio may not drop
#: below 80% of the committed baseline's
CHECK_TOLERANCE = 0.8
#: speedups are clamped here before the baseline comparison — beyond
#: this the per-commit baseline is fsync-serialization-dominated and
#: the exact ratio is scheduling noise, while the gate only needs to
#: see it stay comfortably above the floor
SPEEDUP_CAP = 4 * GROUP_COMMIT_FLOOR

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


GATES = (
    Gate("group_commit.8.speedup", ">=", GROUP_COMMIT_FLOOR),
    Gate("group_commit.8.grouped.fsyncs", "<",
         "group_commit.8.per_commit.fsyncs"),
    # work ceiling: grouped fsyncs per commit at 8 concurrent sessions —
    # a count, so it holds on a loaded box where the timing floor wobbles
    Gate("group_commit.8.grouped.fsyncs_per_commit", "<=", 0.5),
)
BASELINE = Baseline(("group_commit.8.speedup",), CHECK_TOLERANCE,
                    cap=SPEEDUP_CAP)
BENCH = BenchScript(__file__, run_benchmarks, render_table, GATES, BASELINE)


def test_wal_benchmark():
    """Smoke-size run: results must hold the pytest side of ``GATES``."""
    assert_gates(GATES, run_benchmarks(smoke=True))


if __name__ == "__main__":
    sys.exit(BENCH.main())
