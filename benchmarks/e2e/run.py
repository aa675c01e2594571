"""End-to-end benchmark of the ODCI engine: five workloads, one command.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

builds workload W from the seed, sets it up three times (``setup_s`` is the
median), warms up with one untimed round, runs whole rounds for S seconds,
checks results against the oracle and prints every metric by name, then one
JSON object as the last line.  The timings come from the quieter half of the
rounds (see ``quiet_rounds``) and are stated at the machine's reference speed
(see ``spin``).  ``--trace 0`` measures the end-to-end metrics
with no wrapper installed; ``--trace 1`` installs the span wrappers of
trace.py and reports the per-layer metrics instead.  Without ``--workload``
every workload runs in its own process.  ``--selfcheck`` runs everything
twice and compares.  ``--quick`` divides every size by 20 and runs one round:
for checking the output's shape, never for numbers.

Closed loop, one client: the next statement is sent when the previous one
has completed.  In-process workloads use one session of a memory engine; wire
workloads drive a server child process (serve.py) over ``repro://`` with a
``file:`` data directory under ``benchmarks/e2e/.work``.
"""

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "..", "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # never measure some other installed copy of the engine
    sys.exit("benchmarks/e2e/run.py: no engine sources at src/repro")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

from repro import dbapi  # noqa: E402

import enginestats  # noqa: E402
import metrics  # noqa: E402
from trace import ODCI_ROUTINES, Tracer, now  # noqa: E402
from workloads import READ_MODES, WORKLOADS, user_bytes  # noqa: E402

WORK_DIR = os.path.join(HERE, ".work")
#: this process's scratch space: data directories of its server children
RUN_DIR = os.path.join(WORK_DIR, str(os.getpid()))
RESULTS_DIR = os.path.join(HERE, "results")
SETUP_REPEATS = 3
#: a statement that raises or takes longer counts as failed
STATEMENT_TIMEOUT = 30.0
DEFAULT_SEED = 11
#: the CPUs this process may use, before it pins itself to the first
CPUS = sorted(os.sched_getaffinity(0))
QUICK_SCALE = 1 / 20


# ----------------------------------------------------------------------
# where the engine runs
# ----------------------------------------------------------------------

class InProcessHost:
    """A memory engine in this process, driven through one connection."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer

    def open(self):
        self.conn = dbapi.connect()
        self.engine = self.conn.engine
        if self.tracer:
            self.tracer.install_engine(self.engine)
            self.tracer.install_session(self.conn.session)
        enginestats.install_cartridges(self.conn.session,
                                       self.workload.cartridges)
        for name, value in self.workload.session_settings.items():
            setattr(self.conn.session, name, value)

    def tell_tracer(self, word):
        pass                 # the tracer is this process's own

    def stats(self):
        return enginestats.snapshot(self.engine, self.tracer)

    def final(self):
        return {"rss_mb": peak_rss_mb(), "totals": {}, "spans": [],
                "chain_len_mean": enginestats.chain_len_mean(self.engine)}

    def close(self, kill=False):
        self.conn.close()
        self.engine.close()


class WireHost:
    """A durable engine in a server child process, driven over repro://."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.child = self.conn = None

    def open(self):
        os.makedirs(RUN_DIR, exist_ok=True)
        self.data_dir = tempfile.mkdtemp(dir=RUN_DIR)
        self.child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"), self.data_dir,
             "1" if self.tracer else "0",
             json.dumps(self.workload.server_options),
             *self.workload.cartridges],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=HERE)
        pin(self.child.pid)
        self.conn = dbapi.connect(self._read()["url"],
                                  timeout=STATEMENT_TIMEOUT)

    def _read(self):
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("server child exited without a reply")
        return json.loads(line)

    def _command(self, word):
        self.child.stdin.write(word + "\n")
        self.child.stdin.flush()
        return self._read()

    def tell_tracer(self, word):
        """trace_on | spans_off | trace_off, to the child's tracer."""
        self._command(word)

    def stats(self):
        return self._command("stats")["engine"]

    def final(self):
        reply = self._command("stats")
        del reply["engine"]
        return reply

    def close(self, kill=False):
        """``kill``: SIGKILL, as a crash; else a graceful shutdown."""
        child = self.child
        if child is None:
            return
        try:
            if kill:
                child.kill()
            if self.conn is not None:
                self.conn.close()
            if not kill:
                self._command("quit")
        finally:
            self.child = None
            child.stdin.close()
            child.wait()
            child.stdout.close()


def pin(pid):
    """Keep process ``pid`` (0: this one) on the last CPU this process was
    started with.

    Wire workloads only, client and server child alike.  The two take turns
    (one client, closed loop), so together they need one core, and the
    scheduler is free to run them on one or on two and changes its mind:
    unpinned, oltp_wire's throughput was 221 or 320 statements/s from one
    run to the next.  On one shared CPU a request wakes the server where the
    client has just gone to sleep (368 statements/s against 325 with the two
    on different CPUs, where every wake-up crosses cores), and whatever else
    runs on the box has the other CPUs to itself.  An in-process workload is
    left to the scheduler: pinned it is steadier on a quiet box (0.8%
    against 3%) but cannot move away when something else wants its CPU
    (whole runs at half speed were seen).
    """
    os.sched_setaffinity(pid, {CPUS[-1]})


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: what ``spin`` returns on the box this was written on, on an average
#: afternoon
REFERENCE_SPIN_S = 0.0057


def spin():
    """Seconds a fixed piece of interpreter work takes right now: the
    machine's speed, measured off the clock around every round and set-up.

    This box is a few cores of a shared host, and how fast it runs depends
    on the hour: the same relational_scan ran 25, 36 and 52 statements/s in
    one afternoon, minutes apart at the worst, and every other workload
    moved with it.  The loop below moves with them too (between two hours
    an earlier, longer variant went from 11.3 to 9.2 ms while a
    relational_scan round went from 0.70 to 0.57 s: their ratio stayed
    within 5%; README, steadiness).  So every time the benchmark reports is
    divided by ``spin() / REFERENCE_SPIN_S``
    as it was around the rounds measured: it is the time at the reference
    speed, and two runs an hour apart can be compared.  The results file
    keeps the factor (``slowdown``) and the rounds' raw seconds.

    The loop does what the engine does all day — dictionary stores, small
    integers, short-lived strings — in the process that waits for the
    statements, on the CPU it is on.  It allocates nothing the cyclic
    collector tracks, so it does not move the engine's collections.
    """
    samples = []
    for _ in range(3):
        start = now()
        table = {}
        for i in range(40000):
            table[i % 5000] = str(i)
        samples.append(now() - start)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# executing statements
# ----------------------------------------------------------------------

def execute_op(conn, cur, op):
    """Run one statement; (seconds, first-row seconds, rows, result)."""
    start = now()
    first = rows = None
    if op.mode == "first":
        with conn.cursor() as one:
            one.execute(op.sql, op.params)
            row = one.fetchone()
            first = now() - start
        n = 1 if row is not None else 0
    elif op.mode == "all":
        cur.execute(op.sql, op.params)
        rows = cur.fetchall()
        n = len(rows)
    elif op.mode == "stream":
        cur.arraysize = op.arg
        cur.execute(op.sql, op.params)
        rows = []
        while True:
            batch = cur.fetchmany()
            if not batch:
                break
            rows.extend(batch)
        n = len(rows)
    elif op.mode == "many":
        cur.executemany(op.sql, op.params)
        n = cur.rowcount
    else:
        cur.execute(op.sql, op.params)
        n = max(cur.rowcount, 0)
    if op.commit:
        conn.commit()
    return now() - start, first, n, rows


#: one round of a pass.  ``tail_ms``: mean latency of its slowest tenth;
#: ``spin_s``: mean of ``spin()`` before and after it
Round = namedtuple("Round", "seconds statements rows phase tail_ms k spin_s")


class Pass:
    """Runs rounds against a host and keeps what the metrics need."""

    def __init__(self, workload, host, tracer):
        self.workload = workload
        self.conn = host.conn
        self.cur = host.conn.cursor()
        self.tracer = tracer or Tracer()      # an unused tracer stays off
        self.ordinal = 0
        self.attempted = self.failed = self.checked = self.mismatches = 0
        # (class, mode, seconds, first-row seconds, round)
        self.records = []
        self.rounds = []      # Round, warm-up rounds excepted
        self.commits = self.user_bytes = self.rows_returned = 0
        self.errors = []
        self.deferred = []    # (op, sorted rows) awaiting the recompute

    def run_round(self, k, phase):
        """One round.  ``phase``: warmup (nothing kept), untraced (only the
        round's time, for the tracing overhead) or timed."""
        ops = self.workload.round_ops(k)
        outcome = []
        spin_s = spin()
        start = now()
        for op in ops:
            self.ordinal += 1
            try:
                with self.tracer.statement(self.ordinal):
                    seconds, first, n, rows = execute_op(
                        self.conn, self.cur, op)
            except dbapi.Error as exc:
                self.errors.append(f"{op.cls}: {type(exc).__name__}: {exc}")
                seconds = None
            if seconds is None or seconds > STATEMENT_TIMEOUT:
                outcome.append((op, None, None, 0, None))
            else:
                outcome.append((op, seconds, first, n,
                                rows if op.check else None))
        elapsed = now() - start
        # off the clock: the machine's speed, oracle checks and bookkeeping
        spin_s = (spin_s + spin()) / 2
        self.attempted += len(ops)
        rows_moved = 0
        slowest = sorted(o[1] for o in outcome if o[1] is not None)
        slowest = slowest[-max(1, len(ops) // 10):]
        for op, seconds, first, n, rows in outcome:
            if seconds is None:
                self.failed += 1
                continue
            rows_moved += n
            self._check(op, n, rows)
            if phase != "timed":
                continue
            self.records.append((op.cls, op.mode, seconds, first, k))
            if op.mode in READ_MODES:
                self.rows_returned += n
            elif op.commit:
                self.commits += 1
                self.user_bytes += user_bytes(op.params)
        if phase != "warmup":
            self.rounds.append(Round(
                elapsed, len(ops), rows_moved, phase,
                1000.0 * sum(slowest) / max(1, len(slowest)), k, spin_s))

    def _check(self, op, n, rows):
        if op.check is None:
            return
        kind, expected = op.check
        self.checked += 1
        if kind == "rowcount":
            self.mismatches += n != expected
        elif kind == "rows":
            self.mismatches += sorted(rows) != expected
        else:
            self.deferred.append((op, sorted(rows)))


# ----------------------------------------------------------------------
# one workload, one process
# ----------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, quick, fixed_rounds):
    if quick:
        fixed_rounds = fixed_rounds or 1
    workload = WORKLOADS[name](seed, QUICK_SCALE if quick else 1.0)
    tracer = Tracer() if trace else None
    host_class = WireHost if workload.wire else InProcessHost
    setup_seconds = []
    host = None
    if workload.wire:
        pin(0)
    try:
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            host = host_class(workload, tracer if last else None)
            if last and tracer:
                tracer.install_client()
            spin_s = spin()
            start = now()
            host.open()
            workload.setup(host.conn)
            seconds_taken = now() - start
            setup_seconds.append(
                seconds_taken / ((spin_s + spin()) / 2 / REFERENCE_SPIN_S))
            if not last:
                host.close()
        run, ctx = measure(workload, host, tracer, seconds, fixed_rounds)
    finally:
        if host is not None:
            host.close(kill=True)    # does nothing after a clean close
        if tracer:
            tracer.uninstall()
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    timed = [r for r in run.rounds if r.phase == "timed"]
    quiet = quiet_rounds(timed)
    slowdown = slowdown_of(quiet)
    kept = {r.k for r in quiet}
    records = [(cls, mode, seconds / slowdown, first and first / slowdown)
               for cls, mode, seconds, first, k in run.records if k in kept]
    by_class = {}
    for cls, _, seconds, _ in records:
        by_class.setdefault(cls, []).append(seconds * 1000.0)
    round_s = statistics.median(r.seconds for r in quiet) / slowdown
    end_to_end = {
        "setup_s": statistics.median(setup_seconds),
        "throughput_ops_s": timed[0].statements / round_s,
        "class_p50_ms": sum(len(values) * statistics.median(values)
                            for values in by_class.values())
        / len(records),
        "tail10_ms": statistics.median(r.tail_ms for r in quiet) / slowdown,
        "rows_per_s": statistics.fmean(r.rows for r in quiet) / round_s,
        "peak_rss_mb": ctx["final"]["rss_mb"],
    }
    lost = ctx["lost_acked_writes"]
    failed = run.failed + run.mismatches + lost
    detail = detail_metrics(run, records, by_class, ctx, lost)
    report = {
        "workload": name, "why": workload.why, "seed": seed,
        "sizes": workload.sizes(),
        "statements_per_round": timed[0].statements,
        "quick": quick, "traced": bool(trace), "rounds": len(timed),
        "quiet_rounds": len(quiet), "slowdown": slowdown,
        "round_seconds": [r.seconds for r in timed],
        "round_spin_seconds": [r.spin_s for r in timed],
        "setup_seconds": setup_seconds, "attempted": run.attempted,
        "failed": failed,
        "oracle_checks": run.checked + ctx["verify_checks"],
        "errors": run.errors[:20],
        "end_to_end": end_to_end, "detail": detail,
    }
    if trace:
        reported = layer_metrics(run, ctx, timed)
        units = {row["name"]: row["unit"] for row in metrics.PER_LAYER}
        write_json(f"{name}.trace.json",
                   dict(report, per_layer=reported, budget=ctx["budget"],
                        spans=ctx["spans"]))
    else:
        reported = end_to_end
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        write_json(f"{name}.json", report)
    print(f"# {name}  seed={seed}  rounds={len(timed)}  "
          f"quiet={len(quiet)}  slowdown={slowdown:.3f}  "
          f"statements={len(records)}  checks={report['oracle_checks']}")
    for key, value in {**reported, **detail}.items():
        print(f"{key:48s} {value:14.6g} {units.get(key, '')}")
    return {"correct": failed == 0, "attempted": run.attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in reported.items()}}


def quiet_rounds(timed):
    """The faster half of the timed rounds: what the timings are made from.

    A round is a fixed amount of work, so when one round takes longer than
    another the machine differed, not the work.  This box is a few cores of
    a shared host: for seconds at a time something else has the processor
    and a round takes 1.3 to 1.7 times as long (in one run of 14 rounds the
    fastest took 0.58 s, the median 0.77 s; the runs before and after had
    medians of 0.59 s and 0.60 s).  A median over all rounds holds while
    fewer than half are disturbed; the faster half holds until nearly all
    are, and is what the program costs when it has the machine.  Work that
    recurs less often than every other round (a checkpoint) is therefore in
    the per-layer metrics and in ``round_seconds``, not in these.
    """
    ordered = sorted(timed, key=lambda r: r.seconds)
    return ordered[:max(1, (len(ordered) + 1) // 2)]


def slowdown_of(rounds):
    """How many times slower than the reference the machine was around
    these rounds (see ``spin``)."""
    return statistics.median(r.spin_s for r in rounds) / REFERENCE_SPIN_S


def measure(workload, host, tracer, seconds, fixed_rounds):
    """Warm-up, timed rounds, oracle, shutdown (or crash and reopen).

    Closes the host.  With a tracer, the first third of the time runs with
    the wrappers passing through and the rest with spans on: the ratio of
    the two round times is the tracing overhead.
    """
    run = Pass(workload, host, tracer)
    run.run_round(0, "warmup")
    k = 0
    start = now()

    def rounds_until(first, share):
        nonlocal k
        phase = "untraced" if tracer and not tracer.on else "timed"
        while True:
            k += 1
            run.run_round(k, phase)
            if tracer and tracer.keep_spans:
                tracer.keep_spans = False      # one round's spans are kept
                host.tell_tracer("spans_off")
            if (k - first >= fixed_rounds if fixed_rounds
                    else now() - start >= seconds * share):
                return

    if tracer:
        rounds_until(0, 1 / 3)
        host.tell_tracer("trace_on")
        tracer.on = tracer.keep_spans = True
    before = host.stats()
    rounds_until(k, 1)
    # the timed rounds' own seconds: not what goes on between two rounds
    wall = sum(r.seconds for r in run.rounds if r.phase == "timed")
    if tracer:
        tracer.on = False
        host.tell_tracer("trace_off")
    ctx = {"delta": enginestats.delta(host.stats(), before), "wall": wall,
           "restart_s": 0.0, "lost_acked_writes": 0}
    ctx["verify_checks"], mismatches = workload.verify(
        host.conn.cursor(), run.deferred)
    run.mismatches += mismatches
    ctx["final"] = host.final()
    if workload.ends_with_crash:
        host.close(kill=True)
        ctx["restart_s"], ctx["lost_acked_writes"] = reopen(
            host.data_dir, workload)
    else:
        host.close()
    if tracer:
        merge_trace(ctx, tracer)
    return run, ctx


def reopen(data_dir, workload):
    """Restart recovery after the SIGKILL: (seconds, lost acked writes)."""
    start = now()
    conn = dbapi.connect("file:" + data_dir)
    seconds = now() - start
    try:
        return seconds, workload.lost_acked_writes(conn.cursor())
    finally:
        conn.close()
        conn.engine.close()


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def percentile(ordered, q):
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def highest_supported(ordered):
    """(label, value) of the highest percentile with >= 10 samples beyond."""
    for label, q in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90)):
        if len(ordered) * (1 - q) >= 10:
            return label, percentile(ordered, q)
    return "p50", percentile(ordered, 0.50)


def detail_metrics(run, records, by_class, ctx, lost):
    """Ungated numbers: per-direction and per-class latencies (of the quiet
    rounds' statements, as the gated ones), failures."""
    out = {}
    groups = {"read": [], "write": [], "first_row": []}
    for _, mode, seconds, first in records:
        groups["read" if mode in READ_MODES else "write"].append(
            seconds * 1000.0)
        if first is not None:
            groups["first_row"].append(first * 1000.0)
    for group, values in groups.items():
        if not values:
            continue
        values.sort()
        out[f"{group}_p50_ms"] = percentile(values, 0.50)
        if group != "first_row":
            label, value = highest_supported(values)
            out[f"{group}_{label}_ms"] = value
        out[f"{group}_samples"] = len(values)
    for cls in sorted(by_class):
        out[f"class.{cls}.p50_ms"] = statistics.median(by_class[cls])
        out[f"class.{cls}.samples"] = len(by_class[cls])
    if run.workload.wire and run.user_bytes:
        out["wal_bytes_per_user_byte"] = (
            ctx["delta"]["wal_bytes_written"] / run.user_bytes)
    if ctx["restart_s"]:
        out["restart_s"] = ctx["restart_s"]
    out["error_rate"] = run.failed / max(1, run.attempted)
    out["result_mismatch"] = run.mismatches
    out["lost_acked_writes"] = lost
    return out


def merge_trace(ctx, tracer):
    """Join the client's and the server's spans and totals."""
    server = ctx["final"]
    totals = tracer.totals()
    handle = server["totals"].get("server.server.handle")
    if handle:
        # a round trip as the client saw it, minus the time the server
        # spent handling the request, is the wire's own time
        totals["server.protocol.frame"]["self_s"] -= handle["inclusive_s"]
    for name, agg in server["totals"].items():
        mine = totals.setdefault(
            name, {"self_s": 0.0, "inclusive_s": 0.0, "count": 0})
        for key in agg:
            mine[key] += agg[key]
    spans = tracer.spans_for_dump()
    statements = sorted((s["start"], s["stmt"]) for s in spans
                        if s["name"] == "bench.statement")
    starts = [start for start, _ in statements]
    for span in server["spans"]:
        # both processes read the same monotonic clock, and one client
        # has one statement open at a time
        i = bisect.bisect_right(starts, span["start"]) - 1
        span["stmt"] = statements[i][1] if i >= 0 else -1
        if span["parent"] >= 0:
            span["parent"] += len(spans)
    ctx["totals"] = totals
    ctx["spans"] = spans + server["spans"]
    ctx["budget"] = {
        "wall_s": ctx["wall"],
        "named_self_s": sum(agg["self_s"] for name, agg in totals.items()
                            if name != "bench.statement"),
        "self_s_by_span": {name: agg["self_s"]
                           for name, agg in sorted(totals.items())}}


def layer_metrics(run, ctx, timed):
    """Every per-layer metric, per round (see metrics.py); the times at the
    reference speed, as the end-to-end ones."""
    totals, delta = ctx["totals"], ctx["delta"]
    rounds = len(timed)
    rows_moved = sum(r.rows for r in timed)

    def span(name, key="self_s"):
        return totals.get(name, {}).get(key, 0) / rounds

    def count(key):
        return delta.get(key, 0) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "server.protocol.frame_s": span("server.protocol.frame"),
        "server.protocol.frames": span("server.protocol.frame", "count"),
        "server.protocol.bytes": count("server_bytes"),
        "server.protocol.bytes_per_row": ratio(
            delta["server_bytes"], rows_moved),
        "server.server.handle_s": span("server.server.handle"),
        "dbapi.client_s": span("dbapi.client"),
    }
    for stage in ("parse", "bind", "plan", "execute"):
        out[f"sql.pipeline.{stage}_s"] = span("sql.pipeline." + stage)
    out.update({
        "sql.plan_cache.hit_ratio": ratio(delta["plan_hits"],
                                          delta["plan_lookups"]),
        "sql.plan_cache.lookups": count("plan_lookups"),
        "sql.executor.run_s": span("sql.executor.run"),
        "sql.executor.rows_examined_per_row": ratio(
            delta["resolve_calls"], run.rows_returned),
        "sql.columnar.vector_batches": count("vector_batches"),
        "sql.columnar.fallback_ratio": ratio(
            delta["fallback_batches"],
            delta["vector_batches"] + delta["fallback_batches"]),
        "sql.parallel.morsels": count("morsels"),
        "sql.parallel.prefetch_batches": count("prefetch_batches"),
        "sql.dml.maintenance_flush_s": span("sql.dml.maintenance_flush",
                                            "inclusive_s"),
    })
    for routine in ODCI_ROUTINES:
        out[f"core.dispatch.{routine}_calls"] = count("odci_calls." + routine)
        out[f"core.dispatch.{routine}_s"] = count("odci_s." + routine)
    out["core.dispatch.overhead_s"] = sum(
        agg["self_s"] for name, agg in totals.items()
        if name.startswith("core.dispatch.")) / rounds
    out.update({
        "core.callbacks.sql_calls": span("core.callbacks.sql", "count"),
        "core.callbacks.sql_s": span("core.callbacks.sql")
        + span("core.callbacks.sql_fetch"),
        "core.callbacks.fetch_row_calls": span("core.callbacks.fetch_row",
                                               "count"),
        "core.callbacks.fetch_row_s": span("core.callbacks.fetch_row"),
    })
    for cartridge in ("text", "spatial", "vir", "chemistry"):
        out[f"cartridges.{cartridge}.self_s"] = span(
            "cartridges." + cartridge)
    out.update({
        "storage.buffer.logical_reads": count("logical_reads"),
        "storage.buffer.logical_writes": count("logical_writes"),
        "storage.buffer.reads_per_row": ratio(delta["logical_reads"],
                                              rows_moved),
        "storage.wal.commit_s": span("storage.wal.commit"),
        "storage.wal.fsyncs": count("wal_fsyncs"),
        "storage.wal.fsyncs_per_commit": ratio(delta["wal_fsyncs"],
                                               run.commits),
        "storage.wal.commit_records_per_client_commit": ratio(
            delta["wal_commit_records"], run.commits),
        "storage.wal.bytes_written": count("wal_bytes_written"),
        "storage.wal.bytes_per_user_byte": ratio(
            delta["wal_bytes_written"], run.user_bytes),
        "storage.wal.group_batch_mean": ratio(delta["wal_group_commits"],
                                              delta["wal_group_batches"]),
        "storage.durability.checkpoints": count("wal_checkpoints"),
        "storage.durability.checkpoint_s": span(
            "storage.durability.checkpoint"),
        "txn.mvcc.snapshots": count("snapshots"),
        "txn.mvcc.resolve_calls": count("resolve_calls"),
        "txn.mvcc.chain_len_mean": ctx["final"]["chain_len_mean"],
        "txn.mvcc.versions_pruned": count("versions_pruned"),
        "txn.locks.waits": count("lock_waits"),
        "txn.locks.wait_s": count("lock_wait_s"),
        "txn.recovery.restart_s": ctx["restart_s"],
        "trace.overhead_ratio": ratio(
            statistics.median(r.seconds for r in timed),
            statistics.median(r.seconds for r in run.rounds
                              if r.phase == "untraced")),
        "trace.unattributed_share": 1.0 - ratio(
            ctx["budget"]["named_self_s"], ctx["wall"]),
    })
    slowdown = slowdown_of(timed)
    return {name: value / slowdown if name.endswith("_s") else value
            for name, value in out.items()}


def write_json(filename, obj):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, filename), "w") as out:
        json.dump(obj, out, indent=1)


# ----------------------------------------------------------------------
# every workload; self check
# ----------------------------------------------------------------------

def child_run(workload, args, trace, rounds=0):
    """One workload in its own process; its parsed last line."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    if rounds:
        command += ["--rounds", str(rounds)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if done.returncode:
        raise SystemExit(f"{workload}: exit code {done.returncode}")
    return json.loads(lines[-1])


def run_all(args):
    ok = True
    for workload in WORKLOADS:
        for trace in ([0, 1] if args.trace else [0]):
            result = child_run(workload, args, trace, args.rounds)
            print(json.dumps(result))
            ok = ok and result["correct"]
    return 0 if ok else 1


#: per-layer counts that must repeat exactly when the same rounds run twice
#: (not ODCIIndexFetch: how far the asynchronous prefetch runs ahead of a
#: scan that closes early depends on timing)
EXACT = tuple(
    row["name"] for row in metrics.PER_LAYER
    if row["name"].endswith("_calls")
    and row["name"] != "core.dispatch.ODCIIndexFetch_calls"
    or row["name"] in ("server.protocol.frames", "sql.plan_cache.lookups",
                       "storage.buffer.logical_writes",
                       "storage.wal.commit_records_per_client_commit"))
SELFCHECK_ROUNDS = 3


def selfcheck(args):
    bad = []
    for workload in WORKLOADS:
        first, second = (child_run(workload, args, 0) for _ in range(2))
        for name, _, _, bound in metrics.END_TO_END:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            diff = abs(a - b) / a
            verdict = "ok" if diff <= bound else "OUTSIDE BOUND"
            print(f"{workload:16s} {name:20s} {a:12.5g} {b:12.5g} "
                  f"{diff:7.2%}  bound {bound:.0%}  {verdict}")
            if diff > bound:
                bad.append((workload, name))
        if not (first["correct"] and second["correct"]):
            bad.append((workload, "correct"))
        first, second = (child_run(workload, args, 1, SELFCHECK_ROUNDS)
                         for _ in range(2))
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                print(f"{workload:16s} {name:48s} {a:12.6g} {b:12.6g} "
                      "COUNT DIFFERS")
                bad.append((workload, name))
    print("selfcheck:", "FAILED " + repr(bad) if bad else "passed")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many timed rounds")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          args.trace, args.quick, args.rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
