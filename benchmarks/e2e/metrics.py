"""The metric catalogue: names, units, directions, bounds, interactions.

``BENCHMARK.json`` at the repository root lists the same names (the schema
test keeps the two in step); this file adds what that format has no room
for: which end-to-end metric each per-layer metric should move and on which
workload, and how each number is obtained.

Every per-layer count and time is **per round** — a round is the workload's
fixed, seeded list of statements (see workloads.py) — so a value compares
between two runs that completed different numbers of rounds.  The times are
at the reference speed, as the end-to-end ones.
"""

from trace import ODCI_ROUTINES

RUN_SECONDS = 15

P50, TAIL = "class_p50_ms", "tail10_ms"

#: (name, unit, better, bound).  Each is reported by every workload and is
#: never 0.  A latency is one client statement's: execute, fetch of all rows
#: and, for a write, the commit acknowledgement.
#:
#: The timings are made from the quiet rounds, the faster half of the timed
#: ones (``run.quiet_rounds`` says why), and stated at the machine's
#: reference speed: divided by how much slower than the reference the
#: machine was around those rounds (``run.spin``).  ``class_p50_ms`` is the median
#: latency of each statement class, averaged with the class's share of the
#: statements; ``tail10_ms`` is the mean latency of the slowest tenth of a
#: round's statements, as the median over those rounds.  Plain percentiles of the pooled latencies are not used: the
#: classes of one workload differ by orders of magnitude, so a pooled p50 or
#: p95 sits on the border between two classes and jumps from one to the
#: other with the seed (measured: 51% spread on relational_scan).
#: ``throughput_ops_s`` is a round's statements over the median time of a
#: quiet round; ``rows_per_s`` the mean rows per round (returned to the client
#: or changed by its DML) over the same time.
#:
#: The timing bounds are the largest the driver allows: the box this was
#: written on changes its speed by up to a factor of two with the hour, and
#: ``run.spin`` follows that to within a few per cent, not exactly (README,
#: steadiness).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    (P50, "ms", "lower", 0.25),
    (TAIL, "ms", "lower", 0.25),
    ("rows_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

DOMAIN = "domain_read, domain_write"
WIRE = "oltp_wire, mixed_wire"
SCAN = "relational_scan"


def _per_layer():
    rows = []

    def add(name, unit, better, moves, on, how):
        rows.append({"name": name, "unit": unit, "better": better,
                     "moves": moves, "on": on, "how": how})

    add("server.protocol.frame_s", "s", "lower", P50 + ", rows_per_s",
        "oltp_wire", "client send_frame/recv_frame spans minus the server's "
        "handle spans")
    add("server.protocol.frames", "count", "lower", P50, "oltp_wire",
        "client frame spans")
    add("server.protocol.bytes", "count", "lower", "rows_per_s", "oltp_wire",
        "server bytes_in + bytes_out")
    add("server.protocol.bytes_per_row", "count", "lower", "rows_per_s",
        "oltp_wire", "server bytes / rows moved")
    add("server.server.handle_s", "s", "lower", "throughput_ops_s", WIRE,
        "self time between recv_frame and send_frame on the connection's "
        "thread")
    add("dbapi.client_s", "s", "lower", P50, "oltp_wire",
        "self time of Cursor.execute/fetch*/close and commit")
    for stage in ("parse", "bind", "plan", "execute"):
        add(f"sql.pipeline.{stage}_s", "s", "lower", P50, WIRE,
            f"self time of StatementPipeline.{stage} on the session")
    add("sql.plan_cache.hit_ratio", "ratio", "higher", P50, "oltp_wire",
        "plan_cache.stats hits / lookups")
    add("sql.plan_cache.lookups", "count", "lower", P50, "oltp_wire",
        "plan_cache.stats")
    add("sql.executor.run_s", "s", "lower", "rows_per_s, " + TAIL, SCAN,
        "self time of statement-cursor fetches")
    add("sql.executor.rows_examined_per_row", "ratio", "lower", "rows_per_s",
        SCAN, "snapshot row resolutions / rows returned")
    add("sql.columnar.vector_batches", "count", "higher", "rows_per_s", SCAN,
        "executor_stats")
    add("sql.columnar.fallback_ratio", "ratio", "lower", "rows_per_s", SCAN,
        "fallback batches / all vector batches")
    add("sql.parallel.morsels", "count", "lower", "rows_per_s", SCAN,
        "parallel_stats")
    add("sql.parallel.prefetch_batches", "count", "lower", P50,
        "domain_read", "parallel_stats")
    add("sql.dml.maintenance_flush_s", "s", "lower", P50,
        "domain_write, mixed_wire", "inclusive time of dispatcher.call_batch")
    for routine in ODCI_ROUTINES:
        scan = not routine.endswith(("Batch", "Create"))
        moves = P50 if scan else P50 + ", setup_s"
        on = "domain_read" if scan else "domain_write"
        add(f"core.dispatch.{routine}_calls", "count", "lower", moves, on,
            "dispatcher.snapshot() invocations")
        add(f"core.dispatch.{routine}_s", "s", "lower", moves, on,
            "dispatcher.snapshot() inclusive seconds")
    add("core.dispatch.overhead_s", "s", "lower", P50, DOMAIN,
        "self time of dispatcher.call around the routine")
    add("core.callbacks.sql_calls", "count", "lower", P50, DOMAIN,
        "CallbackSession SQL entry points")
    add("core.callbacks.sql_s", "s", "lower", P50, DOMAIN,
        "callback SQL and cursor drains inside a routine")
    add("core.callbacks.fetch_row_calls", "count", "lower", P50, DOMAIN,
        "CallbackSession.fetch_row/fetch_value")
    add("core.callbacks.fetch_row_s", "s", "lower", P50, DOMAIN,
        "CallbackSession.fetch_row/fetch_value")
    for cartridge in ("text", "spatial", "vir", "chemistry"):
        add(f"cartridges.{cartridge}.self_s", "s", "lower", P50, DOMAIN,
            "routine span minus its callback spans")
    add("storage.buffer.logical_reads", "count", "lower",
        "rows_per_s, " + P50, "all", "engine.stats")
    add("storage.buffer.logical_writes", "count", "lower", P50,
        "domain_write, " + WIRE, "engine.stats")
    add("storage.buffer.reads_per_row", "ratio", "lower", "rows_per_s",
        "all", "logical reads / rows moved")
    add("storage.wal.commit_s", "s", "lower", P50 + ", " + TAIL, WIRE,
        "self time of DurabilityManager.commit")
    add("storage.wal.fsyncs", "count", "lower", P50, WIRE, "wal_stats")
    add("storage.wal.fsyncs_per_commit", "ratio", "lower", P50, WIRE,
        "fsyncs / client commits")
    add("storage.wal.commit_records_per_client_commit", "ratio", "lower",
        P50, WIRE, "commit records / client commits")
    add("storage.wal.bytes_written", "count", "lower", P50, WIRE,
        "wal_stats")
    add("storage.wal.bytes_per_user_byte", "ratio", "lower", P50, WIRE,
        "WAL bytes / bytes of bound values in acknowledged DML")
    add("storage.wal.group_batch_mean", "ratio", "higher",
        "throughput_ops_s", "oltp_wire", "group commits / group batches")
    add("storage.durability.checkpoints", "count", "lower", TAIL, WIRE,
        "wal_stats")
    add("storage.durability.checkpoint_s", "s", "lower", TAIL, WIRE,
        "self time of DurabilityManager.checkpoint")
    add("txn.mvcc.snapshots", "count", "lower", P50, WIRE, "mvcc.stats")
    add("txn.mvcc.resolve_calls", "count", "lower", "rows_per_s", SCAN,
        "calls of VersionStore.resolve")
    add("txn.mvcc.chain_len_mean", "ratio", "lower", P50, "mixed_wire",
        "mean chain length of rows with a chain, at the end of the pass")
    add("txn.mvcc.versions_pruned", "count", "higher", P50, "mixed_wire",
        "mvcc.stats")
    add("txn.locks.waits", "count", "lower", TAIL, WIRE, "locks.stats")
    add("txn.locks.wait_s", "s", "lower", TAIL, WIRE, "locks.stats")
    add("txn.recovery.restart_s", "s", "lower", "setup_s", "oltp_wire",
        "time to reopen the data directory after SIGKILL; once per run, "
        "not per round")
    add("trace.overhead_ratio", "ratio", "lower", "-", "all",
        "median traced round time / median untraced round time")
    add("trace.unattributed_share", "ratio", "lower", "-", "all",
        "1 - sum of named self time / wall clock")
    return tuple(rows)


PER_LAYER = _per_layer()
