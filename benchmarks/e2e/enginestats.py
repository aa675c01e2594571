"""Counters read from a live engine, flattened so two snapshots subtract.

Runs in whichever process owns the engine: the benchmark process for the
in-process workloads, the server child for the wire workloads.
"""

import importlib


def install_cartridges(session, names):
    for name in names:
        importlib.import_module("repro.cartridges." + name).install(session)


def snapshot(engine, tracer=None):
    io = engine.stats.snapshot()
    plan_cache = engine.plan_cache.stats
    executor = engine.executor_stats.snapshot()
    parallel = engine.parallel_stats.snapshot()
    locks = engine.locks.stats.snapshot()
    mvcc = engine.mvcc.stats.snapshot()
    out = {
        "logical_reads": io["logical_reads"],
        "logical_writes": io["logical_writes"],
        "plan_lookups": plan_cache.lookups,
        "plan_hits": plan_cache.hits,
        "vector_batches": executor["vector_batches"],
        "fallback_batches": executor["fallback_batches"],
        "morsels": parallel["morsels_dispatched"],
        "prefetch_batches": parallel["prefetch_batches"],
        "lock_waits": locks["waits"],
        "lock_wait_s": locks["wait_seconds"],
        "snapshots": mvcc["snapshots_taken"],
        "versions_pruned": mvcc["versions_pruned"],
        "resolve_calls": tracer.resolve_calls if tracer else 0,
    }
    wal = engine.durability.wal_stats() if engine.durability else {}
    for key in ("bytes_written", "fsyncs", "commit_records", "group_batches",
                "group_commits", "checkpoints"):
        out["wal_" + key] = wal.get(key, 0)
    server = engine.server_stats
    out["server_bytes"] = (server.bytes_in + server.bytes_out) if server else 0
    for routine, metrics in engine.dispatcher.snapshot().items():
        out["odci_calls." + routine] = metrics["invocations"]
        out["odci_s." + routine] = metrics["total_seconds"]
    return out


def delta(after, before):
    return {key: value - before.get(key, 0) for key, value in after.items()}


def chain_len_mean(engine):
    """Mean version-chain length over rows that have a chain."""
    lengths = []
    for table in list(engine.catalog.tables.values()):
        versions = getattr(table.storage, "versions", None)
        if versions is not None:
            lengths.extend(versions.chain_length(rowid)
                           for rowid in versions.tracked_rowids())
    return sum(lengths) / len(lengths) if lengths else 0.0
