"""Data-dictionary views: USER_TABLES, USER_INDEXES, USER_OPERATORS,
USER_INDEXTYPES.

§2.4.1: "When a domain index is created, the Oracle8i server creates the
data dictionary entries pertaining to the domain index".  These views
expose those entries (and the rest of the catalog) to ordinary SELECTs.
Each view is synthesized on access as a read-only snapshot.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import StorageError
from repro.sql.catalog import Catalog, ColumnInfo, TableDef
from repro.storage.heap import RowId
from repro.types.datatypes import BOOLEAN, INTEGER, NUMBER, VARCHAR2

#: segment ids for view snapshots, far away from real segments; one
#: process-wide counter because sessions of every engine build views
#: concurrently and ``fetch_or_none`` tells snapshots apart by id
_SEGMENT_IDS = itertools.count(1_000_000)


class _SnapshotStorage:
    """Read-only row storage backing one dictionary view snapshot."""

    def __init__(self, rows: List[List[Any]]):
        self._rows = rows
        self.segment_id = next(_SEGMENT_IDS)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def page_count(self) -> int:
        return max(1, len(self._rows) // 50)

    def scan(self) -> Iterator[Tuple[RowId, List[Any]]]:
        for slot, row in enumerate(self._rows):
            yield RowId(self.segment_id, 0, slot), row

    def fetch_or_none(self, rowid: RowId) -> Optional[List[Any]]:
        if rowid.segment_id != self.segment_id:
            return None
        if 0 <= rowid.slot < len(self._rows):
            return self._rows[rowid.slot]
        return None

    def _read_only(self, *args: Any, **kwargs: Any):
        raise StorageError("data dictionary views are read-only")

    insert = update = delete = truncate = undelete = _read_only


def dictionary_view(catalog: Catalog, name: str,
                    engine: Any = None) -> Optional[TableDef]:
    """Build the named dictionary view, or None for unknown names."""
    entry = _VIEWS.get(name.lower())
    if entry is None:
        return None
    builder, engine_backed = entry
    if not engine_backed:
        return builder(catalog)
    return builder(engine) if engine is not None else None


def _view(name: str, columns: List[Tuple[str, Any]],
          rows: List[List[Any]]) -> TableDef:
    return TableDef(
        name=name,
        columns=[ColumnInfo(cname, dtype) for cname, dtype in columns],
        storage=_SnapshotStorage(rows))


def _user_tables(catalog: Catalog) -> TableDef:
    rows = [[t.name, t.owner, t.storage.row_count, t.is_iot,
             len(t.columns)]
            for t in sorted(catalog.tables.values(), key=lambda t: t.key)]
    return _view("user_tables",
                 [("table_name", VARCHAR2), ("owner", VARCHAR2),
                  ("num_rows", INTEGER), ("iot", BOOLEAN),
                  ("column_count", INTEGER)],
                 rows)


def _user_indexes(catalog: Catalog) -> TableDef:
    rows = []
    for index in sorted(catalog.indexes.values(), key=lambda i: i.key):
        indextype = parameters = None
        if index.is_domain and index.domain is not None:
            indextype = index.domain.indextype_name
            parameters = index.domain.parameters
        rows.append([index.name, index.table_name,
                     ",".join(index.column_names), index.kind.upper(),
                     index.unique, indextype, parameters])
    return _view("user_indexes",
                 [("index_name", VARCHAR2), ("table_name", VARCHAR2),
                  ("columns", VARCHAR2), ("index_type", VARCHAR2),
                  ("uniqueness", BOOLEAN), ("domain_indextype", VARCHAR2),
                  ("parameters", VARCHAR2)],
                 rows)


def _user_operators(catalog: Catalog) -> TableDef:
    rows = []
    for operator in sorted(catalog.operators.values(),
                           key=lambda o: o.key):
        bindings = "; ".join(b.signature() for b in operator.bindings)
        rows.append([operator.name, len(operator.bindings), bindings,
                     operator.ancillary_to])
    return _view("user_operators",
                 [("operator_name", VARCHAR2), ("binding_count", INTEGER),
                  ("bindings", VARCHAR2), ("ancillary_to", VARCHAR2)],
                 rows)


def _user_index_maintenance(engine: Any) -> TableDef:
    """Per-index array-maintenance counters from the shared dispatcher.

    One row per index that has received maintenance through the batch
    queue since engine start; ``histogram`` renders the batch-size
    distribution as ``bucket:count`` pairs.
    """
    rows = []
    for name, stats in sorted(engine.dispatcher.maintenance.items()):
        snap = stats.snapshot()
        histogram = " ".join(
            f"{bucket}:{count}"
            for bucket, count in sorted(
                snap["histogram"].items(),
                key=lambda kv: int(kv[0].split("-")[0].rstrip("+"))))
        rows.append([name, snap["entries_queued"], snap["entries_flushed"],
                     snap["batches_flushed"], snap["native_batches"],
                     snap["shim_batches"], snap["max_batch"], histogram])
    return _view("user_index_maintenance",
                 [("index_name", VARCHAR2), ("entries_queued", INTEGER),
                  ("entries_flushed", INTEGER), ("batches_flushed", INTEGER),
                  ("native_batches", INTEGER), ("shim_batches", INTEGER),
                  ("max_batch", INTEGER), ("histogram", VARCHAR2)],
                 rows)


def _histogram_text(histogram: Any) -> str:
    """Render a bucket→count mapping as space-separated ``bucket:count``
    pairs in the histogram's own (insertion) order."""
    return " ".join(f"{bucket}:{count}"
                    for bucket, count in histogram.items())


def _user_lock_stats(engine: Any) -> TableDef:
    """One-row view over the engine's :class:`~repro.txn.locks.LockStats`.

    ``wait_histogram`` renders the wait-time distribution as
    ``bucket:count`` pairs.  MVCC acceptance check: a pure-reader
    workload leaves ``waits`` (and ``deadlocks``) untouched.
    """
    snap = engine.locks.stats.snapshot()
    rows = [[snap["acquisitions"], snap["waits"], snap["wait_seconds"],
             snap["timeouts"], snap["deadlocks"],
             _histogram_text(snap["histogram"])]]
    return _view("user_lock_stats",
                 [("acquisitions", INTEGER), ("waits", INTEGER),
                  ("wait_seconds", NUMBER), ("timeouts", INTEGER),
                  ("deadlocks", INTEGER), ("wait_histogram", VARCHAR2)],
                 rows)


def _user_snapshot_stats(engine: Any) -> TableDef:
    """One-row view over the MVCC manager's counters.

    ``chain_histogram`` is the length distribution of the version
    chains each prune pass walked (a settled row has no chain and is
    not in it); ``heads_tracked`` is a gauge, the rowids mapped right
    now over every table's store; ``oldest_active_scn`` is NULL when no
    snapshot is live.
    """
    snap = engine.mvcc.stats.snapshot()
    with engine.catalog.latch:
        tables = list(engine.catalog.tables.values())
    heads_tracked = sum(
        len(table.storage.versions.tracked_rowids()) for table in tables
        if getattr(table.storage, "versions", None) is not None)
    rows = [[snap["snapshots_taken"], snap["statement_snapshots"],
             snap["transaction_snapshots"], snap["commits"],
             snap["versions_created"], snap["versions_stamped"],
             snap["versions_pruned"], snap["prune_passes"],
             snap["heads_forgotten"], snap["read_retries"], heads_tracked,
             _histogram_text(snap["chain_histogram"]),
             engine.mvcc.oldest_active_scn(),
             engine.mvcc.current_scn]]
    return _view("user_snapshot_stats",
                 [("snapshots_taken", INTEGER),
                  ("statement_snapshots", INTEGER),
                  ("transaction_snapshots", INTEGER),
                  ("commits", INTEGER), ("versions_created", INTEGER),
                  ("versions_stamped", INTEGER),
                  ("versions_pruned", INTEGER), ("prune_passes", INTEGER),
                  ("heads_forgotten", INTEGER), ("read_retries", INTEGER),
                  ("heads_tracked", INTEGER),
                  ("chain_histogram", VARCHAR2),
                  ("oldest_active_scn", INTEGER),
                  ("current_scn", INTEGER)],
                 rows)


def _user_wal_stats(engine: Any) -> TableDef:
    """One-row view over the durability manager's WAL counters.

    ``enabled`` is FALSE (with zeroed counters) when the engine runs
    without a ``data_dir``.  ``batch_histogram`` renders the
    group-commit batch-size distribution as ``bucket:count`` pairs;
    group commit's whole point is that ``fsyncs`` grows slower than
    ``commit_records`` under concurrency.
    """
    columns = [("enabled", BOOLEAN), ("records", INTEGER),
               ("bytes_written", INTEGER), ("fsyncs", INTEGER),
               ("commit_records", INTEGER), ("commit_waits", INTEGER),
               ("group_batches", INTEGER), ("group_commits", INTEGER),
               ("max_batch", INTEGER), ("batch_histogram", VARCHAR2),
               ("checkpoints", INTEGER), ("truncations", INTEGER),
               ("epoch", INTEGER), ("active_transactions", INTEGER),
               ("dirty_entries", INTEGER), ("failed", BOOLEAN)]
    if engine.durability is None:
        rows = [[False, 0, 0, 0, 0, 0, 0, 0, 0, "", 0, 0, 0, 0, 0, False]]
        return _view("user_wal_stats", columns, rows)
    snap = engine.durability.wal_stats()
    rows = [[True, snap["records"], snap["bytes_written"], snap["fsyncs"],
             snap["commit_records"], snap["commit_waits"],
             snap["group_batches"], snap["group_commits"],
             snap["max_batch"], _histogram_text(snap["batch_histogram"]),
             snap["checkpoints"], snap["truncations"], snap["epoch"],
             snap["active_transactions"], snap["dirty_entries"],
             snap["failed"]]]
    return _view("user_wal_stats", columns, rows)


def _user_recovery_stats(engine: Any) -> TableDef:
    """One-row view over the last restart-recovery pass.

    ``ran`` is FALSE when the engine started without durability (or a
    fresh data_dir with nothing to recover); ``clean`` is TRUE when the
    pass found a clean shutdown (zero redo, zero undo).
    """
    columns = [("ran", BOOLEAN), ("clean", BOOLEAN),
               ("log_records_scanned", INTEGER),
               ("redo_records", INTEGER), ("redo_skipped", INTEGER),
               ("undo_records", INTEGER), ("loser_transactions", INTEGER),
               ("committed_transactions", INTEGER),
               ("indexes_degraded", INTEGER), ("tables_restored", INTEGER),
               ("pages_restored", INTEGER), ("restored_scn", INTEGER),
               ("duration_seconds", NUMBER)]
    stats = engine.recovery_stats
    if stats is None:
        rows = [[False, True, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0]]
        return _view("user_recovery_stats", columns, rows)
    snap = stats.snapshot()
    rows = [[snap["ran"], snap["clean"], snap["log_records_scanned"],
             snap["redo_records"], snap["redo_skipped"],
             snap["undo_records"], snap["loser_transactions"],
             snap["committed_transactions"], snap["indexes_degraded"],
             snap["tables_restored"], snap["pages_restored"],
             snap["restored_scn"], snap["duration_seconds"]]]
    return _view("user_recovery_stats", columns, rows)


def _user_server_stats(engine: Any) -> TableDef:
    """One row per wire operation served by the network server.

    ``enabled`` is FALSE (single disabled row) when the engine is not
    being served.  Connection-level counters repeat on every row;
    ``latency_histogram`` renders the per-op distribution as
    ``bucket:count`` pairs (buckets are millisecond upper bounds).
    """
    columns = [("enabled", BOOLEAN), ("op", VARCHAR2),
               ("requests", INTEGER), ("latency_histogram", VARCHAR2),
               ("connections", INTEGER), ("rejected", INTEGER),
               ("active_sessions", INTEGER), ("sessions_peak", INTEGER),
               ("bytes_in", INTEGER), ("bytes_out", INTEGER),
               ("total_requests", INTEGER), ("errors", INTEGER),
               ("idle_timeouts", INTEGER)]
    stats = getattr(engine, "server_stats", None)
    if stats is None:
        return _view("user_server_stats", columns,
                     [[False, None, 0, "", 0, 0, 0, 0, 0, 0, 0, 0, 0]])
    snap = stats.snapshot()
    shared = [snap["connections_accepted"], snap["connections_rejected"],
              snap["active_sessions"], snap["sessions_peak"],
              snap["bytes_in"], snap["bytes_out"], snap["requests"],
              snap["errors"], snap["idle_timeouts"]]
    rows = [[True, op, count,
             _histogram_text(snap["op_latency"].get(op, {}))] + shared
            for op, count in sorted(snap["op_counts"].items())]
    if not rows:  # serving, but no request handled yet
        rows = [[True, None, 0, ""] + shared]
    return _view("user_server_stats", columns, rows)


def _user_executor_stats(engine: Any) -> TableDef:
    """One-row view over the engine's vectorized-executor counters.

    ``vector_batches`` / ``vector_rows`` count batches and selected
    rows produced by generated vector kernels; ``fallback_batches`` are
    batches re-run on the interpreter after a kernel raised
    mid-batch, and ``factory_declines`` are whole statements that fell
    back because the kernel factory declined the bind values.
    ``materialize_boundaries`` counts points where columnar batches
    were turned back into row tuples for a row-at-a-time consumer.
    ``batch_size_histogram`` is ``bucket:count`` pairs over the
    selected-row counts of vectorized batches.
    """
    snap = engine.executor_stats.snapshot()
    rows = [[snap["vector_batches"], snap["vector_rows"],
             snap["fallback_batches"], snap["factory_declines"],
             snap["materialize_boundaries"],
             _histogram_text(snap["batch_size_histogram"])]]
    return _view("user_executor_stats",
                 [("vector_batches", INTEGER),
                  ("vector_rows", INTEGER),
                  ("fallback_batches", INTEGER),
                  ("factory_declines", INTEGER),
                  ("materialize_boundaries", INTEGER),
                  ("batch_size_histogram", VARCHAR2)],
                 rows)


def _user_indextypes(catalog: Catalog) -> TableDef:
    rows = []
    for indextype in sorted(catalog.indextypes.values(),
                            key=lambda i: i.key):
        rows.append([indextype.name,
                     ",".join(indextype.supported_operator_names()),
                     indextype.implementation_name,
                     indextype.stats_name])
    return _view("user_indextypes",
                 [("indextype_name", VARCHAR2), ("operators", VARCHAR2),
                  ("implementation", VARCHAR2), ("statistics", VARCHAR2)],
                 rows)


#: every dictionary view: name -> (builder, engine-backed).  A catalog
#: view's builder takes the catalog; an engine-backed one takes the
#: engine and does not exist without one.
_VIEWS = {
    "user_tables": (_user_tables, False),
    "user_indexes": (_user_indexes, False),
    "user_operators": (_user_operators, False),
    "user_indextypes": (_user_indextypes, False),
    "user_index_maintenance": (_user_index_maintenance, True),
    "user_lock_stats": (_user_lock_stats, True),
    "user_snapshot_stats": (_user_snapshot_stats, True),
    "user_wal_stats": (_user_wal_stats, True),
    "user_recovery_stats": (_user_recovery_stats, True),
    "user_server_stats": (_user_server_stats, True),
    "user_executor_stats": (_user_executor_stats, True),
}

#: Names served by :func:`dictionary_view`.
VIEW_NAMES = tuple(_VIEWS)
