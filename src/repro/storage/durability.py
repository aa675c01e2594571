"""The durability manager: WAL policy, fuzzy checkpoints, group commit.

This is the seam between the in-memory engine and the durable state on
disk (``wal.log`` + ``pages.db`` + ``catalog.pkl`` under the engine's
``data_dir``).  It owns:

* **Row logging.**  Every DML write point calls :meth:`log_row` /
  :meth:`log_bulk` *after* mutating storage; the record carries redo and
  undo images and chains into the transaction's ``prev`` list.  Undo
  closures are wrapped (:meth:`wrap_undo`) so rollback writes
  compensation records (CLRs) — statement rollback, full rollback, and
  restart undo all leave a redo-able trace, which is what makes
  recovery idempotent.

* **The WAL rule.**  Dirty pages are only made durable inside
  :meth:`checkpoint`, which flushes the log first.  The dirty-page
  table records a conservative ``rec_lsn`` for every page/IOT dirtied
  since the last checkpoint; the checkpoint record carries the DPT and
  active-transaction table so restart redo can start at the right LSN
  without quiescing writers (a fuzzy checkpoint).

* **Group commit.**  Commit records are made durable through the
  :class:`~repro.storage.wal.LogWriter`, batching fsyncs across
  sessions.  Read-only transactions never log and never fsync.

* **Log truncation.**  When a checkpoint finds no active transactions,
  everything is flushed and the log resets to a fresh generation (epoch
  + 1) whose first record is the checkpoint itself — undo information
  for in-flight transactions is never discarded.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import WALError
from repro.storage.pagestore import PageStore
from repro.storage.wal import (LogWriter, WriteAheadLog,
                               REC_ABORT, REC_CHECKPOINT, REC_CLR,
                               REC_COMMIT, REC_UPDATE)

__all__ = ["DurabilityManager"]

WAL_FILE = "wal.log"
PAGES_FILE = "pages.db"
CATALOG_FILE = "catalog.pkl"


class DurabilityManager:
    """Coordinates WAL, page store, and catalog snapshots for one engine."""

    def __init__(self, engine: Any, data_dir: str,
                 group_commit: bool = True,
                 fsync_delay: float = 0.0,
                 checkpoint_interval: int = 256,
                 event_hook: Optional[Callable[[str], None]] = None,
                 fault_plan: Any = None):
        self.engine = engine
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.group_commit = group_commit
        self.checkpoint_interval = checkpoint_interval
        self.event_hook = event_hook
        fault_check = fault_plan.check if fault_plan is not None else None
        self.wal = WriteAheadLog(os.path.join(data_dir, WAL_FILE),
                                 fsync_delay=fsync_delay,
                                 fault_check=fault_check,
                                 event_hook=event_hook)
        self.pages = PageStore(os.path.join(data_dir, PAGES_FILE),
                               fault_check=fault_check,
                               event_hook=event_hook)
        self.catalog_path = os.path.join(data_dir, CATALOG_FILE)
        self.log_writer = LogWriter(self.wal) if group_commit else None
        #: dirty-page table: ("page", seg, pno) | ("iot", seg) -> rec_lsn
        #: (conservative: <= the LSN of the first record that dirtied it)
        self._dpt: Dict[Tuple, int] = {}
        #: active-transaction table: txn_id -> last logged LSN
        self._att: Dict[int, int] = {}
        self._dpt_latch = threading.Lock()
        self._ckpt_latch = threading.RLock()
        self._commits_since_ckpt = 0
        self.closed = False

    # ------------------------------------------------------------------
    # dirty tracking (called by the buffer cache / log_row)
    # ------------------------------------------------------------------

    def note_dirty(self, key: Tuple[int, int]) -> None:
        """A heap page went dirty; remember where its redo must start."""
        entry = ("page", key[0], key[1])
        with self._dpt_latch:
            if entry not in self._dpt:
                self._dpt[entry] = self.wal.end_lsn

    def _note_iot_dirty(self, segment_id: int) -> None:
        entry = ("iot", segment_id)
        with self._dpt_latch:
            if entry not in self._dpt:
                self._dpt[entry] = self.wal.end_lsn

    def segment_dropped(self, segment_id: int) -> None:
        """DROP/TRUNCATE discarded a segment: durably tombstone it so its
        old page images cannot resurrect at the next recovery."""
        if self.closed:
            return
        with self._dpt_latch:
            for key in [k for k in self._dpt if k[1] == segment_id]:
                del self._dpt[key]
        self.pages.tombstone(segment_id)

    # ------------------------------------------------------------------
    # row logging (called by the DML layer, after mutating storage)
    # ------------------------------------------------------------------

    def log_row(self, txn: Any, table_key: str, storage: Any, op: str,
                rid: Any, old: Optional[List[Any]],
                new: Optional[List[Any]]) -> Optional[int]:
        """Append one row-change record; returns the txn's previous LSN
        (the ``undo_next`` target for a CLR compensating this record).

        ``rid`` is a :class:`~repro.storage.heap.RowId` for heap tables
        (physiological record: replay targets the slot) and ``None`` for
        IOTs (logical record: replay works on full rows, because IOT
        surrogate rowids do not survive a restart).
        """
        prev = txn.last_lsn
        payload = {"t": REC_UPDATE, "x": txn.txn_id, "tb": table_key,
                   "op": op, "rid": rid.sort_key if rid is not None else None,
                   "old": old, "new": new, "prev": prev}
        if rid is None:
            self._note_iot_dirty(storage.segment_id)
        lsn = self.wal.append(payload)
        txn.last_lsn = lsn
        txn.logged = True
        self._att[txn.txn_id] = lsn
        if rid is None:
            storage.stamp_lsn(lsn)
        else:
            storage.stamp_lsn(rid, lsn)
        return prev

    def log_bulk(self, txn: Any, table_key: str, storage: Any,
                 rows: List[List[Any]], rowids: Optional[List[Any]]
                 ) -> Optional[int]:
        """Append one record covering a whole direct-path load."""
        prev = txn.last_lsn
        rid_tuples = ([r.sort_key for r in rowids]
                      if rowids is not None else None)
        payload = {"t": REC_UPDATE, "x": txn.txn_id, "tb": table_key,
                   "op": "bulk_insert", "rid": None,
                   "old": None, "new": rows, "rids": rid_tuples,
                   "prev": prev}
        if rid_tuples is None:
            self._note_iot_dirty(storage.segment_id)
        lsn = self.wal.append(payload)
        txn.last_lsn = lsn
        txn.logged = True
        self._att[txn.txn_id] = lsn
        if rid_tuples is None:
            storage.stamp_lsn(lsn)
        else:
            for seg, page_no, __ in rid_tuples:
                page = self.engine.buffer.peek_page(seg, page_no)
                if page is not None and lsn > page.page_lsn:
                    page.page_lsn = lsn
        return prev

    def wrap_undo(self, action: Callable[[], None], txn: Any,
                  table_key: str, storage: Any, comp_op: str, rid: Any,
                  old: Optional[List[Any]], new: Optional[List[Any]],
                  undo_next: Optional[int]) -> Callable[[], None]:
        """Wrap an in-memory undo closure so running it also logs a CLR.

        The CLR encodes the *compensating* operation as a redo-able
        record (undo-of-insert logs a delete, and so on), chained via
        ``undo_next`` to the record before the one being undone — the
        ARIES trick that makes repeated undo skip already-compensated
        work.
        """
        def undo_with_clr():
            action()
            try:
                self.log_clr(txn, table_key, storage, comp_op, rid,
                             old, new, undo_next)
            except WALError:
                # the log is dead; in-memory undo still ran, and restart
                # recovery will undo from the surviving records
                pass
        return undo_with_clr

    def log_clr(self, txn: Any, table_key: str, storage: Any, comp_op: str,
                rid: Any, old: Optional[List[Any]],
                new: Optional[List[Any]],
                undo_next: Optional[int]) -> int:
        rid_t = rid.sort_key if rid is not None and hasattr(rid, "sort_key") \
            else rid
        payload = {"t": REC_CLR, "x": txn.txn_id, "tb": table_key,
                   "op": comp_op, "rid": rid_t, "old": old, "new": new,
                   "prev": txn.last_lsn, "un": undo_next}
        if rid_t is None and comp_op != "truncate":
            self._note_iot_dirty(storage.segment_id)
        lsn = self.wal.append(payload)
        txn.last_lsn = lsn
        txn.logged = True
        self._att[txn.txn_id] = lsn
        if comp_op != "truncate":
            if rid_t is None:
                storage.stamp_lsn(lsn)
            else:
                page = self.engine.buffer.peek_page(rid_t[0], rid_t[1])
                if page is not None and lsn > page.page_lsn:
                    page.page_lsn = lsn
        return lsn

    # ------------------------------------------------------------------
    # commit / abort
    # ------------------------------------------------------------------

    def commit(self, txn: Any) -> None:
        """Write and durably flush the commit record (the ack point)."""
        if self.wal.failed:
            raise WALError("write-ahead log has failed; the instance "
                           "cannot accept commits until restart")
        if not txn.logged:
            self._att.pop(txn.txn_id, None)
            return  # read-only: nothing to make durable, no fsync
        payload = {"t": REC_COMMIT, "x": txn.txn_id,
                   "scn": txn.commit_scn, "prev": txn.last_lsn}
        lsn = self.wal.append(payload)
        self.wal.stats.commit_records += 1
        self.wal.commit_flush(lsn)
        self._att.pop(txn.txn_id, None)
        self._commits_since_ckpt += 1
        if (self.checkpoint_interval
                and self._commits_since_ckpt >= self.checkpoint_interval):
            self.checkpoint(reason="auto")

    def abort(self, txn: Any) -> None:
        """Log the abort (undo already ran and logged its CLRs)."""
        self._att.pop(txn.txn_id, None)
        if not txn.logged or self.wal.failed:
            return
        try:
            self.wal.append({"t": REC_ABORT, "x": txn.txn_id,
                             "prev": txn.last_lsn})
        except WALError:
            pass  # a dead log already implies the txn will be undone

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self, reason: str = "manual") -> int:
        """Take a fuzzy checkpoint; returns the checkpoint record's LSN.

        Order matters: catalog snapshot → **log flush (the WAL rule)** →
        dirty page/IOT flush → page-store fsync → checkpoint record.
        With no active transactions everything is durable, so the log
        truncates into a new epoch whose first record is the checkpoint.
        """
        with self._ckpt_latch:
            if self.event_hook is not None:
                self.event_hook("checkpoint.begin")
            self._commits_since_ckpt = 0
            self._write_catalog_snapshot()
            self.wal.flush_all()
            # drain the DPT: concurrent writers re-add entries with
            # fresh rec_lsns, so nothing dirtied mid-drain is lost
            with self._dpt_latch:
                drain = dict(self._dpt)
                self._dpt.clear()
            iot_by_segment = self._iot_storages()
            buffer = self.engine.buffer
            for entry in sorted(drain):
                if entry[0] == "page":
                    page = buffer.peek_page(entry[1], entry[2])
                    if page is not None:
                        self.pages.write_page(entry[1], page.state())
            # IOT dumps: anything in the drained DPT plus anything whose
            # tree changed without a WAL record (DDL TRUNCATE sets
            # dump_dirty directly — no log record carries that change)
            for storage in iot_by_segment.values():
                if (storage.dump_dirty
                        or ("iot", storage.segment_id) in drain):
                    snap_lsn = storage.applied_lsn
                    self.pages.write_iot(storage.segment_id,
                                         storage.dump_columns(), snap_lsn)
                    storage.dump_dirty = False
            self.pages.fsync()
            att = dict(self._att)
            with self._dpt_latch:
                dpt = dict(self._dpt)
            record = {"t": REC_CHECKPOINT,
                      "epoch": self.wal.epoch,
                      "scn": self.engine.mvcc.current_scn,
                      "next_txn": self.engine.peek_next_txn_id(),
                      "next_seg": buffer.peek_next_segment_id(),
                      "att": att, "dpt": dpt, "clean": not att,
                      "reason": reason}
            if not att and not self.wal.failed:
                # quiet point: every committed effect is durable in the
                # page store, so the log can start a new generation
                self.wal.reset(self.wal.epoch + 1)
                record["epoch"] = self.wal.epoch
            lsn = self.wal.append(record)
            self.wal.flush_all()
            self.wal.stats.checkpoints += 1
            self.wal.stats.last_checkpoint_lsn = lsn
            if self.pages.should_compact():
                self.pages.compact()
            return lsn

    def _iot_storages(self) -> Dict[int, Any]:
        catalog = self.engine.catalog
        with catalog.latch:
            return {t.storage.segment_id: t.storage
                    for t in catalog.tables.values() if t.is_iot}

    # ------------------------------------------------------------------
    # catalog snapshot
    # ------------------------------------------------------------------

    def _write_catalog_snapshot(self) -> None:
        snapshot = self.describe_catalog()
        tmp = self.catalog_path + ".tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, pickle.dumps(snapshot,
                                      protocol=pickle.HIGHEST_PROTOCOL))
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self.catalog_path)

    def describe_catalog(self) -> Dict[str, Any]:
        """Plain-data description of the schema (no live objects except
        pickled DataType/ObjectType instances).

        Functions, operators, indextypes, and implementation classes are
        *not* captured: they are code, re-registered by the application
        at startup exactly like loading a cartridge library.  Domain
        indexes are captured by definition + state; their ``methods``
        instances are rebuilt by ``ALTER INDEX ... REBUILD``.
        """
        catalog = self.engine.catalog
        with catalog.latch:
            tables = []
            for table in catalog.tables.values():
                storage = table.storage
                tables.append({
                    "name": table.name,
                    "columns": [(c.name, c.datatype, c.not_null)
                                for c in table.columns],
                    "primary_key": list(table.primary_key),
                    "is_iot": table.is_iot,
                    "key_width": getattr(storage, "key_width", 0),
                    "unique": getattr(storage, "unique", True),
                    "segment_id": storage.segment_id,
                    "owner": table.owner,
                })
            indexes = []
            for index in catalog.indexes.values():
                desc = {"name": index.name, "table_name": index.table_name,
                        "column_names": tuple(index.column_names),
                        "kind": index.kind, "unique": index.unique,
                        "domain": None}
                if index.domain is not None:
                    d = index.domain
                    desc["domain"] = {
                        "name": d.name, "table_name": d.table_name,
                        "column_names": tuple(d.column_names),
                        "column_types": tuple(d.column_types),
                        "indextype_name": d.indextype_name,
                        "parameters": d.parameters,
                        "state": d.state.value, "owner": d.owner,
                    }
                indexes.append(desc)
            return {
                "tables": tables,
                "indexes": indexes,
                "grants": {k: set(v) for k, v in catalog.grants.items()},
                "next_segment_id": self.engine.buffer.peek_next_segment_id(),
                "next_txn_id": self.engine.peek_next_txn_id(),
                "scn": self.engine.mvcc.current_scn,
            }

    def read_catalog_snapshot(self) -> Optional[Dict[str, Any]]:
        if not os.path.exists(self.catalog_path):
            return None
        with open(self.catalog_path, "rb") as fh:
            return pickle.loads(fh.read())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def open(self) -> Any:
        """Run restart recovery, then start the group-commit writer."""
        from repro.txn.recovery import run_recovery
        stats = run_recovery(self.engine, self)
        if self.log_writer is not None:
            self.log_writer.start()
        return stats

    def close(self) -> None:
        """Clean shutdown: stop the writer, flush, final checkpoint."""
        if self.closed:
            return
        if self.log_writer is not None:
            self.log_writer.stop()
        if not self.wal.failed:
            try:
                self.wal.flush_all()
                self.checkpoint(reason="shutdown")
            except WALError:
                pass
        self.closed = True
        self.wal.close()
        self.pages.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def wal_stats(self) -> Dict[str, Any]:
        snap = self.wal.stats.snapshot()
        snap["epoch"] = self.wal.epoch
        snap["end_lsn"] = self.wal.end_lsn
        snap["flushed_lsn"] = self.wal.flushed_lsn
        snap["group_commit"] = self.group_commit
        snap["active_transactions"] = len(self._att)
        snap["dirty_entries"] = len(self._dpt)
        snap["failed"] = self.wal.failed
        return snap
