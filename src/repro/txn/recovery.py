"""ARIES-lite restart recovery: analysis → redo → undo.

Called by :meth:`DurabilityManager.open` before the engine accepts any
work.  The three phases mirror ARIES, scaled to this engine's storage:

1. **Analysis.**  Scan the whole log (it is truncated only at quiet
   checkpoints, so it is short).  Find the last checkpoint, rebuild the
   active-transaction table (losers) and the committed set, and learn
   the highest commit SCN / txn id / segment id.

2. **Redo — repeat history.**  Starting at the least ``rec_lsn`` in the
   checkpoint's dirty-page table (or the checkpoint itself when it is
   empty), re-apply every row-change and compensation record, committed
   or not.  Heap replay is slot-targeted and guarded by ``page_lsn``;
   IOT replay is logical, guarded by the dump's ``applied_lsn``
   watermark and made idempotent by replaying inserts as
   delete-then-insert on unique trees.

3. **Undo losers.**  Walk each loser's record chain backwards via
   ``prev``, applying the inverse of each update and logging a CLR;
   CLRs encountered mid-chain jump over already-compensated work via
   ``undo_next``, so a crash *during* recovery re-runs safely.

Afterwards the engine is rebuilt above the recovered storage: heap
counters recomputed, native indexes repopulated by scanning, domain
indexes degraded (their in-memory ``methods`` objects died with the old
process — ``VALID`` becomes ``UNUSABLE`` so ``skip_unusable_indexes``
keeps queries answering until ``ALTER INDEX ... REBUILD``), the SCN
clock advanced past the highest committed SCN, and a final checkpoint
taken so a second restart sees a clean, empty log.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.core.domain_index import DomainIndex, IndexState
from repro.index import BitmapIndex, BTree, HashIndex
from repro.storage.heap import HeapTable
from repro.storage.iot import IndexOrganizedTable
from repro.storage.page import Page
from repro.storage.wal import (lsn_epoch, REC_ABORT, REC_CHECKPOINT,
                               REC_CLR, REC_COMMIT, REC_UPDATE)

__all__ = ["RecoveryStats", "run_recovery"]


class RecoveryStats:
    """What the last restart recovery did (``user_recovery_stats``)."""

    def __init__(self):
        self.ran = False
        self.clean = True
        self.log_records_scanned = 0
        self.last_checkpoint_lsn = 0
        self.redo_records = 0
        self.redo_skipped = 0
        self.undo_records = 0
        self.loser_transactions = 0
        self.committed_transactions = 0
        self.indexes_degraded = 0
        self.tables_restored = 0
        self.pages_restored = 0
        self.restored_scn = 0
        self.duration_seconds = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return dict(self.__dict__)


def run_recovery(engine: Any, dm: Any) -> RecoveryStats:
    """Restore durable state into ``engine`` and heal the log."""
    stats = RecoveryStats()
    start = time.perf_counter()
    stats.ran = True

    dm.pages.load()
    snapshot = dm.read_catalog_snapshot()
    _restore_catalog(engine, snapshot, stats)
    stats.pages_restored = _install_pages(engine, dm)

    # -- analysis -------------------------------------------------------
    epoch = _detect_epoch(dm)
    dm.wal.epoch = epoch
    records: Dict[int, Dict[str, Any]] = {}
    order: List[int] = []
    checkpoint: Optional[Dict[str, Any]] = None
    checkpoint_lsn = 0
    att: Dict[int, int] = {}
    committed: Dict[int, int] = {}
    max_scn = snapshot["scn"] if snapshot else 0
    max_txn = snapshot["next_txn_id"] if snapshot else 1
    max_seg = snapshot["next_segment_id"] if snapshot else 1
    for lsn, payload in dm.wal.scan():
        records[lsn] = payload
        order.append(lsn)
        stats.log_records_scanned += 1
        kind = payload["t"]
        if kind == REC_CHECKPOINT:
            checkpoint = payload
            checkpoint_lsn = lsn
            att = dict(payload["att"])
            max_scn = max(max_scn, payload["scn"])
            max_txn = max(max_txn, payload["next_txn"])
            max_seg = max(max_seg, payload["next_seg"])
        elif kind in (REC_UPDATE, REC_CLR):
            att[payload["x"]] = lsn
            max_txn = max(max_txn, payload["x"] + 1)
        elif kind == REC_COMMIT:
            committed[payload["x"]] = payload["scn"] or 0
            att.pop(payload["x"], None)
            if payload["scn"]:
                max_scn = max(max_scn, payload["scn"])
        elif kind == REC_ABORT:
            att.pop(payload["x"], None)
    stats.last_checkpoint_lsn = checkpoint_lsn
    stats.committed_transactions = len(committed)
    stats.loser_transactions = len(att)

    tables = engine.catalog.tables

    # -- redo: repeat history ------------------------------------------
    if checkpoint is not None and checkpoint["dpt"]:
        redo_start = min(checkpoint["dpt"].values())
    else:
        redo_start = checkpoint_lsn
    for lsn in order:
        payload = records[lsn]
        if payload["t"] not in (REC_UPDATE, REC_CLR):
            continue
        if lsn < redo_start:
            stats.redo_skipped += 1
            continue
        if _apply_redo(engine, tables, lsn, payload):
            stats.redo_records += 1
        else:
            stats.redo_skipped += 1
        if dm.event_hook is not None:
            dm.event_hook("recovery.redo")

    # -- undo losers ----------------------------------------------------
    for txn_id in sorted(att, reverse=True):
        lsn = att[txn_id]
        last_clr = att[txn_id]
        while lsn is not None:
            payload = records.get(lsn)
            if payload is None:
                break  # chain reaches a truncated generation: flushed
            if payload["t"] == REC_CLR:
                lsn = payload["un"]
                continue
            if payload["t"] != REC_UPDATE:
                break
            last_clr = _apply_undo(engine, dm, tables, txn_id, payload,
                                   last_clr)
            stats.undo_records += 1
            if dm.event_hook is not None:
                dm.event_hook("recovery.undo")
            lsn = payload["prev"]
        try:
            dm.wal.append({"t": REC_ABORT, "x": txn_id, "prev": last_clr})
        except Exception:
            pass
        dm._att.pop(txn_id, None)

    stats.clean = (stats.redo_records == 0 and stats.undo_records == 0
                   and not att)

    # -- rebuild the in-memory superstructure ---------------------------
    for table in tables.values():
        if isinstance(table.storage, HeapTable):
            table.storage.rebuild_from_pages()
    _rebuild_native_indexes(engine)
    stats.indexes_degraded = _degrade_domain_indexes(engine)

    engine.mvcc.restore_scn(max_scn)
    engine.restore_txn_id(max_txn)
    engine.buffer.restore_next_segment_id(max_seg)
    stats.restored_scn = max_scn

    # final checkpoint: everything recovered is made durable and the log
    # truncates, which is what makes recovery itself idempotent
    dm._att.clear()
    _mark_all_dirty(engine, dm)
    dm.checkpoint(reason="recovery")
    stats.duration_seconds = time.perf_counter() - start
    engine.recovery_stats = stats
    return stats


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _detect_epoch(dm: Any) -> int:
    """The log's epoch is carried by its first record (always a
    checkpoint after any truncation).  An empty log means the last
    truncation's contents were fully flushed — start a fresh epoch past
    any LSN stamped on stored pages."""
    for __, payload in dm.wal.scan():
        if payload["t"] == REC_CHECKPOINT:
            return payload["epoch"]
        break
    return lsn_epoch(dm.pages.max_page_lsn()) + 1


def _restore_catalog(engine: Any, snapshot: Optional[Dict[str, Any]],
                     stats: RecoveryStats) -> None:
    """Re-create tables and index definitions from the durable snapshot.

    The engine's catalog already holds the built-ins (registered during
    construction); this merges the user schema on top with the original
    segment ids, so logged rowids keep addressing the same pages.
    """
    if snapshot is None:
        return
    from repro.sql.catalog import ColumnInfo, IndexDef, TableDef
    catalog = engine.catalog
    with catalog.latch:
        for desc in snapshot["tables"]:
            if catalog.has_table(desc["name"]):
                continue
            columns = [ColumnInfo(name=n, datatype=dt, not_null=nn)
                       for n, dt, nn in desc["columns"]]
            if desc["is_iot"]:
                storage: Any = IndexOrganizedTable(
                    engine.buffer, key_width=desc["key_width"],
                    name=desc["name"], unique=desc["unique"],
                    segment_id=desc["segment_id"])
            else:
                storage = HeapTable(engine.buffer, name=desc["name"],
                                    segment_id=desc["segment_id"])
            table = TableDef(name=desc["name"], columns=columns,
                             storage=storage,
                             primary_key=list(desc["primary_key"]),
                             is_iot=desc["is_iot"], owner=desc["owner"])
            catalog.tables[table.key] = table
            stats.tables_restored += 1
        for desc in snapshot["indexes"]:
            if catalog.has_index(desc["name"]):
                continue
            domain = None
            structure = None
            if desc["domain"] is not None:
                d = desc["domain"]
                domain = DomainIndex(
                    name=d["name"], table_name=d["table_name"],
                    column_names=d["column_names"],
                    column_types=d["column_types"],
                    indextype_name=d["indextype_name"],
                    parameters=d["parameters"], methods=None,
                    state=IndexState(d["state"]), owner=d["owner"])
            else:
                touch = lambda n: setattr(  # noqa: E731 - counter hook
                    engine.stats, "logical_reads",
                    engine.stats.logical_reads + n)
                if desc["kind"] == "btree":
                    structure = BTree(unique=desc["unique"], touch=touch)
                elif desc["kind"] == "hash":
                    structure = HashIndex(unique=desc["unique"], touch=touch)
                elif desc["kind"] == "bitmap":
                    structure = BitmapIndex(touch=touch)
            index = IndexDef(name=desc["name"],
                             table_name=desc["table_name"],
                             column_names=desc["column_names"],
                             kind=desc["kind"], unique=desc["unique"],
                             structure=structure, domain=domain)
            catalog.indexes[index.key] = index
            table = catalog.tables.get(index.table_name.lower())
            if table is not None and index.name not in table.index_names:
                table.index_names.append(index.name)
        for key, privileges in snapshot["grants"].items():
            catalog.grants[key] = set(privileges)
        catalog.bump_version()


def _install_pages(engine: Any, dm: Any) -> int:
    """Seed the buffer cache's disk with the checkpointed images."""
    installed = 0
    segments_by_id = {t.storage.segment_id: t
                      for t in engine.catalog.tables.values()}
    for seg in dm.pages.segments():
        table = segments_by_id.get(seg)
        dump = dm.pages.iot_dump_of(seg)
        if dump is not None:
            if table is not None and isinstance(table.storage,
                                                IndexOrganizedTable):
                table.storage.load_columns(dump["columns"],
                                           dump["snap_lsn"])
                installed += 1
            continue
        for page_state in dm.pages.pages_of(seg):
            engine.buffer.install_page((seg, page_state["page_no"]),
                                       Page.from_state(page_state))
            installed += 1
    return installed


def _storage_for(tables: Dict[str, Any], table_key: str) -> Optional[Any]:
    table = tables.get(table_key)
    return table.storage if table is not None else None


def _apply_redo(engine: Any, tables: Dict[str, Any], lsn: int,
                payload: Dict[str, Any]) -> bool:
    """Re-apply one row-change/CLR record; returns True when applied."""
    storage = _storage_for(tables, payload["tb"])
    if storage is None:
        return False  # table dropped later; its tombstone is durable
    op = payload["op"]
    if op == "truncate":
        storage.truncate()
        return True
    if op == "bulk_insert":
        return _redo_bulk(engine, storage, lsn, payload)
    rid = payload.get("rid")
    if rid is not None:
        page = engine.buffer.ensure_page(rid[0], rid[1])
        if lsn <= page.page_lsn:
            return False  # the checkpointed image already has this change
        if op == "delete":
            page.set_slot(rid[2], None)
        else:  # insert / update land the after-image
            page.set_slot(rid[2], payload["new"])
        page.page_lsn = lsn
        return True
    # IOT: logical replay behind the dump watermark
    if lsn <= storage.applied_lsn:
        return False
    if op == "insert":
        _iot_idempotent_insert(storage, payload["new"])
    elif op == "delete":
        storage.recover_delete(payload["old"])
    elif op == "update":
        storage.recover_delete(payload["old"])
        _iot_idempotent_insert(storage, payload["new"])
    storage.applied_lsn = lsn
    return True


def _redo_bulk(engine: Any, storage: Any, lsn: int,
               payload: Dict[str, Any]) -> bool:
    rows = payload["new"]
    rids = payload.get("rids")
    if rids is None:  # IOT direct-path load
        if lsn <= storage.applied_lsn:
            return False
        for row in rows:
            _iot_idempotent_insert(storage, row)
        storage.applied_lsn = lsn
        return True
    applied = False
    for row, rid in zip(rows, rids):
        page = engine.buffer.ensure_page(rid[0], rid[1])
        if lsn <= page.page_lsn:
            continue
        page.set_slot(rid[2], row)
        applied = True
    for __, rid in zip(rows, rids):
        page = engine.buffer.ensure_page(rid[0], rid[1])
        if lsn > page.page_lsn:
            page.page_lsn = lsn
    return applied


def _iot_idempotent_insert(storage: Any, row: List[Any]) -> None:
    """Replay an IOT insert; on a unique tree, delete-then-insert so a
    record replayed against a fuzzier-than-stamped dump cannot double."""
    key, payload = storage._split_row(row)
    if storage.unique and storage._tree.search(key):
        storage.recover_delete(row)
    storage.recover_insert(row)


def _apply_undo(engine: Any, dm: Any, tables: Dict[str, Any], txn_id: int,
                payload: Dict[str, Any], last_clr: int) -> int:
    """Apply the inverse of one loser record and log the CLR."""
    storage = _storage_for(tables, payload["tb"])
    op = payload["op"]
    rid = payload.get("rid")
    comp_op, comp_old, comp_new = _compensation(payload)
    if storage is not None:
        if op == "bulk_insert":
            storage.truncate()
        elif rid is not None:
            page = engine.buffer.ensure_page(rid[0], rid[1])
            if comp_op == "delete":
                page.set_slot(rid[2], None)
            else:
                page.set_slot(rid[2], comp_new)
        else:
            if op == "insert":
                storage.recover_delete(payload["new"])
            elif op == "delete":
                _iot_idempotent_insert(storage, payload["old"])
            elif op == "update":
                storage.recover_delete(payload["new"])
                _iot_idempotent_insert(storage, payload["old"])
    clr = {"t": REC_CLR, "x": txn_id, "tb": payload["tb"], "op": comp_op,
           "rid": rid if op != "bulk_insert" else None,
           "old": comp_old, "new": comp_new,
           "prev": last_clr, "un": payload["prev"]}
    try:
        lsn = dm.wal.append(clr)
    except Exception:
        return last_clr
    if storage is not None:
        if op == "bulk_insert" or rid is None:
            if hasattr(storage, "applied_lsn"):
                storage.applied_lsn = max(storage.applied_lsn, lsn)
                storage.dump_dirty = True
        else:
            page = engine.buffer.ensure_page(rid[0], rid[1])
            page.page_lsn = max(page.page_lsn, lsn)
    return lsn


def _compensation(payload: Dict[str, Any]):
    """The redo-able inverse of a row-change record."""
    op = payload["op"]
    if op == "insert":
        return "delete", payload["new"], None
    if op == "delete":
        return "insert", None, payload["old"]
    if op == "update":
        return "update", payload["new"], payload["old"]
    if op == "bulk_insert":
        return "truncate", None, None
    raise ValueError(f"cannot compensate op {op!r}")


def _rebuild_native_indexes(engine: Any) -> None:
    """Repopulate native index structures by scanning recovered tables.

    Native structures are pure in-memory derivatives of table storage;
    they are never logged — rebuilding them is the recovery path (same
    policy as ALTER INDEX ... REBUILD on a native index).
    """
    from repro.sql.dml import index_key
    catalog = engine.catalog
    for index in list(catalog.indexes.values()):
        if index.structure is None:
            continue
        table = catalog.tables.get(index.table_name.lower())
        if table is None:
            continue
        positions = [table.column_position(c) for c in index.column_names]
        structure = index.structure
        structure.clear()
        if hasattr(structure, "bulk_load"):
            pairs = []
            for rowid, row in table.storage.scan():
                key = index_key(row, positions)
                if key is not None:
                    pairs.append((key, rowid))
            structure.bulk_load(pairs)
        else:
            for rowid, row in table.storage.scan():
                key = index_key(row, positions)
                if key is not None:
                    structure.insert(key, rowid)


def _degrade_domain_indexes(engine: Any) -> int:
    """Domain indexes cannot survive a restart usable: their in-memory
    ``methods`` objects died with the old process, and maintenance
    batches logged but not checkpointed may be missing from cartridge
    storage.  VALID degrades to UNUSABLE (queries keep answering via
    ``skip_unusable_indexes`` functional fallback; ``ALTER INDEX ...
    REBUILD`` repairs); an interrupted CREATE/REBUILD lands on FAILED —
    never half-built-but-VALID."""
    degraded = 0
    catalog = engine.catalog
    with catalog.latch:
        for index in catalog.indexes.values():
            if index.domain is None:
                continue
            state = index.domain.state
            if state is IndexState.VALID:
                index.domain.state = IndexState.UNUSABLE
                degraded += 1
            elif state is IndexState.IN_PROGRESS:
                index.domain.state = IndexState.FAILED
                degraded += 1
            index.domain.methods = None
        if degraded:
            catalog.bump_version()
    return degraded


def _mark_all_dirty(engine: Any, dm: Any) -> None:
    """Queue every recovered page/IOT for the post-recovery checkpoint,
    so the durable images absorb everything redo/undo just did."""
    for table in engine.catalog.tables.values():
        storage = table.storage
        if isinstance(storage, IndexOrganizedTable):
            if storage.row_count or storage.dump_dirty:
                dm._note_iot_dirty(storage.segment_id)
        else:
            for page_no in engine.buffer.segment_pages(storage.segment_id):
                dm.note_dirty((storage.segment_id, page_no))
