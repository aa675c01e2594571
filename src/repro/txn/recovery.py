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
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, List, Optional

from repro.core.domain_index import DomainIndex, IndexState
from repro.metrics import Metrics
from repro.storage.durability import clr_record
from repro.storage.heap import HeapTable
from repro.storage.iot import IndexOrganizedTable
from repro.storage.page import Page
from repro.storage.wal import (lsn_epoch, REC_ABORT, REC_CHECKPOINT,
                               REC_CLR, REC_COMMIT, REC_UPDATE)

__all__ = ["RecoveryStats", "run_recovery"]


@dataclass
class RecoveryStats(Metrics):
    """What the last restart recovery did (``user_recovery_stats``).

    ``ran`` is False when no recovery ran; ``clean`` is True when the
    pass found a clean shutdown (zero redo, zero undo).
    """

    ran: bool = False
    clean: bool = True
    log_records_scanned: int = 0
    redo_records: int = 0
    redo_skipped: int = 0
    undo_records: int = 0
    loser_transactions: int = 0
    committed_transactions: int = 0
    indexes_degraded: int = 0
    tables_restored: int = 0
    pages_restored: int = 0
    restored_scn: int = 0
    duration_seconds: float = 0.0
    last_checkpoint_lsn: int = 0


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
    for lsn, payload in dm.wal.records():
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
    if att:
        # a load's undo cuts a heap back to its mark as a rollback does,
        # up to the heap's page count
        _count_heaps(tables)
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
    _count_heaps(tables)
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
    for __, payload in dm.wal.records():
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
    from repro.sql.catalog import (ColumnInfo, IndexDef, TableDef,
                                   native_structure)
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
                    name=desc["name"], segment_id=desc["segment_id"])
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
                    state=IndexState(d["state"]), owner=d["owner"],
                    # a snapshot from before format versions: version 1
                    format_version=d.get("format_version", 1))
            else:
                structure = native_structure(desc["name"], desc["kind"],
                                             desc["unique"], engine.stats)
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
    """Seed the buffer cache's disk with the checkpointed images of the
    recovered tables.  Pages of a segment no table owns are skipped: the
    LOB segment's are among them, and its directory of LOBs is not
    durable, so after a restart they name nothing and would only collide
    with the pages the new LOB manager allocates."""
    installed = 0
    segments_by_id = {t.storage.segment_id: t
                      for t in engine.catalog.tables.values()}
    for seg in dm.pages.segments():
        table = segments_by_id.get(seg)
        if table is None:
            continue
        dump = dm.pages.iot_dump_of(seg)
        if dump is not None:
            if isinstance(table.storage, IndexOrganizedTable):
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
    if op == "bulk_insert":
        return _redo_bulk(engine, storage, lsn, payload)
    rid = payload["rid"]
    if op != "truncate":
        # the checkpointed image (heap page / IOT dump watermark)
        # already has this change
        stamped = (storage.applied_lsn if rid is None
                   else engine.buffer.ensure_page(rid[0], rid[1]).page_lsn)
        if lsn <= stamped:
            return False
    _replay(engine, storage, payload, lsn)
    _stamp(engine, storage, rid, lsn)
    return True


def _replay(engine: Any, storage: Any, payload: Dict[str, Any],
            lsn: Optional[int] = None) -> None:
    """Land one record's after-state in ``storage``: a heap record on
    its slot, an IOT record by key (logical replay, idempotent).  A
    truncate that carries a mark cuts the heap back to it (redo passes
    the record's ``lsn``, so a mark page already past it is left as it
    is); one without (an IOT's, in older logs) empties the table.  A
    ``bulk_delete`` deletes the rows it carries."""
    op = payload["op"]
    rid = payload["rid"]
    if op == "bulk_delete":
        for row in payload["old"]:
            storage.recover_delete(row)
        return
    if op == "truncate":
        if rid is None:
            storage.truncate()
        else:
            storage.cut_to(rid, lsn)
        return
    if rid is not None:
        engine.buffer.ensure_page(rid[0], rid[1]).set_slot(
            rid[2], None if op == "delete" else payload["new"])
        return
    if op != "insert":
        storage.recover_delete(payload["old"])
    if op != "delete":
        storage.recover_insert(payload["new"])


def _stamp(engine: Any, storage: Any, rid: Any, lsn: int) -> None:
    """Advance the page's or IOT's LSN to a record just replayed (a
    heap's truncate back to a mark: the mark's page, if the cut left
    it)."""
    if rid is not None:
        storage.stamp_lsn(rid, lsn)
    elif isinstance(storage, IndexOrganizedTable):
        storage.stamp_lsn(lsn)


def _redo_bulk(engine: Any, storage: Any, lsn: int,
               payload: Dict[str, Any]) -> bool:
    rows = payload["new"]
    rids = payload.get("rids")
    if rids is None:  # IOT direct-path load
        if lsn <= storage.applied_lsn:
            return False
        for row in rows:
            storage.recover_insert(row)
        storage.applied_lsn = lsn
        return True
    # the rowids run in page order: one page fetch and stamp per page
    applied = False
    for page_no, run in groupby(zip(map(itemgetter(1), rids),
                                    map(itemgetter(2), rids), rows),
                                itemgetter(0)):
        page = engine.buffer.ensure_page(storage.segment_id, page_no)
        if lsn <= page.page_lsn:
            continue
        for __, slot, row in run:
            page.set_slot(slot, row)
        page.page_lsn = lsn
        applied = True
    return applied


def _apply_undo(engine: Any, dm: Any, tables: Dict[str, Any], txn_id: int,
                payload: Dict[str, Any], last_clr: int) -> int:
    """Apply the inverse of one loser record and log its CLR."""
    clr = clr_record(txn_id, payload["tb"], payload["op"], payload["rid"],
                     payload["old"], payload["new"], last_clr,
                     payload["prev"])
    storage = _storage_for(tables, clr["tb"])
    if storage is not None:
        _replay(engine, storage, clr)
    try:
        lsn = dm.wal.append(clr)
    except Exception:
        return last_clr
    if storage is not None:
        _stamp(engine, storage, clr["rid"], lsn)
    return lsn


def _count_heaps(tables: Dict[str, Any]) -> None:
    """Recompute every heap's counters from its recovered pages."""
    for table in tables.values():
        if isinstance(table.storage, HeapTable):
            table.storage.rebuild_from_pages()


def _rebuild_native_indexes(engine: Any) -> None:
    """Repopulate native index structures by scanning recovered tables.

    Native structures are pure in-memory derivatives of table storage;
    they are never logged — rebuilding them is the recovery path (same
    policy as ALTER INDEX ... REBUILD on a native index).
    """
    catalog = engine.catalog
    for index in list(catalog.indexes.values()):
        table = catalog.tables.get(index.table_name.lower())
        if index.structure is not None and table is not None:
            index.build_native(table)


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
