"""Data-dictionary views over the catalog and the engine's counters.

§2.4.1: "When a domain index is created, the Oracle8i server creates the
data dictionary entries pertaining to the domain index".  ``user_tables``,
``user_indexes``, ``user_operators`` and ``user_indextypes`` expose those
entries (and the rest of the catalog) to ordinary SELECTs.  The
statistics views — ``user_io_stats``, ``user_plan_cache_stats``,
``user_executor_stats``, ``user_lock_stats``, ``user_snapshot_stats``,
``user_wal_stats``, ``user_recovery_stats``, ``user_server_stats``,
``user_index_maintenance`` and ``user_odci_routine_stats`` — are each
generated from one counter group (:mod:`repro.metrics`) plus the gauges
the :data:`_VIEWS` table adds.  Each view is synthesized on access as a
read-only snapshot.
"""

from __future__ import annotations

import importlib
import itertools
from dataclasses import fields
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Tuple

from repro.metrics import Histogram, Keyed
from repro.sql.catalog import Catalog, ColumnInfo, TableDef
from repro.storage.heap import PageRowIds, RowId
from repro.types.datatypes import BOOLEAN, INTEGER, NUMBER, VARCHAR2

#: segment ids for view snapshots, far away from real segments; one
#: process-wide counter because sessions of every engine build views
#: concurrently and ``fetch_batch`` tells snapshots apart by id
_SEGMENT_IDS = itertools.count(1_000_000)

#: a column's type, by the type of its declared default (a histogram's
#: ``label:count`` text has none: VARCHAR2)
_SQL_TYPES = {bool: BOOLEAN, int: INTEGER, float: NUMBER}


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

    def scan_batches(self, snapshot: Any = None
                     ) -> Iterator[Tuple[PageRowIds, List[Tuple[Any, ...]]]]:
        """The view's rows as one batch of columns (a snapshot of the
        catalog has no versions: ``snapshot`` changes nothing)."""
        if self._rows:
            yield (PageRowIds(self.segment_id, 0, range(len(self._rows))),
                   list(zip(*self._rows)))

    def fetch_batch(self, rowids: List[Any], snapshot: Any = None
                    ) -> Tuple[List[RowId], List[List[Any]]]:
        """``(rowids, rows)`` for the rowids of this view snapshot, in
        the caller's order; ``snapshot`` changes nothing, as in
        :meth:`scan_batches`."""
        segment_id, rows = self.segment_id, self._rows
        found = [rowid for rowid in rowids
                 if rowid.__class__ is tuple and rowid[0] == segment_id
                 and 0 <= rowid[2] < len(rows)]
        return found, [rows[rowid[2]] for rowid in found]


def dictionary_view(catalog: Catalog, name: str,
                    engine: Any = None) -> Optional[TableDef]:
    """Build the named dictionary view, or None for unknown names."""
    name = name.lower()
    entry = _VIEWS.get(name)
    if entry is None:
        return None
    if not isinstance(entry, _Stats):
        columns, rows = entry(catalog)
    elif engine is None:
        return None
    else:
        columns, rows = _stats_view(engine, entry)
    return TableDef(
        name=name,
        columns=[ColumnInfo(cname, dtype) for cname, dtype in columns],
        storage=_SnapshotStorage(rows), is_view=True)


def _user_tables(catalog: Catalog):
    rows = [[t.name, t.owner, t.storage.row_count, t.is_iot,
             len(t.columns)]
            for t in sorted(catalog.tables.values(), key=lambda t: t.key)]
    return ([("table_name", VARCHAR2), ("owner", VARCHAR2),
             ("num_rows", INTEGER), ("iot", BOOLEAN),
             ("column_count", INTEGER)],
            rows)


def _user_indexes(catalog: Catalog):
    rows = []
    for index in sorted(catalog.indexes.values(), key=lambda i: i.key):
        indextype = parameters = version = None
        status = "VALID"
        if index.is_domain and index.domain is not None:
            indextype = index.domain.indextype_name
            parameters = index.domain.parameters
            status = index.domain.state.value
            version = index.domain.format_version
        rows.append([index.name, index.table_name,
                     ",".join(index.column_names), index.kind.upper(),
                     index.unique, indextype, parameters, status, version])
    return ([("index_name", VARCHAR2), ("table_name", VARCHAR2),
             ("columns", VARCHAR2), ("index_type", VARCHAR2),
             ("uniqueness", BOOLEAN), ("domain_indextype", VARCHAR2),
             ("parameters", VARCHAR2), ("status", VARCHAR2),
             ("format_version", INTEGER)],
            rows)


def _user_operators(catalog: Catalog):
    rows = []
    for operator in sorted(catalog.operators.values(),
                           key=lambda o: o.key):
        bindings = "; ".join(b.signature() for b in operator.bindings)
        rows.append([operator.name, len(operator.bindings), bindings,
                     operator.ancillary_to])
    return ([("operator_name", VARCHAR2), ("binding_count", INTEGER),
             ("bindings", VARCHAR2), ("ancillary_to", VARCHAR2)],
            rows)


def _user_indextypes(catalog: Catalog):
    rows = []
    for indextype in sorted(catalog.indextypes.values(),
                            key=lambda i: i.key):
        rows.append([indextype.name,
                     ",".join(indextype.supported_operator_names()),
                     indextype.implementation_name,
                     indextype.stats_name])
    return ([("indextype_name", VARCHAR2), ("operators", VARCHAR2),
             ("implementation", VARCHAR2), ("statistics", VARCHAR2)],
            rows)


class _Stats(NamedTuple):
    """A statistics view: ``group(engine)`` is the counter group shown,
    or None when the engine runs without it, and then a default group of
    the class named by ``absent`` stands in and every gauge shows its
    default.  A gauge, ``(position, name, default, value(engine))``, is
    a column computed at query time and typed by its default; columns
    are only ever appended, so a gauge keeps the position it was first
    published at."""

    group: Callable[[Any], Any]
    absent: str = ""
    gauges: Tuple[Tuple[int, str, Any, Callable[[Any], Any]], ...] = ()


def _stats_view(engine: Any, spec: _Stats):
    group = spec.group(engine)
    present = group is not None
    if not present:  # imported here: most engines never need it
        module, __, name = spec.absent.rpartition(".")
        group = getattr(importlib.import_module(module), name)()
    columns, rows = _table(group, group.snapshot())
    for position, name, default, value in spec.gauges:
        cell = value(engine) if present else default
        columns.insert(position, (name, _SQL_TYPES[type(default)]))
        for row in rows:
            row.insert(position, cell)
    return columns, rows


def _table(group: Any, snap: Any):
    """The columns and rows of ``snap``, a snapshot of ``group``.

    A field is a column typed by its default.  A keyed group or field
    spreads into its key column and its record's columns, one row per
    key; a keyed field with no key yet gives one row with a NULL key,
    so the group's other counters still show.
    """
    if isinstance(group, Keyed):
        record = group.record()
        columns = _table(record, record.snapshot())[0]
        return ([(group.key, VARCHAR2)] + columns,
                [[key] + row for key in sorted(snap)
                 for row in _table(record, snap[key])[1]])
    columns: List[Tuple[str, Any]] = []
    rows: List[List[Any]] = [[]]
    for f in fields(group):
        value, data = getattr(group, f.name), snap[f.name]
        if isinstance(value, Keyed):
            more, cells = _table(
                value, data or {None: value.record().snapshot()})
        else:
            more = [(f.name, _SQL_TYPES.get(type(f.default), VARCHAR2))]
            cells = [[" ".join(f"{label}:{count}" for label, count
                               in data.items())
                      if isinstance(value, Histogram) else data]]
        columns += more
        rows = [row + cell for row in rows for cell in cells]
    return columns, rows


def _heads_tracked(engine: Any) -> int:
    """Rowids mapped right now over every table's version store."""
    with engine.catalog.latch:
        tables = list(engine.catalog.tables.values())
    return sum(len(table.storage.versions.tracked_rowids())
               for table in tables
               if getattr(table.storage, "versions", None) is not None)


#: every dictionary view.  A catalog view is its builder, which takes
#: the catalog; a statistics view is a :class:`_Stats` and does not
#: exist without an engine.
_VIEWS = {
    "user_tables": _user_tables,
    "user_indexes": _user_indexes,
    "user_operators": _user_operators,
    "user_indextypes": _user_indextypes,
    "user_index_maintenance": _Stats(lambda e: e.dispatcher.maintenance),
    "user_lock_stats": _Stats(lambda e: e.locks.stats),
    "user_snapshot_stats": _Stats(lambda e: e.mvcc.stats, gauges=(
        (10, "heads_tracked", 0, _heads_tracked),
        (12, "oldest_active_scn", 0,
         lambda e: e.mvcc.oldest_active_scn()),
        (13, "current_scn", 0, lambda e: e.mvcc.current_scn))),
    "user_wal_stats": _Stats(
        lambda e: e.durability and e.durability.wal.stats,
        "repro.storage.wal.WALStats", (
            (0, "enabled", False, lambda e: True),
            (12, "epoch", 0, lambda e: e.durability.wal.epoch),
            (13, "active_transactions", 0,
             lambda e: len(e.durability._att)),
            (14, "dirty_entries", 0, lambda e: len(e.durability._dpt)),
            (15, "failed", False, lambda e: e.durability.wal.failed))),
    "user_recovery_stats": _Stats(
        lambda e: e.recovery_stats,
        "repro.txn.recovery.RecoveryStats"),
    "user_server_stats": _Stats(
        lambda e: e.server_stats,
        "repro.server.server.ServerStats",
        ((0, "enabled", False, lambda e: True),)),
    "user_executor_stats": _Stats(lambda e: e.executor_stats),
    "user_io_stats": _Stats(lambda e: e.stats),
    "user_plan_cache_stats": _Stats(lambda e: e.plan_cache.stats),
    "user_odci_routine_stats": _Stats(lambda e: e.dispatcher.metrics),
}

#: Names served by :func:`dictionary_view`.
VIEW_NAMES = tuple(_VIEWS)
