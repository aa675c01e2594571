"""Shared plan cache (the library-cache analogue of Oracle8i's shared pool).

Compiled :class:`~repro.sql.planner.QueryPlan` objects are expensive to
produce — parsing, binding, and the cost-based choice between functional
and domain-index evaluation all consult the catalog and (for domain
indexes) ODCIStats routines.  The cache amortizes that work across
repeated executions of the same statement text — queries and DML alike
(a DML entry holds a :class:`~repro.sql.dml.PreparedDML`).

Key: ``(normalized SQL text, bind-variable signature)``.  Normalization
collapses whitespace outside quoted regions only — it never case-folds,
and it never touches the inside of ``'...'`` literals or ``"..."``
identifiers, so two statements that differ anywhere inside a quoted
region (case or spacing) never collide.

Validation: every entry records the :class:`~repro.sql.catalog.Catalog`
``version`` it was compiled against plus a per-table size signature.  A
lookup whose recorded version no longer matches the live catalog (any
DDL, ANALYZE, or operator/indextype re-registration bumps it) discards
the entry and reports a miss; likewise when a referenced non-analyzed
table has grown or shrunk enough to move cost estimates.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["PlanCache", "CachedPlan", "PlanCacheStats", "normalize_sql"]


def normalize_sql(sql: str) -> str:
    """Whitespace-collapsed statement text used as the cache-key text.

    Quote-aware: runs of whitespace collapse to a single space *outside*
    quoted regions only.  The inside of a ``'...'`` string literal (or a
    ``"..."`` quoted identifier) is preserved byte-for-byte — literals
    are frozen into the compiled plan, so two statements whose literals
    differ only in spacing must not share a cache slot.  A doubled quote
    (``''``) is the SQL escape and stays inside the region.

    Deliberately does NOT lower-case: string literals are
    case-significant, and the parser already case-folds identifiers.
    """
    out = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in ("'", '"'):
            j = i + 1
            while j < n:
                if sql[j] == ch:
                    if j + 1 < n and sql[j + 1] == ch:  # escaped quote
                        j += 2
                        continue
                    j += 1
                    break
                j += 1
            out.append(sql[i:j])
            i = j
        elif ch.isspace():
            while i < n and sql[i].isspace():
                i += 1
            if out and i < n:  # no leading/trailing separator
                out.append(" ")
        else:
            out.append(ch)
            i += 1
    return "".join(out)


@dataclass
class PlanCacheStats:
    """Running counters, surfaced via ``db.plan_cache.stats``."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    stores: int = 0

    def reset(self) -> None:
        self.lookups = self.hits = self.misses = 0
        self.invalidations = self.evictions = self.stores = 0


@dataclass
class CachedPlan:
    """One compiled statement held in the cache.

    The plan carries the generated-function factories produced by
    :func:`repro.sql.compile.compile_plan` on its nodes; each execution
    calls them with its own bind values, so sharing one entry across
    sessions executing with different bind sets is safe.
    """

    #: the compiled QueryPlan (shared across executions — treat read-only)
    plan: object
    #: Catalog.version the plan was compiled against
    catalog_version: int
    #: ((table_key, size_bucket), ...) for referenced non-analyzed tables
    table_sig: Tuple[Tuple[str, int], ...]
    #: bind names the plan expects (sorted)
    bind_names: Tuple[str, ...]
    #: original (un-normalized) statement text, for diagnostics
    sql: str
    #: the parsed statement: a hit re-runs the callback ``check`` hook
    #: on it, since DML (which callback phases restrict) is cached too
    statement: object = None
    hits: int = field(default=0)


class PlanCache:
    """LRU cache of compiled plans keyed on (normalized SQL, bind signature)."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, Tuple[str, ...]], CachedPlan]" \
            = OrderedDict()
        self.stats = PlanCacheStats()
        #: latch: the cache is engine-wide, probed by every session; the
        #: LRU OrderedDict and the counters mutate on every lookup
        self._latch = threading.RLock()

    def __len__(self) -> int:
        with self._latch:
            return len(self._entries)

    # -- key helpers -----------------------------------------------------

    @staticmethod
    def key_for(normalized_sql: str,
                bind_signature: Tuple[str, ...]) -> Tuple[str, Tuple[str, ...]]:
        return (normalized_sql, bind_signature)

    # -- core operations -------------------------------------------------

    def lookup(self, normalized_sql: str, bind_signature: Tuple[str, ...],
               catalog) -> Optional[CachedPlan]:
        """Return a still-valid cached plan, or ``None`` (a miss).

        A stale entry (catalog version moved on, or a referenced
        non-analyzed table changed size bucket) is dropped and counted
        as an invalidation + miss.
        """
        with self._latch:
            self.stats.lookups += 1
            key = self.key_for(normalized_sql, bind_signature)
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if not self._is_valid(entry, catalog):
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.stats.hits += 1
            return entry

    def store(self, normalized_sql: str, bind_signature: Tuple[str, ...],
              entry: CachedPlan) -> None:
        """Insert ``entry``, evicting the least-recently-used if full."""
        key = self.key_for(normalized_sql, bind_signature)
        with self._latch:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._latch:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    # -- validation ------------------------------------------------------

    def _is_valid(self, entry: CachedPlan, catalog) -> bool:
        if entry.catalog_version != catalog.version:
            return False
        for table_key, bucket in entry.table_sig:
            table = catalog.tables.get(table_key)
            if table is None:
                return False
            if size_bucket(table.storage.row_count) != bucket:
                return False
        return True


def size_bucket(row_count: int) -> int:
    """Logarithmic bucket of a table's live row count.

    Plans over non-ANALYZEd tables are costed from live storage counts;
    the bucket lets such plans survive small data drift but forces a
    replan once the table has grown/shrunk past a power of two.
    """
    return int(row_count).bit_length()
