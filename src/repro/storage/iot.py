"""Index-organized tables (IOTs).

Section 1 of the paper lists IOTs as a framework component: "an index is
modeled as a table, where each row is an index entry", and §2.5 reports
that "index-organized tables are commonly used as index data stores" —
the text cartridge stores its inverted index in one.

An IOT here is a unique B+-tree whose key is a prefix of the row and
whose payload is the rest of the row.  A row's address is its key: like
Oracle8i's logical rowids, a :class:`LogicalRowId` carries the table's
segment and the primary key, so a fetch is one descent, the table keeps
no state per row outside its tree, and a rowid read before a restart
finds the same row after it.  An update never changes the key (the DML
layer deletes and re-inserts a row whose key changes).

A row costs the tree one key tuple and one payload tuple, and every
insert hands them over as two columns
(:meth:`IndexOrganizedTable.insert_bulk`) — no row is built to be
split.  A row handed out one at a time is a
fresh list; a scan hands its rows over as columns instead
(:meth:`IndexOrganizedTable.prefix_batches`; a full scan is the empty
prefix), with no object per row.
"""

from __future__ import annotations

import threading
from itertools import repeat
from operator import add, eq, ge, gt, itemgetter, le, lt
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConstraintError, InvalidRowIdError
from repro.storage.buffer import BufferCache
from repro.storage.heap import live_rows
from repro.index.btree import BTree
from repro.txn.mvcc import KeyedVersionStore, Snapshot


def _by_sort_key(op: Callable[[Any, Any], bool]):
    """``op`` over two logical rowids' ``sort_key``s (no other kind)."""
    def compare(self, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return op(self.sort_key, other.sort_key)
        return NotImplemented
    return compare


class LogicalRowId:
    """An IOT row's address: (segment, primary key).

    Hashable, picklable, and ordered by key within one table: hash,
    equality and order are those of ``sort_key``, ``(segment_id, key)``.
    It equals no heap rowid (a plain ``(segment, page, slot)`` tuple)
    and does not order against one.
    """

    __slots__ = ("segment_id", "key", "sort_key")

    def __init__(self, segment_id: int, key: Tuple[Any, ...]):
        self.segment_id = segment_id
        self.key = key
        self.sort_key = (segment_id, key)

    def __hash__(self) -> int:
        return hash(self.sort_key)

    __eq__ = _by_sort_key(eq)
    __lt__ = _by_sort_key(lt)
    __le__ = _by_sort_key(le)
    __gt__ = _by_sort_key(gt)
    __ge__ = _by_sort_key(ge)

    def __reduce__(self):
        return LogicalRowId, (self.segment_id, self.key)

    def __repr__(self) -> str:
        return f"LRID({self.segment_id}:{self.key!r})"


class KeyRowIds:
    """The logical rowids of a batch of the producer's key tuples, in
    their order.  A :class:`LogicalRowId` is built only when an item is
    read (as :class:`~repro.storage.heap.PageRowIds` does for a heap
    page), so compare items with ``==``, never ``is``."""

    __slots__ = ("segment_id", "keys")

    def __init__(self, segment_id: int, keys: Sequence[Tuple[Any, ...]]):
        self.segment_id = segment_id
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i: int) -> LogicalRowId:
        return LogicalRowId(self.segment_id, self.keys[i])

    def __iter__(self) -> Iterator[LogicalRowId]:
        return map(LogicalRowId, repeat(self.segment_id), self.keys)


class _Top:
    """Orders above every other value: ``prefix + (_TOP,)`` is a bound
    past every key that starts with ``prefix``.  (Tuples compare their
    first unequal items with ``<`` / ``>``; a key column's value defers
    to these reflections.)"""

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return False

    def __gt__(self, other: Any) -> bool:
        return True


_TOP = _Top()


def _prefix_bounds(prefix: List[Any], low: Any, high: Any
                   ) -> Tuple[Tuple[Any, ...], Tuple[Any, ...], bool, bool]:
    """``BTree.range_scan`` arguments for the keys that start with
    ``prefix`` and whose next column lies in ``[low, high]`` (None: no
    bound on that side)."""
    prefix = tuple(prefix)
    return (prefix if low is None else prefix + (low,),
            prefix + ((_TOP,) if high is None else (high, _TOP)),
            True, False)


class IndexOrganizedTable:
    """A table stored as a unique B+-tree on its first ``key_width``
    columns.

    Unlike a heap table, rows live in key order: a range scan over the
    key prefix is the native access path.  Node visits are charged to the
    shared buffer-cache statistics as logical reads.
    """

    def __init__(self, buffer_cache: BufferCache, key_width: int,
                 name: str = "?", segment_id: Optional[int] = None):
        if key_width < 1:
            raise ConstraintError("IOT key width must be >= 1")
        self.buffer = buffer_cache
        self.name = name
        self.key_width = key_width
        # Recovery re-creates IOTs with their original segment ids so
        # durable dumps, WAL records and logical rowids keep addressing
        # them.
        self.segment_id = (segment_id if segment_id is not None
                           else buffer_cache.allocate_segment())
        self._tree = BTree(unique=True, touch=buffer_cache.stats.count_reads)
        #: LSN of the last WAL record applied to the tree; IOT redo is
        #: logical (a record carries whole rows), so the whole table
        #: carries one applied-LSN watermark instead of per-page stamps.
        #: Persisted as the durable dump's snap_lsn.
        self.applied_lsn = 0
        #: True when the tree changed since the last durable dump
        self.dump_dirty = False
        #: MVCC version chains keyed by logical rowid; its fences cover
        #: the keys inserted under them
        self.versions = KeyedVersionStore()
        #: *ghosts*: the keys some snapshot may still see a row under
        #: although the tree no longer holds one (deleted, and not
        #: re-inserted).  Snapshot scans walk them with the same bounds
        #: as the tree; a key in the tree is never a ghost.
        self._ghosts = BTree(unique=True)
        #: guards tree and ghosts against snapshot readers; DML is
        #: already single-writer per table (X lock), but snapshot scans
        #: materialize concurrently with writers
        self._latch = threading.Lock()

    # -- DML ------------------------------------------------------------

    def _split_row(self, row: List[Any]
                   ) -> Tuple[Tuple[Any, ...], Tuple[Any, ...]]:
        kw = self.key_width
        return tuple(row[:kw]), tuple(row[kw:])

    def insert_bulk(self, keys: List[Tuple[Any, ...]],
                    payloads: List[Tuple[Any, ...]], txn: Any,
                    presorted: bool = False) -> Tuple[KeyRowIds, list]:
        """Insert aligned key and payload tuples as ``txn``'s batch;
        returns the rowids in input order and the ``(rowid, version)``
        pairs chained over ghosts.  A key already in the tree, or twice
        in the batch, raises :class:`ConstraintError` with table and
        store as they were.  A key over a ghost keeps a pushed version,
        and every other key joins ``txn``'s fence (the caller registered
        it), in the latch hold the tree takes the entries in: a snapshot
        scan misses an entry or finds it fenced or chained.
        An empty tree is built bottom-up; ``presorted`` then promises
        strictly increasing keys (verified by the tree): no sort."""
        tree, ghosts, segment_id = self._tree, self._ghosts, self.segment_id
        chained = []
        with self._latch:
            if tree.entry_count:
                tree.insert_batch(list(zip(keys, payloads)))
            elif presorted:
                tree.bulk_load_sorted(keys, payloads)
            else:
                tree.bulk_load_columns(keys, payloads)
            fresh = keys
            if ghosts.entry_count:
                fresh = []
                for key, payload in zip(keys, payloads):
                    if not ghosts.delete(key):
                        fresh.append(key)
                    else:
                        rowid = LogicalRowId(segment_id, key)
                        chained.append((rowid, self.versions.push(
                            rowid, key + payload, None, txn)))
            self.versions.fence_keys(txn, fresh)
        self.buffer.stats.logical_writes += len(keys)
        return KeyRowIds(segment_id, keys), chained

    def delete_bulk(self, rowids: KeyRowIds, chained: list) -> None:
        """Undo :meth:`insert_bulk`: the batch's keys leave the tree (a
        key over a ghost is a ghost again), then — so no snapshot
        resolves past them to an entry still there — their fence entries
        and chained versions go."""
        over_ghosts = {rowid.key for rowid, __ in chained}
        with self._latch:
            for key in over_ghosts:
                self._ghosts.insert(key, None)
            delete = self._tree.delete
            for key in rowids.keys:
                delete(key)
        self.versions.unfence([key for key in rowids.keys
                               if key not in over_ghosts])
        for rowid, version in chained:
            self.versions.pop(rowid, version)

    def _current(self, rowid: Any) -> Optional[List[Any]]:
        """The row stored under ``rowid``'s key, or None (also for a
        rowid of another table): one descent."""
        if (rowid.__class__ is not LogicalRowId
                or rowid.segment_id != self.segment_id):
            return None
        payloads = self._tree.search(rowid.key)
        return list(rowid.key) + list(payloads[0]) if payloads else None

    def fetch(self, rowid: LogicalRowId) -> List[Any]:
        """The row at ``rowid``; raises for a key no longer stored."""
        row = self._current(rowid)
        if row is None:
            raise InvalidRowIdError(
                f"{rowid} does not identify a live row of IOT {self.name}")
        return row

    def fetch_batch(self, rowids: List[Any],
                    snapshot: Optional[Snapshot] = None
                    ) -> Tuple[List[LogicalRowId], List[List[Any]]]:
        """``(rowids, rows)`` for the live ones of ``rowids`` in the
        caller's order (dead, invisible and foreign ones dropped): the
        table's one read by rowid.  Every current row is read in one
        hold of the latch, and only then does a ``snapshot`` consult the
        store, whose version chains win over the tree."""
        segment_id, versions = self.segment_id, self.versions

        def read():
            with self._latch:  # concurrent writers restructure the tree
                found = [rowid for rowid in rowids
                         if rowid.__class__ is LogicalRowId
                         and rowid.segment_id == segment_id]
                rows = list(map(self._current, found))
            if snapshot is not None:
                rows = versions.resolve_batch(found, rows, snapshot)
            return found, rows

        return live_rows(*(read() if snapshot is None
                           else versions.read(read, snapshot)))

    def update(self, rowid: LogicalRowId, row: List[Any]) -> List[Any]:
        """Replace the payload of the row at ``rowid``; returns the old
        row.  The key is the rowid, so a new key is refused: the caller
        deletes the row and inserts it under the new key."""
        old = self.fetch(rowid)
        key, payload = self._split_row(row)
        if key != rowid.key:
            raise ConstraintError(
                f"IOT {self.name}: an update cannot move {rowid} to key "
                f"{key!r}; delete and re-insert the row")
        with self._latch:
            self._tree.delete(key)
            self._tree.insert(key, payload)
        self.buffer.stats.logical_writes += 1
        return old

    def delete(self, rowid: LogicalRowId) -> List[Any]:
        """Delete the row at ``rowid``; returns the old row."""
        old = self.fetch(rowid)
        with self._latch:
            # ghost first: if it fails, the tree is as it was
            self._ghosts.insert(rowid.key, None)
            self._tree.delete(rowid.key)
        self.buffer.stats.logical_writes += 1
        return old

    def undelete(self, rowid: LogicalRowId, row: List[Any]) -> None:
        """Restore a deleted row (rollback)."""
        key, payload = self._split_row(row)
        with self._latch:
            self._tree.insert(key, payload)
            self._ghosts.delete(key)

    def truncate(self) -> None:
        """Discard every row."""
        with self._latch:
            self._tree.clear()
            self.versions.clear()
            self._ghosts.clear()
            # not WAL-logged (DDL), so the next checkpoint must rewrite
            # the durable dump or recovery would resurrect the old rows
            self.dump_dirty = True

    # -- scans ------------------------------------------------------------

    def scan_batches(self, snapshot: Optional[Snapshot] = None
                     ) -> Iterator[Tuple[KeyRowIds, List[Sequence[Any]]]]:
        """Full scan in key order: the walk of :meth:`prefix_batches`
        with an empty prefix, one batch of every row."""
        return self._batches(_prefix_bounds([], None, None), snapshot)

    def prefix_batches(self, prefix: List[Any], low: Any = None,
                       high: Any = None, snapshot: Optional[Snapshot] = None
                       ) -> Iterator[Tuple[KeyRowIds, List[Sequence[Any]]]]:
        """The rows whose key starts with ``prefix``, in key order, as
        ``(rowids, columns)`` batches: ``columns[c][i]`` is column ``c``
        of row ``i``, built straight from the key and payload tuples.

        This is the IOT's native access path for queries like
        ``WHERE token = :1`` on a ``(token, rid)``-keyed table — a
        B-tree descent plus a bounded leaf walk, not a full scan; a
        prefix as wide as the key is one descent.  ``low`` / ``high``
        bound the key column after the prefix (both inclusive): the
        walk starts at ``prefix + (low,)`` and stops past ``high``.
        They must order against that column's stored values as SQL
        does, and a caller still tests the predicate they came from.
        ``rowids`` is a :class:`KeyRowIds` over the same key tuples.
        """
        return self._batches(_prefix_bounds(prefix, low, high), snapshot)

    def _batches(self, bounds: Tuple[Any, Any, bool, bool],
                 snapshot: Optional[Snapshot]
                 ) -> Iterator[Tuple[KeyRowIds, List[Sequence[Any]]]]:
        """The rows in ``bounds`` as one ``(rowids, columns)`` batch."""
        rowids, keys, payloads = self._read(bounds, snapshot)
        if keys:
            yield rowids, [*zip(*keys), *zip(*payloads)]

    def _entries(self, bounds: Tuple[Any, Any, bool, bool]
                 ) -> Tuple[List[Tuple[Any, ...]], List[Tuple[Any, ...]]]:
        """The keys and payloads of the tree's entries in ``bounds``, a
        leaf slice at a time (caller holds the latch)."""
        keys: List[Tuple[Any, ...]] = []
        payloads: List[Tuple[Any, ...]] = []
        for run, values in self._tree.range_slices(*bounds):
            keys += run
            payloads += values
        return keys, payloads

    def _read(self, bounds: Tuple[Any, Any, bool, bool],
              snapshot: Optional[Snapshot]
              ) -> Tuple[KeyRowIds, List[Tuple[Any, ...]],
                         List[Tuple[Any, ...]]]:
        """``(rowids, keys, payloads)`` of the rows in ``bounds``, aligned
        and in key order: as the tree holds them, or as ``snapshot``
        sees them.

        The tree's entries in bounds are read under the structure latch
        (writers restructure the tree mid-flight otherwise).  When the
        store has nothing mapped and no ghost lies in bounds, they are
        the snapshot's answer as they stand.  Otherwise each row is
        resolved through its version chain (a row without one is as the
        tree holds it), and so is each ghost in bounds — a key some
        snapshot may still see a row under — and the visible ghosts are
        merged in key order.  A version never moves a row to another
        key, so what resolves in bounds stays there.  The cost is the
        entries and ghosts in bounds, whatever the table's history.
        """
        if snapshot is None:
            with self._latch:
                keys, payloads = self._entries(bounds)
            return KeyRowIds(self.segment_id, keys), keys, payloads
        return self.versions.read(
            lambda: self._read_entries(bounds, snapshot), snapshot)

    def _read_entries(self, bounds: Tuple[Any, Any, bool, bool],
                      snapshot: Snapshot):
        """One attempt at :meth:`_read` under a snapshot: read the tree,
        then consult the store."""
        with self._latch:
            keys, payloads = self._entries(bounds)
            ghosts = [key for key, __ in self._ghosts.range_scan(*bounds)] \
                if self._ghosts.entry_count else []
        if not ghosts and self.versions.settled(snapshot):
            return KeyRowIds(self.segment_id, keys), keys, payloads
        keys += ghosts
        values = self.versions.resolve_batch(
            KeyRowIds(self.segment_id, keys),
            list(map(add, keys, payloads)) + [None] * len(ghosts), snapshot)
        live = [(key, value) for key, value in zip(keys, values)
                if value is not None]
        if ghosts:
            live.sort(key=itemgetter(0))
        kw = self.key_width
        keys = [key for key, __ in live]
        return (KeyRowIds(self.segment_id, keys), keys,
                [tuple(value[kw:]) for __, value in live])

    def locate(self, key_values: Any
               ) -> Optional[Tuple[LogicalRowId, List[Any]]]:
        """(rowid, full row) stored under an exact key, or None: one
        descent, current mode."""
        rowid = LogicalRowId(self.segment_id, tuple(key_values))
        row = self._current(rowid)
        return None if row is None else (rowid, row)

    # -- durability support ------------------------------------------------

    def stamp_lsn(self, lsn: int) -> None:
        """Advance the applied-LSN watermark (a WAL record hit this tree)."""
        if lsn > self.applied_lsn:
            self.applied_lsn = lsn
        self.dump_dirty = True

    def dump_columns(self) -> List[List[Any]]:
        """The table as columns, key columns first, rows in key order,
        for a durable dump (latched).

        Columns, not rows: no object per row is built, and pickling
        memoises a few lists instead of a tuple and a list per row —
        the pickler's memo for a row-shaped image was several times
        the size of the image itself.
        """
        columns: List[List[Any]] = []
        with self._latch:
            for key, payload in self._tree.items():
                if not columns:
                    columns = [[] for __ in range(len(key) + len(payload))]
                for column, value in zip(columns, key + payload):
                    column.append(value)
        return columns

    def load_columns(self, columns: List[List[Any]], snap_lsn: int) -> None:
        """Replace the tree with a recovered dump image."""
        kw = self.key_width
        with self._latch:
            self._tree.clear()
            self._ghosts.clear()
            for row in zip(*columns):
                self._tree.insert(row[:kw], row[kw:])
            self.applied_lsn = snap_lsn
            self.dump_dirty = False

    def recover_insert(self, row: List[Any]) -> None:
        """Redo/undo replay: store ``row`` without MVCC tracking,
        replacing a row already under its key (a record replayed against
        a fuzzier-than-stamped dump must not fail or double)."""
        key, payload = self._split_row(row)
        with self._latch:
            self._tree.delete(key)
            self._tree.insert(key, payload)

    def recover_delete(self, row: List[Any]) -> None:
        """Redo/undo replay: delete by full row; a row that is not there
        is skipped (replay against a fuzzy image may target an
        already-gone row)."""
        key, payload = self._split_row(row)
        with self._latch:
            self._tree.delete(key, payload)

    # -- statistics --------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of rows (== B-tree entries)."""
        return self._tree.entry_count

    @property
    def page_count(self) -> int:
        """Approximate node count, used by the optimizer's cost model."""
        return max(1, self._tree.entry_count // 32)

    # -- ghosts ---------------------------------------------------------------

    def prune(self, lwm: int, stats=None) -> int:
        """:meth:`VersionStore.prune` for this table's store, then drop
        the ghosts no snapshot can see any more.

        A ghost whose rowid the pass left unmapped is a key every
        snapshot sees as the tree has it — gone — so it cannot put a row
        into a scan.  The structure latch is held across both steps: a
        writer chains its version before it enters :meth:`delete`, so a
        ghost registered after the store was examined belongs to a
        mapped rowid and cannot be dropped by this pass.
        """
        with self._latch:
            removed = self.versions.prune(lwm, stats)
            if self._ghosts.entry_count:
                tracked = self.versions.tracked
                segment_id = self.segment_id
                for key in [key for key, __ in self._ghosts.items()
                            if not tracked(LogicalRowId(segment_id, key))]:
                    self._ghosts.delete(key)
                if not self._ghosts.entry_count:
                    self._ghosts.clear()  # deletes leave empty leaves
        return removed

    @property
    def ghost_count(self) -> int:
        """Keys in the ghost set (what a snapshot scan overlays)."""
        return self._ghosts.entry_count
