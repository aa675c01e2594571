"""Index-organized tables (IOTs).

Section 1 of the paper lists IOTs as a framework component: "an index is
modeled as a table, where each row is an index entry", and §2.5 reports
that "index-organized tables are commonly used as index data stores" —
the text cartridge stores its inverted index in one.

An IOT here is a B+-tree whose key is a prefix of the row and whose
payload is the rest of the row.  Rows are addressed by logical rowids
(their key), but we also hand out :class:`~repro.storage.heap.RowId`-like
surrogate ids so the executor can treat heap tables and IOTs uniformly.

Key and payload are both tuples, and the tree is unique, so it stores
the payload as it is: a row costs the tree one key tuple and one payload
tuple.  A payload of plain values (numbers, strings) holds no reference
the cyclic garbage collector must follow, so it stops being tracked at
its first collection; only a key holding a rowid stays tracked.  A row
handed out one at a time is a fresh list, ``list(key) + list(payload)``;
a prefix scan hands its rows over as columns instead
(:meth:`IndexOrganizedTable.prefix_batches`), transposed from the key
and payload tuples with no object built per row.
"""

from __future__ import annotations

import threading
from operator import add, itemgetter
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConstraintError, InvalidRowIdError
from repro.storage.buffer import BufferCache
from repro.storage.heap import PageRowIds, RowId
from repro.index.btree import BTree
from repro.txn.mvcc import Snapshot, VersionStore


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


def _range_test(low, high, low_inclusive, high_inclusive):
    """The bounds of ``BTree.range_scan`` as a test on one key."""
    def in_range(key):
        if low is not None:
            if key < low or (key == low and not low_inclusive):
                return False
        if high is not None:
            if key > high or (key == high and not high_inclusive):
                return False
        return True
    return in_range


class IndexOrganizedTable:
    """A table stored as a B+-tree on its first ``key_width`` columns.

    Unlike a heap table, rows live in key order: a range scan over the
    key prefix is the native access path.  Node visits are charged to the
    shared buffer-cache statistics as logical reads.
    """

    def __init__(self, buffer_cache: BufferCache, key_width: int,
                 name: str = "?", unique: bool = True,
                 segment_id: Optional[int] = None):
        if key_width < 1:
            raise ConstraintError("IOT key width must be >= 1")
        self.buffer = buffer_cache
        self.name = name
        self.key_width = key_width
        self.unique = unique
        # Recovery re-creates IOTs with their original segment ids so
        # durable dumps and WAL records keep addressing them.
        self.segment_id = (segment_id if segment_id is not None
                           else buffer_cache.allocate_segment())
        self._tree = BTree(unique=unique, touch=self._touch)
        #: LSN of the last WAL record applied to the tree; IOT redo is
        #: logical (surrogates don't survive restarts), so the whole
        #: table carries one applied-LSN watermark instead of per-page
        #: stamps.  Persisted as the durable dump's snap_lsn.
        self.applied_lsn = 0
        #: True when the tree changed since the last durable dump
        self.dump_dirty = False
        # surrogate rowid <-> key mapping for executor uniformity.
        # Surrogates are numbered densely, so rowid -> key is a list
        # indexed by slot number (less what TRUNCATE retired), and key ->
        # rowid keeps the slot number
        self._key_of_surrogate: List[Optional[Tuple[Any, ...]]] = []
        self._surrogate_base = 0
        self._surrogate_of_key: dict = {}
        self._next_surrogate = 0
        #: MVCC version chains keyed by surrogate rowid
        self.versions = VersionStore()
        #: *ghosts*: ``key -> surrogate`` for every tracked surrogate
        #: that some snapshot may still see under ``key`` although the
        #: tree no longer holds it there (deleted, or moved by a
        #: key-changing update).  Snapshot scans walk it with the same
        #: bounds as the tree; rows still in the tree are found by the
        #: tree walk and need no entry here.
        self._ghosts = BTree(unique=False)
        #: guards tree + surrogate maps against snapshot readers; DML is
        #: already single-writer per table (X lock), but snapshot scans
        #: materialize concurrently with writers.  Reentrant: the scan
        #: paths allocate surrogates while holding it.
        self._latch = threading.RLock()

    def _touch(self, nodes: int) -> None:
        self.buffer.stats.logical_reads += nodes

    # -- DML ------------------------------------------------------------

    def _split_row(self, row: List[Any]
                   ) -> Tuple[Tuple[Any, ...], Tuple[Any, ...]]:
        kw = self.key_width
        return tuple(row[:kw]), tuple(row[kw:])

    def insert(self, row: List[Any], on_rowid=None) -> RowId:
        """Insert ``row``; its first ``key_width`` values form the key.

        ``on_rowid`` (MVCC) is invoked with the surrogate rowid *before*
        the tree mutates, under the structure latch, so a concurrent
        snapshot scan either misses the entry or finds its version chain
        already registered — never a bare uncommitted row.
        """
        key, payload = self._split_row(row)
        with self._latch:
            rid = self._surrogate(key)
            if on_rowid is not None:
                on_rowid(rid)
            self._tree.insert(key, payload)
            self._drop_ghost(key, rid)
        self.buffer.stats.logical_writes += 1
        return rid

    def insert_bulk(self, rows: List[List[Any]],
                    with_rowids: bool = True,
                    presorted: bool = False) -> Optional[List[RowId]]:
        """Insert ``rows`` via the B-tree's sorted bulk build.

        Only valid on an empty IOT (the bulk build replaces the tree
        wholesale); callers gate on ``row_count == 0``.  Returns the
        surrogate rowids in input order, or None when ``with_rowids``
        is False — surrogates then materialize lazily on first scan,
        which is what direct-path loads of secondary-index-free tables
        want (the rowids would otherwise be built and thrown away).
        ``presorted`` promises the rows already arrive in strictly
        increasing key order (verified by the tree), skipping the sort
        and duplicate-grouping passes entirely.
        """
        if self._tree.entry_count:
            raise ConstraintError(
                f"bulk load requires empty IOT {self.name}")
        kw = self.key_width
        if kw == 1:
            keys = [(row[0],) for row in rows]
        else:
            key_of = itemgetter(*range(kw))  # C-level key extraction
            keys = [key_of(row) for row in rows]
        payloads = list(map(tuple, map(itemgetter(slice(kw, None)), rows)))
        with self._latch:
            if presorted:
                self._tree.bulk_load_sorted(keys, payloads)
            else:
                self._tree.bulk_load(zip(keys, payloads))
        self.buffer.stats.logical_writes += len(rows)
        if not with_rowids:
            return None
        with self._latch:
            return [self._surrogate(key) for key in keys]

    def fetch(self, rowid: RowId) -> List[Any]:
        """Fetch by surrogate rowid (first match under the key)."""
        key = self._key_of(rowid)
        if key is None:
            raise InvalidRowIdError(f"{rowid} is not a rowid of IOT {self.name}")
        payloads = self._tree.search(key)
        if not payloads:
            raise InvalidRowIdError(f"{rowid}: key {key!r} no longer present")
        return list(key) + list(payloads[0])

    def fetch_or_none(self, rowid: RowId,
                      snapshot: Optional[Snapshot] = None
                      ) -> Optional[List[Any]]:
        """Like :meth:`fetch` but returns None for a dead surrogate.

        With a ``snapshot``, the surrogate's version chain wins over the
        tree: the caller sees the row as of the snapshot's SCN.
        """
        if snapshot is None:
            try:
                return self.fetch(rowid)
            except InvalidRowIdError:
                return None

        def read():
            with self._latch:  # concurrent writers restructure the tree
                try:
                    current = self.fetch(rowid)
                except InvalidRowIdError:
                    current = None
            return self.versions.resolve(rowid, current, snapshot)

        return self.versions.read(read, snapshot)

    def update(self, rowid: RowId, row: List[Any]) -> List[Any]:
        """Replace the row at ``rowid``; key changes re-insert the entry."""
        old = self.fetch(rowid)
        old_key, old_payload = self._split_row(old)
        new_key, new_payload = self._split_row(row)
        with self._latch:
            self._tree.delete(old_key, old_payload)
            self._tree.insert(new_key, new_payload)
            if new_key != old_key:
                self._rebind_surrogate(rowid, old_key, new_key)
                self._ghosts.insert(old_key, rowid)
                self._drop_ghost(new_key, rowid)
        self.buffer.stats.logical_writes += 1
        return old

    def delete(self, rowid: RowId) -> List[Any]:
        """Delete the row at ``rowid``; returns the old row."""
        old = self.fetch(rowid)
        key, payload = self._split_row(old)
        with self._latch:
            self._tree.delete(key, payload)
            self._ghosts.insert(key, rowid)
        self.buffer.stats.logical_writes += 1
        return old

    def undelete(self, rowid: RowId, row: List[Any]) -> None:
        """Restore a deleted row under its original surrogate (rollback)."""
        key, payload = self._split_row(row)
        with self._latch:
            self._tree.insert(key, payload)
            self._key_of_surrogate[rowid.slot - self._surrogate_base] = key
            self._surrogate_of_key.setdefault(key, rowid.slot)
            self._drop_ghost(key, rowid)

    def delete_by_key(self, key_values: List[Any]) -> int:
        """Delete every row matching a full key; returns the count."""
        key = tuple(key_values)
        with self._latch:
            removed = len(self._tree.search(key))
            if removed:
                self._tree.delete(key)
        if removed:
            self.buffer.stats.logical_writes += 1
        return removed

    def truncate(self) -> None:
        """Discard every row."""
        with self._latch:
            self._tree.clear()
            self._key_of_surrogate.clear()
            self._surrogate_base = self._next_surrogate
            self._surrogate_of_key.clear()
            self.versions.clear()
            self._ghosts.clear()
            # not WAL-logged (DDL), so the next checkpoint must rewrite
            # the durable dump or recovery would resurrect the old rows
            self.dump_dirty = True

    # -- scans ------------------------------------------------------------

    def scan(self, snapshot: Optional[Snapshot] = None
             ) -> Iterator[Tuple[RowId, List[Any]]]:
        """Scan in key order, yielding (surrogate rowid, full row)."""
        return self._rows((None, None, True, True), snapshot)

    def key_range_scan(self, low: Optional[Tuple[Any, ...]] = None,
                       high: Optional[Tuple[Any, ...]] = None,
                       low_inclusive: bool = True,
                       high_inclusive: bool = True,
                       snapshot: Optional[Snapshot] = None,
                       ) -> Iterator[Tuple[RowId, List[Any]]]:
        """Scan rows whose key lies in [low, high] (tuple bounds)."""
        return self._rows((low, high, low_inclusive, high_inclusive),
                          snapshot)

    def key_prefix_scan(self, prefix: List[Any],
                        snapshot: Optional[Snapshot] = None
                        ) -> Iterator[Tuple[RowId, List[Any]]]:
        """Scan rows whose key starts with ``prefix`` (in key order): the
        rows of :meth:`prefix_batches`, one ``(rowid, row)`` pair each."""
        return self._rows(_prefix_bounds(prefix, None, None), snapshot)

    def prefix_batches(self, prefix: List[Any], low: Any = None,
                       high: Any = None, snapshot: Optional[Snapshot] = None
                       ) -> Iterator[Tuple[PageRowIds, List[Sequence[Any]]]]:
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
        ``rowids`` builds a surrogate ``RowId`` only for an item read.
        """
        rowids, keys, payloads = self._read(
            _prefix_bounds(prefix, low, high), snapshot)
        if keys:
            yield rowids, [*zip(*keys), *zip(*payloads)]

    def _rows(self, bounds: Tuple[Any, Any, bool, bool],
              snapshot: Optional[Snapshot]
              ) -> Iterator[Tuple[RowId, List[Any]]]:
        """``(rowid, row)`` for the rows in ``bounds`` (the arguments of
        ``BTree.range_scan``); streamed from the tree in current mode."""
        if snapshot is None:
            for key, payload in self._tree.range_scan(*bounds):
                yield self._surrogate(key), list(key) + list(payload)
            return
        rowids, keys, payloads = self._read(bounds, snapshot)
        yield from zip(rowids, map(list, map(add, keys, payloads)))

    def _entries(self, bounds: Tuple[Any, Any, bool, bool]
                 ) -> Tuple[List[Tuple[Any, ...]], List[Tuple[Any, ...]]]:
        """The keys and payloads of the tree's entries in ``bounds``, a
        leaf slice at a time (caller holds the latch)."""
        keys: List[Tuple[Any, ...]] = []
        payloads: List[Tuple[Any, ...]] = []
        for run, values in self._tree.range_slices(*bounds):
            if not self.unique:  # a key's payloads are one entry each
                run = [key for key, group in zip(run, values) for __ in group]
                values = [payload for group in values for payload in group]
            keys += run
            payloads += values
        return keys, payloads

    def _read(self, bounds: Tuple[Any, Any, bool, bool],
              snapshot: Optional[Snapshot]
              ) -> Tuple[Sequence[RowId], List[Tuple[Any, ...]],
                         List[Tuple[Any, ...]]]:
        """``(rowids, keys, payloads)`` of the rows in ``bounds``, aligned
        and in key order: as the tree holds them, or as ``snapshot``
        sees them.

        The tree's entries in bounds are read under the structure latch
        (writers restructure the tree mid-flight otherwise).  When the
        store has nothing mapped and no ghost lies in bounds, they are
        the snapshot's answer as they stand.  Otherwise each row whose
        surrogate has a version chain is resolved through it (the
        others are as the tree holds them); the ghosts in bounds —
        surrogates some snapshot may still see under a key the tree no
        longer holds for them — are walked with the same bounds and
        overlaid, every row is bounds-checked against its *resolved*
        key, and the merge re-sorted into key order.  The cost is the
        entries and ghosts in bounds, whatever the table's history.
        """
        if snapshot is None:
            with self._latch:
                keys, payloads = self._entries(bounds)
                return self._rowids(keys), keys, payloads
        return self.versions.read(
            lambda: self._read_entries(bounds, snapshot), snapshot)

    def _read_entries(self, bounds: Tuple[Any, Any, bool, bool],
                      snapshot: Snapshot):
        """One attempt at :meth:`_read` under a snapshot: read the tree,
        then consult the store."""
        kw = self.key_width
        versions = self.versions
        with self._latch:
            keys, payloads = self._entries(bounds)
            rowids = self._rowids(keys)
            ghosts = [rid for __, rid in self._ghosts.range_scan(*bounds)] \
                if self._ghosts.entry_count else ()
        if not ghosts and versions.settled(snapshot):
            return rowids, keys, payloads
        rids = list(rowids)
        values = versions.resolve_batch(
            rids, list(map(add, keys, payloads)), snapshot)
        in_bounds = _range_test(*bounds)
        tracked = versions.tracked
        seen = set()
        results = []

        def place(rid, value):
            if value is not None and in_bounds(vkey := tuple(value[:kw])):
                results.append((vkey, rid.sort_key, tuple(value[kw:]), rid))

        for rid, value in zip(rids, values):
            if rid in seen and tracked(rid):
                # non-unique duplicate keys share a surrogate; a tracked
                # surrogate resolves once through its chain
                continue
            seen.add(rid)
            place(rid, value)
        for rid in ghosts:
            if rid not in seen:
                seen.add(rid)
                place(rid, versions.resolve(rid, None, snapshot))
        results.sort(key=itemgetter(0, 1))
        return ([rid for *__, rid in results],
                [vkey for vkey, *__ in results],
                [payload for __, __, payload, __ in results])

    def locate(self, key_values: Any
               ) -> Optional[Tuple[RowId, List[Any]]]:
        """(surrogate rowid, full row) stored under an exact key, or
        None: one descent, current mode."""
        key = tuple(key_values)
        payloads = self._tree.search(key)
        if not payloads:
            return None
        return self._surrogate(key), list(key) + list(payloads[0])

    def lookup(self, key_values: List[Any]) -> List[List[Any]]:
        """Return the full rows stored under an exact key."""
        key = tuple(key_values)
        return [list(key) + list(p) for p in self._tree.search(key)]

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
            self._key_of_surrogate.clear()
            self._surrogate_of_key.clear()
            self._ghosts.clear()
            self._next_surrogate = self._surrogate_base = 0
            for row in zip(*columns):
                self._tree.insert(row[:kw], row[kw:])
            self.applied_lsn = snap_lsn
            self.dump_dirty = False

    def recover_insert(self, row: List[Any]) -> None:
        """Redo/undo replay: insert without surrogate or MVCC tracking."""
        key, payload = self._split_row(row)
        with self._latch:
            self._tree.insert(key, payload)

    def recover_delete(self, row: List[Any]) -> None:
        """Redo/undo replay: delete by full row; missing rows tolerated
        (replay against a fuzzy image may target an already-gone row)."""
        key, payload = self._split_row(row)
        with self._latch:
            try:
                self._tree.delete(key, payload)
            except Exception:
                pass

    def recover_update(self, old: List[Any], new: List[Any]) -> None:
        """Redo/undo replay: replace ``old`` with ``new``."""
        self.recover_delete(old)
        self.recover_insert(new)

    # -- statistics --------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of rows (== B-tree entries)."""
        return self._tree.entry_count

    @property
    def page_count(self) -> int:
        """Approximate node count, used by the optimizer's cost model."""
        return max(1, self._tree.entry_count // 32)

    # -- internals ----------------------------------------------------------

    def _slot(self, key: Tuple[Any, ...]) -> int:
        """The slot number of ``key``'s surrogate, allocated on first
        sight.  The map keeps the bare int — the ``RowId`` is built when
        one is handed out — since it is never pruned."""
        slot = self._surrogate_of_key.get(key)
        if slot is None:
            with self._latch:  # check-then-allocate must be atomic
                slot = self._surrogate_of_key.get(key)
                if slot is None:
                    slot = self._surrogate_of_key[key] = self._next_surrogate
                    self._next_surrogate += 1
                    self._key_of_surrogate.append(key)
        return slot

    def _surrogate(self, key: Tuple[Any, ...]) -> RowId:
        slot = self._surrogate_of_key.get(key)
        return RowId(self.segment_id, 0,
                     self._slot(key) if slot is None else slot)

    def _rowids(self, keys: List[Tuple[Any, ...]]) -> PageRowIds:
        """The surrogates of ``keys`` as one batch (a surrogate is
        ``RowId(segment, 0, slot)``, so page 0 of a page batch)."""
        slots = list(map(self._surrogate_of_key.get, keys))
        if None in slots:
            slots = list(map(self._slot, keys))
        return PageRowIds(self.segment_id, 0, slots)

    def _key_of(self, rowid: RowId) -> Optional[Tuple[Any, ...]]:
        """The key ``rowid`` was last bound to; None for a rowid this
        table never handed out (or retired by TRUNCATE)."""
        index = rowid.slot - self._surrogate_base
        if (rowid.segment_id != self.segment_id or rowid.page_no
                or not 0 <= index < len(self._key_of_surrogate)):
            return None
        return self._key_of_surrogate[index]

    def _drop_ghost(self, key: Tuple[Any, ...], rowid: RowId) -> None:
        """``rowid`` is back in the tree under ``key``: the tree walk
        finds it again (caller holds the latch)."""
        if self._ghosts.entry_count:
            self._ghosts.delete(key, rowid)

    def prune(self, lwm: int, stats=None) -> int:
        """:meth:`VersionStore.prune` for this table's store, then drop
        the ghosts no snapshot can see any more.

        A surrogate the pass left unmapped is one every snapshot sees
        as the tree has it — gone, or found by the tree walk — so none
        of its ghosts can put a row into a scan.  The structure latch
        is held across both steps: a writer chains its version before
        it enters :meth:`delete` / :meth:`update`, so a ghost
        registered after the store was examined belongs to a mapped
        surrogate and cannot be dropped by this pass.
        """
        with self._latch:
            removed = self.versions.prune(lwm, stats)
            if self._ghosts.entry_count:
                tracked = self.versions.tracked
                for key, rid in [(key, rid)
                                 for key, rid in self._ghosts.items()
                                 if not tracked(rid)]:
                    self._ghosts.delete(key, rid)
                if not self._ghosts.entry_count:
                    self._ghosts.clear()  # deletes leave empty leaves
        return removed

    @property
    def ghost_count(self) -> int:
        """Entries in the ghost set (what a snapshot scan overlays)."""
        return self._ghosts.entry_count

    def _rebind_surrogate(self, rowid: RowId, old_key: Tuple[Any, ...],
                          new_key: Tuple[Any, ...]) -> None:
        self._key_of_surrogate[rowid.slot - self._surrogate_base] = new_key
        if self._surrogate_of_key.get(old_key) == rowid.slot:
            del self._surrogate_of_key[old_key]
        self._surrogate_of_key[new_key] = rowid.slot
