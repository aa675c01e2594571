"""Index-organized tables (IOTs).

Section 1 of the paper lists IOTs as a framework component: "an index is
modeled as a table, where each row is an index entry", and §2.5 reports
that "index-organized tables are commonly used as index data stores" —
the text cartridge stores its inverted index in one.

An IOT here is a B+-tree whose key is a prefix of the row and whose
payload is the rest of the row.  Rows are addressed by logical rowids
(their key), but we also hand out :class:`~repro.storage.heap.RowId`-like
surrogate ids so the executor can treat heap tables and IOTs uniformly.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import ConstraintError, InvalidRowIdError
from repro.storage.buffer import BufferCache
from repro.storage.heap import RowId
from repro.index.btree import BTree
from repro.txn.mvcc import Snapshot, VersionStore


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
        # indexed by slot number (less what TRUNCATE retired)
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

    def _split_row(self, row: List[Any]) -> Tuple[Tuple[Any, ...], List[Any]]:
        key = tuple(row[:self.key_width])
        return key, list(row[self.key_width:])

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
        payloads = [row[kw:] for row in rows]
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
            self._surrogate_of_key.setdefault(key, rowid)
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
        if snapshot is not None:
            yield from self._snapshot_scan(snapshot, BTree.items)
            return
        for key, payload in self._tree.items():
            yield self._surrogate(key), list(key) + list(payload)

    def key_range_scan(self, low: Optional[Tuple[Any, ...]] = None,
                       high: Optional[Tuple[Any, ...]] = None,
                       low_inclusive: bool = True,
                       high_inclusive: bool = True,
                       snapshot: Optional[Snapshot] = None,
                       ) -> Iterator[Tuple[RowId, List[Any]]]:
        """Scan rows whose key lies in [low, high] (tuple bounds)."""
        def walk(tree):
            return tree.range_scan(low, high, low_inclusive, high_inclusive)

        if snapshot is not None:
            yield from self._snapshot_scan(
                snapshot, walk, self._range_test(low, high, low_inclusive,
                                                 high_inclusive))
            return
        for key, payload in walk(self._tree):
            yield self._surrogate(key), list(key) + list(payload)

    def key_prefix_scan(self, prefix: List[Any],
                        snapshot: Optional[Snapshot] = None
                        ) -> Iterator[Tuple[RowId, List[Any]]]:
        """Scan rows whose key starts with ``prefix`` (in key order).

        This is the IOT's native access path for queries like
        ``WHERE token = :1`` on a ``(token, rid)``-keyed table — a
        B-tree descent plus a bounded leaf walk, not a full scan.  A
        prefix as wide as the key is one descent.
        """
        prefix_tuple = tuple(prefix)
        width = len(prefix_tuple)

        def in_prefix(key):
            return tuple(key[:width]) == prefix_tuple

        def walk(tree):
            for key, payload in tree.range_scan(low=prefix_tuple):
                if not in_prefix(key):
                    break
                yield key, payload

        if snapshot is not None:
            yield from self._snapshot_scan(snapshot, walk, in_prefix)
            return
        for key, payload in walk(self._tree):
            yield self._surrogate(key), list(key) + list(payload)

    def _range_test(self, low, high, low_inclusive, high_inclusive):
        def in_range(key):
            if low is not None:
                if key < low or (key == low and not low_inclusive):
                    return False
            if high is not None:
                if key > high or (key == high and not high_inclusive):
                    return False
            return True
        return in_range

    def _snapshot_scan(self, snapshot: Snapshot, walk, in_bounds=None
                       ) -> List[Tuple[RowId, List[Any]]]:
        """Consistent-read scan: latched materialize + ghost overlay.

        ``walk(tree)`` yields a B-tree's entries in bounds.  The tree
        rows in bounds are materialized under the structure latch
        (writers restructure the tree mid-flight otherwise).  When the
        store has nothing mapped and no ghost lies in bounds, that walk
        is the answer as it stands, already in key order.  Otherwise
        each row is resolved through its version chain; the ghosts in
        bounds — surrogates some snapshot may still see under a key the
        tree no longer holds for them — are walked with the same bounds
        and overlaid, every row is bounds-checked against its
        *resolved* key, and the merge re-sorted into key order.  The
        cost is the entries and ghosts in bounds, whatever the table's
        history.
        """
        return self.versions.read(
            lambda: self._read_entries(snapshot, walk, in_bounds), snapshot)

    def _read_entries(self, snapshot: Snapshot, walk, in_bounds
                      ) -> List[Tuple[RowId, List[Any]]]:
        """One attempt at :meth:`_snapshot_scan`: read the tree, then
        consult the store."""
        kw = self.key_width
        versions = self.versions
        with self._latch:
            pairs = [(self._surrogate(key), key, payload)
                     for key, payload in walk(self._tree)]
            ghosts = [rid for __, rid in walk(self._ghosts)] \
                if self._ghosts.entry_count else ()
        if not ghosts and versions.settled(snapshot):
            return [(rid, list(key) + list(payload))
                    for rid, key, payload in pairs]
        resolve = versions.resolve
        tracked = versions.tracked
        seen = set()
        results = []
        for rid, key, payload in pairs:
            if rid in seen and tracked(rid):
                # non-unique duplicate keys share a surrogate; a tracked
                # surrogate resolves once through its chain
                continue
            seen.add(rid)
            value = resolve(rid, list(key) + list(payload), snapshot)
            if value is None:
                continue
            vkey = tuple(value[:kw])
            if in_bounds is not None and not in_bounds(vkey):
                continue
            results.append((vkey, rid.sort_key, value, rid))
        for rid in ghosts:
            if rid in seen:
                continue
            seen.add(rid)
            value = resolve(rid, None, snapshot)
            if value is None:
                continue
            vkey = tuple(value[:kw])
            if in_bounds is not None and not in_bounds(vkey):
                continue
            results.append((vkey, rid.sort_key, value, rid))
        results.sort(key=lambda item: (item[0], item[1]))
        return [(rid, value) for __, __, value, rid in results]

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
                for column, value in zip(columns, key + tuple(payload)):
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
                self._tree.insert(row[:kw], list(row[kw:]))
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

    def _surrogate(self, key: Tuple[Any, ...]) -> RowId:
        rid = self._surrogate_of_key.get(key)
        if rid is None:
            with self._latch:  # check-then-allocate must be atomic
                rid = self._surrogate_of_key.get(key)
                if rid is None:
                    rid = RowId(self.segment_id, 0, self._next_surrogate)
                    self._next_surrogate += 1
                    self._surrogate_of_key[key] = rid
                    self._key_of_surrogate.append(key)
        return rid

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
        if self._surrogate_of_key.get(old_key) is rowid:
            del self._surrogate_of_key[old_key]
        self._surrogate_of_key[new_key] = rowid
