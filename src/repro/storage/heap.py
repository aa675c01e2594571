"""Heap tables and rowids.

A heap table is a segment of slotted pages.  A row is addressed by its
*rowid*, the plain tuple ``(segment_id, page_no, slot)``.  A rowid stays
valid across updates, which is what lets domain indexes store rowids as
index entries and stream them back from ``ODCIIndexFetch`` (§2.2.3).

A rowid is an exact ``tuple`` of three ints, and a stored row is an
exact ``tuple`` of plain values, because CPython's cyclic collector
stops tracking such a tuple at its first pass: the rows and rowids a
database keeps resident cost a full collection nothing, and neither do
the index keys that hold a rowid.  Hash, equality and order are the
tuple's own, so sorting, bisecting and hashing rowids runs no Python
code; a heap rowid equals no :class:`~repro.storage.iot.LogicalRowId`
and does not order against one.
"""

from __future__ import annotations

import io
import pickle
from itertools import repeat
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidRowIdError, StorageError
from repro.storage.buffer import BufferCache
from repro.storage.page import Page, PAGE_SIZE, estimate_row_size
from repro.txn.mvcc import Snapshot, VersionStore

#: A heap rowid: ``(segment_id, page_no, slot)``.
RowId = Tuple[int, int, int]


def format_rowid(rowid: Any) -> str:
    """A rowid as messages show it: ``RID(segment.page.slot)`` for a
    heap rowid, the logical rowid's own ``repr`` otherwise."""
    if rowid.__class__ is tuple and len(rowid) == 3:
        return "RID(%s.%s.%s)" % rowid
    return repr(rowid)


class _PickledRowId:
    """What a rowid pickled by the engine's earlier layout loads as.

    Earlier versions stored a heap rowid as an instance of a ``tuple``
    subclass, ``repro.storage.heap.RowId``; its pickle calls the class
    with ``(segment_id, page_no, slot)``, and this answers the plain
    tuple, so a log or page store written then reads as one written now.
    """

    def __new__(cls, segment_id: int, page_no: int, slot: int) -> Any:
        return (segment_id, page_no, slot)


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "RowId":
            return _PickledRowId
        return super().find_class(module, name)


def load_stored(data: bytes) -> Any:
    """``pickle.loads`` for what the engine stored: log records, page
    images and IOT dumps, including those of the earlier rowid layout."""
    return _Unpickler(io.BytesIO(data)).load()


class PageRowIds:
    """The rowids of one page batch: segment, page, and the batch's slot
    numbers (``range(n)`` when every slot is live).

    A rowid tuple is built only when an item is indexed or iterated, so
    a scan whose consumer never reads a row's address builds none.  Each
    read builds a new tuple: compare items with ``==``, never ``is``.
    """

    __slots__ = ("segment_id", "page_no", "slots")

    def __init__(self, segment_id: int, page_no: int, slots: Sequence[int]):
        self.segment_id = segment_id
        self.page_no = page_no
        self.slots = slots

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, i: int) -> RowId:
        return (self.segment_id, self.page_no, self.slots[i])

    def __iter__(self) -> Iterator[RowId]:
        return zip(repeat(self.segment_id), repeat(self.page_no), self.slots)


def live_rows(rowids: List[Any], rows: List[Optional[Sequence[Any]]]
              ) -> Tuple[List[Any], List[Sequence[Any]]]:
    """Drop the dead or invisible rows (None) of an aligned batch."""
    if None in rows:
        live = [i for i, row in enumerate(rows) if row is not None]
        rowids = [rowids[i] for i in live]
        rows = [rows[i] for i in live]
    return rowids, rows


class HeapTable:
    """An unordered table of rows stored on slotted pages.

    The table does not know its schema; the catalog layer owns column
    names/types and validates values before they reach here.
    """

    def __init__(self, buffer_cache: BufferCache, name: str = "?",
                 segment_id: Optional[int] = None):
        self.buffer = buffer_cache
        self.name = name
        # Recovery re-creates tables with their original segment ids so
        # logged rowids keep addressing the same pages.
        self.segment_id = (segment_id if segment_id is not None
                           else buffer_cache.allocate_segment())
        self._page_count = 0
        self._row_count = 0
        # Pages that most recently had room, checked before allocating.
        self._last_insert_page: Optional[int] = None
        #: MVCC version chains keyed by rowid (see repro.txn.mvcc)
        self.versions = VersionStore()

    # -- DML ------------------------------------------------------------

    def insert_bulk(self, rows: List[Sequence[Any]],
                    presorted: bool = False) -> List[RowId]:
        """Store ``rows`` (one or many) and return their rowids in
        input order.

        Pages fill append-only from the :meth:`high_water_mark`, so
        every rowid is at or above it, :meth:`cut_to` that mark takes
        the append back, and the DML layer's fence at the mark hides
        the rows from other snapshots until it commits.  Each page is
        latched for write once per run of rows it absorbs.
        ``presorted`` only matters for key-organized storage.
        """
        rowids: List[RowId] = []
        segment_id = self.segment_id
        page: Optional[Page] = None
        for row in map(tuple, rows):
            size = min(estimate_row_size(row), PAGE_SIZE)
            if page is None or not page.has_room(size):
                page = self._page_for_insert(size)
            rowids.append((segment_id, page.page_no, page.insert(row, size)))
        self._row_count += len(rows)
        return rowids

    def update(self, rowid: RowId, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Replace the row at ``rowid`` in place; returns the old row."""
        page, slot = self._page_at(rowid, for_write=True)
        old = page.read_slot(slot)
        if old is None:
            raise InvalidRowIdError(
                f"{format_rowid(rowid)} does not identify a live row")
        row = tuple(row)
        old_size = min(estimate_row_size(old), PAGE_SIZE)
        new_size = min(estimate_row_size(row), PAGE_SIZE)
        page.update(slot, row, old_size, new_size)
        return old

    def delete(self, rowid: RowId) -> Tuple[Any, ...]:
        """Delete the row at ``rowid``; returns the old row."""
        page, slot = self._page_at(rowid, for_write=True)
        old = page.read_slot(slot)
        if old is None:
            raise InvalidRowIdError(
                f"{format_rowid(rowid)} does not identify a live row")
        page.delete(slot, min(estimate_row_size(old), PAGE_SIZE))
        self._row_count -= 1
        return old

    def undelete(self, rowid: RowId, row: Sequence[Any]) -> None:
        """Restore a deleted slot (used by transaction rollback)."""
        page, slot = self._page_at(rowid, for_write=True)
        if page.read_slot(slot) is not None:
            raise StorageError(f"{format_rowid(rowid)} is live; "
                               "cannot undelete")
        row = tuple(row)
        page.update(slot, row, 0, min(estimate_row_size(row), PAGE_SIZE))
        self._row_count += 1

    def truncate(self) -> None:
        """Discard every row and page (DDL: fast, not undoable)."""
        self.buffer.drop_segment(self.segment_id)
        self._page_count = 0
        self._row_count = 0
        self._last_insert_page = None
        self.versions.clear()

    def high_water_mark(self) -> RowId:
        """``(segment, last page, that page's slot count)``: every row
        stored from now on gets a rowid at or above it (a heap only
        appends).  A table with no page has ``(segment, 0, 0)``."""
        last = self._page_count - 1
        if last < 0:
            return (self.segment_id, 0, 0)
        page = self.buffer.peek_page(self.segment_id, last)
        return (self.segment_id, last, len(page.slots))

    def cut_to(self, mark: RowId, lsn: Optional[int] = None) -> None:
        """Drop every slot at or above ``mark`` (a :meth:`high_water_mark`):
        the undo of the appends since it was taken.

        The slots at or above the mark on the mark's page go, and so
        does every later page (the mark's page too when the mark is its
        first slot: the load allocated it).  A dropped page is emptied
        first, so a snapshot reader still holding it reads no row there.
        Restart redo passes the record's ``lsn``: a mark page stamped at
        or past it already holds the cut, and a page cut here is stamped
        with it; the heap's counters are not rebuilt yet, so the buffer
        says where the segment ends (a rollback, and restart undo, go to
        the page count).  Applying the same cut twice lands the same
        state.
        """
        segment_id, page_no, slot = mark
        first = page_no + (slot > 0)
        buffer = self.buffer
        end = (max(buffer.segment_pages(segment_id), default=-1) + 1
               if lsn is not None else self._page_count)
        removed = 0
        page = buffer.peek_page(segment_id, page_no) if slot else None
        if page is not None and (lsn is None or page.page_lsn < lsn):
            page = buffer.get_page(segment_id, page_no, for_write=True)
            removed += page.cut(slot)
            if lsn is not None:
                page.page_lsn = lsn
        if first < end:
            for number in range(first, end):
                page = buffer.peek_page(segment_id, number)
                if page is not None:
                    removed += page.cut(0)
            buffer.drop_segment(segment_id, first)
        self._row_count -= removed
        self._page_count = first
        self._last_insert_page = page_no if slot else None

    # -- scans ----------------------------------------------------------

    def scan_batches(self, snapshot: Optional[Snapshot] = None
                     ) -> Iterator[Tuple[PageRowIds, Sequence[Sequence[Any]]]]:
        """Full scan, one page per batch, as columns: the table's one
        scan.

        Yields ``(rowids, columns)`` where ``columns[c][i]`` is column
        ``c`` of the batch's row ``i`` and ``rowids`` is the page's
        :class:`PageRowIds`: its live slot numbers, with a rowid built
        only for an item a consumer reads.  The layer above wraps
        these in a ``ColumnBatch``.  The columns are the page's column
        image (:meth:`Page.columns`), shared by every scan until the
        page's next write, so they are tuples.  Under a ``snapshot`` the
        image is read first and the store consulted after, the order of
        every snapshot read: a store ``settled`` for the snapshot below
        the page's end (no chain, and no fence it does not see at or
        under the page's slots) leaves the image as the snapshot sees
        it (the image's own slots: a load's undo may have cut the page
        since).  Any other store resolves
        every slot of the page, live or tombstoned, so the batch holds
        exactly the rows committed as of the snapshot's SCN plus the
        owning transaction's own writes; a read is one attempt, retried
        by ``versions.read``.  A page a rolled-back load dropped after
        the scan began ends it: no snapshot sees a row there.
        """
        segment_id = self.segment_id
        versions = self.versions

        def read(page: Page) -> Tuple[Sequence[int], Sequence[Any]]:
            image = page.columns()
            live = image[0]
            if versions.settled(snapshot, (segment_id, page.page_no,
                                           live[-1] + 1 if live else 0)):
                return image
            rows = list(page.slots)
            rows = versions.resolve_batch(
                PageRowIds(segment_id, page.page_no, range(len(rows))),
                rows, snapshot)
            live = [slot for slot, row in enumerate(rows) if row is not None]
            return live, tuple(zip(*[rows[slot] for slot in live]))

        for page_no in range(self._page_count):
            page = self._page(page_no)
            if page is None:
                break
            live, columns = page.columns() if snapshot is None \
                else versions.read(lambda: read(page), snapshot)
            if live:
                yield PageRowIds(segment_id, page_no, live), columns

    def fetch_batch(self, rowids: List[RowId],
                    snapshot: Optional[Snapshot] = None
                    ) -> Tuple[List[RowId], List[Sequence[Any]]]:
        """Fetch a batch of rowids: ``(rowids, rows)`` for the live ones.

        The table's one read by rowid, and the rowid-batch counterpart
        of :meth:`scan_batches`: index-returned rowids, a callback's
        ``fetch_row`` (a batch of one) and a DML target's before-image
        (current mode, no ``snapshot``) all come here.  Each distinct
        page is fetched from the buffer cache once per batch, every slot
        is read before any version chain is consulted (the order of
        every snapshot read), and the batch is resolved in bulk.  Rowids
        that are dead, invisible to ``snapshot``, or not addressable in
        this segment (foreign, or beyond a truncate) are dropped.  The
        returned rowids are the caller's own objects in the caller's
        order, aligned with the rows.
        """
        segment_id = self.segment_id
        page_of = self._page
        versions = self.versions

        def read():
            slots_of: dict = {}
            found: List[RowId] = []
            rows: List[Optional[Sequence[Any]]] = []
            for rowid in rowids:
                if rowid.__class__ is not tuple:
                    continue
                seg, page_no, slot = rowid
                if seg != segment_id:
                    continue
                slots = slots_of.get(page_no)
                if slots is None:
                    page = page_of(page_no)
                    if page is None:
                        continue
                    slots = slots_of[page_no] = page.slots
                found.append(rowid)
                rows.append(slots[slot] if 0 <= slot < len(slots) else None)
            if snapshot is not None:
                rows = versions.resolve_batch(found, rows, snapshot)
            return found, rows

        return live_rows(*(read() if snapshot is None
                           else versions.read(read, snapshot)))

    # -- durability support ----------------------------------------------

    def stamp_lsn(self, rowid: RowId, lsn: int) -> None:
        """Record the WAL LSN of the last change to ``rowid``'s page
        (no I/O accounting: the change itself fetched the page)."""
        page = self.buffer.peek_page(self.segment_id, rowid[1])
        if page is not None and lsn > page.page_lsn:
            page.page_lsn = lsn

    def rebuild_from_pages(self) -> None:
        """Recompute counters from recovered page images (restart)."""
        pages = self.buffer.segment_pages(self.segment_id)
        self._page_count = (max(pages) + 1) if pages else 0
        self._row_count = sum(p.live_count() for p in pages.values())
        self._last_insert_page = None
        for page in pages.values():
            page.recompute_used()

    # -- statistics -------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Live row count (maintained incrementally)."""
        return self._row_count

    @property
    def page_count(self) -> int:
        """Allocated page count; proportional to full-scan cost."""
        return self._page_count

    # -- internals --------------------------------------------------------

    def _page_for_insert(self, size: int) -> Page:
        if self._last_insert_page is not None:
            page = self.buffer.get_page(
                self.segment_id, self._last_insert_page, for_write=True)
            if page.has_room(size):
                return page
        page = self.buffer.new_page(self.segment_id, self._page_count)
        self._page_count += 1
        self._last_insert_page = page.page_no
        return page

    def _page_at(self, rowid: RowId, for_write: bool = False
                 ) -> Tuple[Page, int]:
        """``rowid``'s page and slot; raises for a rowid that is not a
        heap rowid of this table or names no allocated page."""
        if rowid.__class__ is not tuple or len(rowid) != 3:
            raise InvalidRowIdError(f"{rowid!r} is not a heap rowid")
        segment_id, page_no, slot = rowid
        if segment_id != self.segment_id:
            raise InvalidRowIdError(
                f"{format_rowid(rowid)} belongs to another table (segment "
                f"{segment_id} != {self.segment_id})")
        page = self._page(page_no, for_write)
        if page is None:
            raise InvalidRowIdError(
                f"{format_rowid(rowid)}: page out of range")
        return page, slot

    def _page(self, page_no: int, for_write: bool = False
              ) -> Optional[Page]:
        """Page ``page_no``, or None when the table has no such page:
        beyond its end, or dropped meanwhile by a rolled-back load (a
        snapshot reader holds no table lock)."""
        if 0 <= page_no < self._page_count:
            try:
                return self.buffer.get_page(self.segment_id, page_no,
                                            for_write=for_write)
            except StorageError:
                pass
        return None
