"""Heap tables and rowids.

A heap table is a segment of slotted pages; rows are addressed by a
:class:`RowId` (segment, page, slot) that stays valid across updates —
which is what lets domain indexes store rowids as index entries and
stream them back from ``ODCIIndexFetch`` (§2.2.3).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import InvalidRowIdError, StorageError
from repro.storage.buffer import BufferCache
from repro.storage.page import Page, PAGE_SIZE, estimate_row_size
from repro.txn.mvcc import Snapshot, VersionStore


class RowId:
    """Physical row address: (segment, page, slot).  Ordered and hashable.

    Hand-rolled rather than a dataclass: rowids are created, hashed, and
    compared millions of times on index-build and sort paths, so the
    comparison methods work on one precomputed key tuple instead of the
    generated per-call tuple packing (and construction skips the frozen
    dataclass ``object.__setattr__`` detour).
    """

    __slots__ = ("segment_id", "page_no", "slot", "sort_key")

    def __init__(self, segment_id: int, page_no: int, slot: int):
        self.segment_id = segment_id
        self.page_no = page_no
        self.slot = slot
        #: plain-int tuple mirror of the address; sort paths decorate
        #: with it so comparisons stay C-level tuple compares
        self.sort_key = (segment_id, page_no, slot)

    def __hash__(self) -> int:
        return hash(self.sort_key)

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is RowId:
            return self.sort_key == other.sort_key
        return NotImplemented

    def __lt__(self, other: Any) -> Any:
        if other.__class__ is RowId:
            return self.sort_key < other.sort_key
        return NotImplemented

    def __le__(self, other: Any) -> Any:
        if other.__class__ is RowId:
            return self.sort_key <= other.sort_key
        return NotImplemented

    def __gt__(self, other: Any) -> Any:
        if other.__class__ is RowId:
            return self.sort_key > other.sort_key
        return NotImplemented

    def __ge__(self, other: Any) -> Any:
        if other.__class__ is RowId:
            return self.sort_key >= other.sort_key
        return NotImplemented

    def __repr__(self) -> str:
        return f"RID({self.segment_id}.{self.page_no}.{self.slot})"


def _live(rowids: List[RowId], rows: List[Optional[List[Any]]]
          ) -> Tuple[List[RowId], List[List[Any]]]:
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

    def insert(self, row: List[Any], on_rowid=None) -> RowId:
        """Store ``row`` and return its new rowid.

        ``on_rowid`` closes the MVCC insert-visibility race: the slot is
        first filled with a ``None`` placeholder (invisible to scans),
        the callback registers the rowid's version chain, and only then
        is the real row written — so no snapshot reader can observe the
        uncommitted row through the untracked-rowid fast path.
        """
        size = min(estimate_row_size(row), PAGE_SIZE)
        page = self._page_for_insert(size)
        if on_rowid is None:
            slot = page.insert(list(row), size)
            self._row_count += 1
            return RowId(self.segment_id, page.page_no, slot)
        slot = page.insert(None, size)
        rowid = RowId(self.segment_id, page.page_no, slot)
        on_rowid(rowid)
        page.update(slot, list(row), size, size)
        self._row_count += 1
        return rowid

    def insert_bulk(self, rows: List[List[Any]],
                    with_rowids: bool = True,
                    presorted: bool = False) -> List[RowId]:
        """Store ``rows`` and return their rowids in input order.

        Pages fill append-only: each is latched for write once per run
        of rows it absorbs rather than once per row.  Heap rowids are
        byproducts of page placement, so ``with_rowids=False`` still
        returns them, and ``presorted`` is irrelevant to an unordered
        heap (both flags only matter for key-organized storage).
        """
        rowids: List[RowId] = []
        page: Optional[Page] = None
        for row in rows:
            size = min(estimate_row_size(row), PAGE_SIZE)
            if page is None or not page.has_room(size):
                page = self._page_for_insert(size)
            slot = page.insert(list(row), size)
            rowids.append(RowId(self.segment_id, page.page_no, slot))
        self._row_count += len(rows)
        return rowids

    def fetch(self, rowid: RowId) -> List[Any]:
        """Return the row at ``rowid``; raises for dead or foreign rowids."""
        page = self._page_at(rowid)
        row = page.read_slot(rowid.slot)
        if row is None:
            raise InvalidRowIdError(f"{rowid} does not identify a live row")
        return row

    def fetch_or_none(self, rowid: RowId,
                      snapshot: Optional[Snapshot] = None
                      ) -> Optional[List[Any]]:
        """Like :meth:`fetch` but returns None for a deleted slot.

        With a ``snapshot``, the slot value is resolved through the
        row's version chain (consistent read); index-returned rowids go
        through here, so the index may say "maybe" but the table says
        the truth for this snapshot.
        """
        try:
            page = self._page_at(rowid)
        except InvalidRowIdError:
            return None
        if snapshot is None:
            return page.read_slot(rowid.slot)
        versions = self.versions
        return versions.read(
            lambda: versions.resolve(rowid, page.read_slot(rowid.slot),
                                     snapshot), snapshot)

    def update(self, rowid: RowId, row: List[Any]) -> List[Any]:
        """Replace the row at ``rowid`` in place; returns the old row."""
        page = self._page_at(rowid, for_write=True)
        old = page.read_slot(rowid.slot)
        if old is None:
            raise InvalidRowIdError(f"{rowid} does not identify a live row")
        old_size = min(estimate_row_size(old), PAGE_SIZE)
        new_size = min(estimate_row_size(row), PAGE_SIZE)
        page.update(rowid.slot, list(row), old_size, new_size)
        return old

    def delete(self, rowid: RowId) -> List[Any]:
        """Delete the row at ``rowid``; returns the old row."""
        page = self._page_at(rowid, for_write=True)
        old = page.read_slot(rowid.slot)
        if old is None:
            raise InvalidRowIdError(f"{rowid} does not identify a live row")
        page.delete(rowid.slot, min(estimate_row_size(old), PAGE_SIZE))
        self._row_count -= 1
        return old

    def undelete(self, rowid: RowId, row: List[Any]) -> None:
        """Restore a deleted slot (used by transaction rollback)."""
        page = self._page_at(rowid, for_write=True)
        if page.read_slot(rowid.slot) is not None:
            raise StorageError(f"{rowid} is live; cannot undelete")
        size = min(estimate_row_size(row), PAGE_SIZE)
        page.update(rowid.slot, list(row), 0, size)
        self._row_count += 1

    def truncate(self) -> None:
        """Discard every row and page (DDL: fast, not undoable)."""
        self.buffer.drop_segment(self.segment_id)
        self._page_count = 0
        self._row_count = 0
        self._last_insert_page = None
        self.versions.clear()

    # -- scans ----------------------------------------------------------

    def scan(self) -> Iterator[Tuple[RowId, List[Any]]]:
        """Full table scan: yield (rowid, row) for every live row."""
        for page_no in range(self._page_count):
            page = self.buffer.get_page(self.segment_id, page_no)
            for slot, row in enumerate(page.slots):
                if row is not None:
                    yield RowId(self.segment_id, page_no, slot), row

    def _read_page(self, page_no: int, snapshot: Optional[Snapshot]
                   ) -> Tuple[List[RowId], List[List[Any]]]:
        """``(rowids, rows)`` of one page's rows, aligned; what both
        page-batched scans are made of.

        With a ``snapshot`` every slot — live or tombstoned — is
        resolved through the version store, so the page shows exactly
        the rows committed as of the snapshot's SCN plus the owning
        transaction's own writes; a store with nothing mapped hands the
        slots back as they are.
        """
        segment_id = self.segment_id
        page = self.buffer.get_page(segment_id, page_no)
        versions = self.versions

        def read():
            rows = list(page.slots)
            rowids = [RowId(segment_id, page_no, slot)
                      for slot in range(len(rows))]
            if snapshot is not None:
                rows = versions.resolve_batch(rowids, rows, snapshot)
            return rowids, rows

        return _live(*(read() if snapshot is None
                       else versions.read(read, snapshot)))

    def scan_batches(self, snapshot: Optional[Snapshot] = None
                     ) -> Iterator[List[Tuple[RowId, List[Any]]]]:
        """Full scan, one page per batch (see :meth:`_read_page`).

        The batched executor pipeline consumes pages whole, so the
        buffer cache is latched once per page instead of once per row;
        empty pages produce no batch.
        """
        for page_no in range(self._page_count):
            rowids, rows = self._read_page(page_no, snapshot)
            if rowids:
                yield list(zip(rowids, rows))

    def scan_batches_columnar(
            self, width: int, snapshot: Optional[Snapshot] = None
            ) -> Iterator[Tuple[List[RowId], List[List[Any]]]]:
        """Full scan, one page per batch, transposed into columns.

        Yields ``(rowids, columns)`` where ``columns[c][i]`` is column
        ``c`` of the batch's row ``i`` — the layer above wraps these in
        a ``ColumnBatch``.  ``width`` is the table's column count (the
        heap does not know its schema); it sizes the columns when a page
        is empty after filtering.  Same snapshot semantics as
        :meth:`scan_batches`.
        """
        for page_no in range(self._page_count):
            rowids, rows = self._read_page(page_no, snapshot)
            if rowids:
                yield rowids, [list(col) for col in zip(*rows)]

    def fetch_batch(self, rowids: List[RowId],
                    snapshot: Optional[Snapshot] = None
                    ) -> Tuple[List[RowId], List[List[Any]]]:
        """Fetch a batch of rowids: ``(rowids, rows)`` for the live ones.

        The rowid-batch counterpart of the page-batched scans, for
        index-returned rowids: each distinct page is fetched from the
        buffer cache once per batch, every slot is read before any
        version chain is consulted (the order :meth:`fetch_or_none`
        keeps per row), and the batch is resolved in bulk.  Rowids that
        are dead, invisible to ``snapshot``, or not addressable in this
        segment (foreign, or beyond a truncate) are dropped — exactly
        the rows :meth:`fetch_or_none` answers ``None`` for.  The
        returned rowids are the caller's own objects in the caller's
        order, aligned with the rows.
        """
        segment_id = self.segment_id
        page_count = self._page_count
        get_page = self.buffer.get_page
        versions = self.versions

        def read():
            slots_of: dict = {}
            found: List[RowId] = []
            rows: List[Optional[List[Any]]] = []
            for rowid in rowids:
                if rowid.segment_id != segment_id:
                    continue
                page_no = rowid.page_no
                slots = slots_of.get(page_no)
                if slots is None:
                    if not 0 <= page_no < page_count:
                        continue
                    slots = slots_of[page_no] = get_page(
                        segment_id, page_no).slots
                slot = rowid.slot
                found.append(rowid)
                rows.append(slots[slot] if 0 <= slot < len(slots) else None)
            if snapshot is not None:
                rows = versions.resolve_batch(found, rows, snapshot)
            return found, rows

        return _live(*(read() if snapshot is None
                       else versions.read(read, snapshot)))

    # -- durability support ----------------------------------------------

    def stamp_lsn(self, rowid: RowId, lsn: int) -> None:
        """Record the WAL LSN of the last change to ``rowid``'s page.

        Only called when durability is on; the extra ``get_page`` does
        not disturb the exact-I/O benchmark assertions, which run with
        durability off.
        """
        page = self.buffer.get_page(self.segment_id, rowid.page_no)
        if lsn > page.page_lsn:
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

    def _page_at(self, rowid: RowId, for_write: bool = False) -> Page:
        if rowid.segment_id != self.segment_id:
            raise InvalidRowIdError(
                f"{rowid} belongs to another table (segment "
                f"{rowid.segment_id} != {self.segment_id})")
        if not 0 <= rowid.page_no < self._page_count:
            raise InvalidRowIdError(f"{rowid}: page out of range")
        return self.buffer.get_page(self.segment_id, rowid.page_no,
                                    for_write=for_write)
