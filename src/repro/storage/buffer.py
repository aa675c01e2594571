"""Buffer cache and I/O statistics.

All heap and LOB page access goes through one :class:`BufferCache` per
database, so every execution path — native index scans, domain-index
callbacks, legacy temp-table plans — is charged the same way.  The cache
is an LRU over (segment, page_no) keys backed by a simulated disk; the
counters it maintains are what the E1/E4 benchmarks report.

The paper notes (§2.5) that when index data is stored inside the
database, "data buffering [is] also applicable to the user index data" —
this module is precisely that shared buffering.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import StorageError
from repro.metrics import Histogram, Metrics, histogram
from repro.storage.page import Page


@dataclass
class IOStats(Metrics):
    """Counters for simulated I/O and callback activity (``user_io_stats``).

    ``logical_reads``/``logical_writes`` count buffer accesses;
    ``physical_reads``/``physical_writes`` count simulated disk transfers
    (cache misses and dirty-page writebacks).  ``file_reads``/
    ``file_writes`` count external file-store operations, kept separate
    because the chemistry experiment (E4) contrasts the two.  ``extra``
    holds the named counters cartridges :meth:`bump`.

    Thread-safety: counters are plain ints deliberately *not* guarded by
    a lock of their own — the hot increments happen under the buffer
    cache / file store latches, and the remaining bare ``bump`` calls
    from cartridges tolerate benign drift (they are diagnostics, never
    correctness inputs).  Exact counter assertions belong in
    single-session tests.
    """

    logical_reads: int = 0
    logical_writes: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    file_reads: int = 0
    file_writes: int = 0
    file_bytes_read: int = 0
    file_bytes_written: int = 0
    extra: Histogram = histogram()

    def count_reads(self, nodes: int) -> None:
        """Count ``nodes`` B-tree node visits as logical reads: the
        ``touch`` hook of native index and IOT trees.  A bound method of
        the stats, so a tree holds no reference to the table it serves."""
        self.logical_reads += nodes

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named ad-hoc counter (used by cartridges/benchmarks)."""
        self.extra[counter] = self.extra.get(counter, 0) + amount


PageKey = Tuple[int, int]  # (segment_id, page_no)


class BufferCache:
    """LRU page cache over a simulated disk.

    Segments (heap tables, IOT overflow, LOB segments) allocate pages
    through the cache; reads that miss fetch from the simulated disk and
    count a physical read, dirty evictions count a physical write.
    """

    def __init__(self, stats: IOStats, capacity: int = 256):
        if capacity < 1:
            raise StorageError("buffer cache capacity must be positive")
        self.stats = stats
        self.capacity = capacity
        self._cache: "OrderedDict[PageKey, Page]" = OrderedDict()
        self._disk: Dict[PageKey, Page] = {}
        self._next_segment_id = 1
        #: set by the engine when durability is on; the cache reports
        #: dirty-making accesses (for the dirty-page table) and segment
        #: drops (for durable tombstones)
        self.durability = None
        #: latch: the cache is engine-wide; even read-only access
        #: mutates the LRU order (``move_to_end``), so every operation
        #: takes the latch.  Individual I/O counters are *not* under a
        #: separate lock — they are only mutated latch-held here (other
        #: IOStats writers tolerate benign drift, see IOStats docs).
        self._latch = threading.RLock()

    # -- segment management -------------------------------------------------

    def allocate_segment(self) -> int:
        """Return a fresh segment id for a new table/LOB."""
        with self._latch:
            seg = self._next_segment_id
            self._next_segment_id += 1
            return seg

    def drop_segment(self, segment_id: int, first_page: int = 0) -> None:
        """Discard every page of a segment (DROP/TRUNCATE), or its pages
        from ``first_page`` on (a heap cut back to a load's mark)."""
        with self._latch:
            for pages in (self._cache, self._disk):
                for key in [k for k in pages
                            if k[0] == segment_id and k[1] >= first_page]:
                    del pages[key]
        if self.durability is not None:
            self.durability.segment_dropped(segment_id, first_page)

    def segment_page_count(self, segment_id: int) -> int:
        """Number of allocated pages in a segment (cached or on disk)."""
        with self._latch:
            keys = {k for k in self._disk if k[0] == segment_id}
            keys |= {k for k in self._cache if k[0] == segment_id}
            return len(keys)

    # -- page access --------------------------------------------------------

    def new_page(self, segment_id: int, page_no: int) -> Page:
        """Allocate a fresh page in the cache (counts a logical write)."""
        key = (segment_id, page_no)
        with self._latch:
            if key in self._disk or key in self._cache:
                raise StorageError(f"page {key} already exists")
            page = Page(page_no)
            page.dirty = True
            self._put(key, page)
            self.stats.logical_writes += 1
        if self.durability is not None:
            self.durability.note_dirty(key)
        return page

    def get_page(self, segment_id: int, page_no: int,
                 for_write: bool = False) -> Page:
        """Fetch a page, counting logical (and physical, on miss) I/O."""
        key = (segment_id, page_no)
        with self._latch:
            self.stats.logical_reads += 1
            if for_write:
                self.stats.logical_writes += 1
            page = self._cache.get(key)
            if page is None:
                page = self._disk.get(key)
                if page is None:
                    raise StorageError(f"no such page {key}")
                self.stats.physical_reads += 1
                self._put(key, page)
            else:
                self._cache.move_to_end(key)
            if for_write:
                page.dirty = True
        if for_write and self.durability is not None:
            self.durability.note_dirty(key)
        return page

    def flush(self) -> None:
        """Write back every dirty cached page (checkpoint)."""
        with self._latch:
            for key, page in self._cache.items():
                if page.dirty:
                    self._disk[key] = page
                    page.dirty = False
                    self.stats.physical_writes += 1

    def clear(self) -> None:
        """Flush and empty the cache — simulates a cold restart for E4."""
        with self._latch:
            self.flush()
            self._cache.clear()

    def resident(self, segment_id: int, page_no: int) -> bool:
        """True when the page is currently cached (no I/O counted)."""
        with self._latch:
            return (segment_id, page_no) in self._cache

    # -- recovery support ---------------------------------------------------

    def install_page(self, key: PageKey, page: Page) -> None:
        """Place a recovered page image on the simulated disk (no I/O
        accounting — recovery happens before any workload runs)."""
        with self._latch:
            page.dirty = False
            self._disk[key] = page
            self._cache.pop(key, None)

    def ensure_page(self, segment_id: int, page_no: int) -> Page:
        """Fetch-or-create a page during redo, without I/O accounting.

        Redo may target a page that was allocated after the last
        checkpoint image was taken — it simply materializes it.
        """
        key = (segment_id, page_no)
        with self._latch:
            page = self._cache.get(key) or self._disk.get(key)
            if page is None:
                page = Page(page_no)
                self._disk[key] = page
            return page

    def peek_page(self, segment_id: int, page_no: int) -> Optional[Page]:
        """Return the page if allocated, else None (no I/O accounting)."""
        key = (segment_id, page_no)
        with self._latch:
            return self._cache.get(key) or self._disk.get(key)

    def segment_pages(self, segment_id: int) -> Dict[int, Page]:
        """Every allocated page of a segment, keyed by page_no."""
        with self._latch:
            pages: Dict[int, Page] = {}
            for (seg, pno), page in self._disk.items():
                if seg == segment_id:
                    pages[pno] = page
            for (seg, pno), page in self._cache.items():
                if seg == segment_id:
                    pages[pno] = page
            return pages

    def restore_next_segment_id(self, next_id: int) -> None:
        """Advance the segment allocator past recovered segments."""
        with self._latch:
            self._next_segment_id = max(self._next_segment_id, next_id)

    def peek_next_segment_id(self) -> int:
        """Current allocator position (checkpointed, not allocated)."""
        with self._latch:
            return self._next_segment_id

    # -- internals ----------------------------------------------------------

    def _put(self, key: PageKey, page: Page) -> None:
        self._cache[key] = page
        self._cache.move_to_end(key)
        while len(self._cache) > self.capacity:
            old_key, old_page = self._cache.popitem(last=False)
            if old_page.dirty:
                self.stats.physical_writes += 1
                old_page.dirty = False
            self._disk[old_key] = old_page
