"""Large objects (LOBs) with a file-like locator API.

Section 3.2.4 of the paper: the Daylight cartridge migrated a file-based
index into database LOBs "since LOBs can be accessed and manipulated
with a file-like interface ... minimal changes were required to the
index management software".  :class:`LobLocator` therefore deliberately
mirrors :class:`~repro.storage.filestore.ExternalFile` — ``read``,
``write``, ``seek``, ``tell``, ``truncate`` — so the chemistry cartridge
can run the *same* index code over either store.

LOB bytes are chunked onto pages that flow through the shared buffer
cache, which is how the paper's observations fall out naturally: reads
hit disk only when cold ("reads are done only for cold start queries and
the data is cached in memory for subsequent operations") and writes are
buffered rather than hitting the file system per call.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import StorageError
from repro.storage.buffer import BufferCache

#: Bytes stored per LOB page.
LOB_CHUNK = 4096


class LobManager:
    """Allocates LOBs and stores their chunks in a buffer-cached segment.

    When constructed with a lock manager, LOBs support *byte-range
    locking* at chunk granularity — §5's proposed solution for index
    structures migrated into LOBs: "treat the LOB as a page-based
    store, and use general byte-range locking of LOB bytes to implement
    appropriate concurrency control algorithms."
    """

    def __init__(self, buffer_cache: BufferCache, lock_manager=None):
        self.buffer = buffer_cache
        self.locks = lock_manager
        self.segment_id = buffer_cache.allocate_segment()
        self._next_lob_id = 1
        self._next_page = 0
        # lob id -> (list of page numbers, length in bytes)
        self._directory: Dict[int, List[int]] = {}
        self._length: Dict[int, int] = {}

    def lock_range(self, txn_id: int, lob_id: int, offset: int,
                   length: int, exclusive: bool = True) -> int:
        """Lock the chunk-aligned byte range [offset, offset+length).

        Returns the number of chunk locks taken.  Conflicting requests
        from other transactions raise
        :class:`~repro.errors.LockTimeoutError`; locks are released by
        the lock manager's ``release_all`` at commit/rollback.
        """
        if self.locks is None:
            raise StorageError("this LobManager has no lock manager")
        if lob_id not in self._directory:
            raise StorageError(f"no such LOB {lob_id}")
        if length <= 0:
            return 0
        from repro.txn.locks import LockMode
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
        first = offset // LOB_CHUNK
        last = (offset + length - 1) // LOB_CHUNK
        for chunk in range(first, last + 1):
            self.locks.acquire(txn_id, f"lob:{lob_id}:chunk:{chunk}", mode)
        return last - first + 1

    def create(self, data: bytes = b"") -> "LobLocator":
        """Allocate a new LOB, optionally initialized with ``data``."""
        lob_id = self._next_lob_id
        self._next_lob_id += 1
        self._directory[lob_id] = []
        self._length[lob_id] = 0
        locator = LobLocator(self, lob_id)
        if data:
            locator.write(data)
            locator.seek(0)
        return locator

    def open(self, lob_id: int) -> "LobLocator":
        """Return a fresh locator for an existing LOB."""
        if lob_id not in self._directory:
            raise StorageError(f"no such LOB {lob_id}")
        return LobLocator(self, lob_id)

    def delete(self, lob_id: int) -> None:
        """Free a LOB and its pages."""
        self._directory.pop(lob_id, None)
        self._length.pop(lob_id, None)

    def length(self, lob_id: int) -> int:
        """Current byte length of a LOB."""
        if lob_id not in self._length:
            raise StorageError(f"no such LOB {lob_id}")
        return self._length[lob_id]

    def exists(self, lob_id: int) -> bool:
        """True when ``lob_id`` names a live LOB."""
        return lob_id in self._directory

    # -- chunk access (used by locators) ----------------------------------

    def _page_for_chunk(self, lob_id: int, chunk_idx: int,
                        create: bool, for_write: bool):
        pages = self._directory[lob_id]
        while create and chunk_idx >= len(pages):
            page = self.buffer.new_page(self.segment_id, self._next_page)
            # chunk pages write page.slots in place, past the Page
            # methods that count writes: nothing heap-scans them, so
            # none ever builds a column image (Page.columns)
            page.slots.append([bytearray()])
            self._next_page += 1
            pages.append(page.page_no)
        if chunk_idx >= len(pages):
            return None
        return self.buffer.get_page(self.segment_id, pages[chunk_idx],
                                    for_write=for_write)

    def read_range(self, lob_id: int, offset: int, count: int) -> bytes:
        """Read ``count`` bytes at ``offset`` (clamped to LOB length)."""
        if lob_id not in self._directory:
            raise StorageError(f"no such LOB {lob_id}")
        length = self._length[lob_id]
        if offset >= length or count <= 0:
            return b""
        count = min(count, length - offset)
        out = bytearray()
        while count > 0:
            chunk_idx, chunk_off = divmod(offset, LOB_CHUNK)
            page = self._page_for_chunk(lob_id, chunk_idx,
                                        create=False, for_write=False)
            if page is None:
                break
            chunk: bytearray = page.slots[0][0]
            take = min(count, LOB_CHUNK - chunk_off)
            out += chunk[chunk_off:chunk_off + take]
            offset += take
            count -= take
        return bytes(out)

    def write_range(self, lob_id: int, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``, growing the LOB as needed.

        A zero-byte write is a no-op and never extends the LOB (POSIX
        file semantics, which the file store mirrors).
        """
        if lob_id not in self._directory:
            raise StorageError(f"no such LOB {lob_id}")
        if not data:
            return 0
        remaining = memoryview(data)
        pos = offset
        while remaining:
            chunk_idx, chunk_off = divmod(pos, LOB_CHUNK)
            page = self._page_for_chunk(lob_id, chunk_idx,
                                        create=True, for_write=True)
            chunk: bytearray = page.slots[0][0]
            take = min(len(remaining), LOB_CHUNK - chunk_off)
            if len(chunk) < chunk_off:
                chunk.extend(b"\x00" * (chunk_off - len(chunk)))
            chunk[chunk_off:chunk_off + take] = remaining[:take]
            remaining = remaining[take:]
            pos += take
        self._length[lob_id] = max(self._length[lob_id], offset + len(data))
        return len(data)

    def truncate(self, lob_id: int, new_length: int) -> None:
        """Shrink a LOB to ``new_length`` bytes."""
        if lob_id not in self._directory:
            raise StorageError(f"no such LOB {lob_id}")
        if new_length >= self._length[lob_id]:
            return
        self._length[lob_id] = new_length
        keep_chunks = (new_length + LOB_CHUNK - 1) // LOB_CHUNK
        pages = self._directory[lob_id]
        del pages[keep_chunks:]
        if new_length % LOB_CHUNK and pages:
            page = self._page_for_chunk(lob_id, keep_chunks - 1,
                                        create=False, for_write=True)
            chunk: bytearray = page.slots[0][0]
            del chunk[new_length % LOB_CHUNK:]


class LobLocator:
    """A positioned handle onto one LOB, API-compatible with ExternalFile.

    Locators are cheap; many may address the same LOB.  Equality and
    hashing are by LOB id so a locator can be stored in a table column
    and fetched back meaningfully.
    """

    def __init__(self, manager: LobManager, lob_id: int):
        self._manager = manager
        self.lob_id = lob_id
        self._pos = 0

    def read(self, count: int = -1) -> bytes:
        """Read up to ``count`` bytes from the current position (-1 = rest)."""
        if count < 0:
            count = self._manager.length(self.lob_id) - self._pos
        data = self._manager.read_range(self.lob_id, self._pos, count)
        self._pos += len(data)
        return data

    def write(self, data: bytes) -> int:
        """Write ``data`` at the current position, advancing it."""
        written = self._manager.write_range(self.lob_id, self._pos, data)
        self._pos += written
        return written

    def seek(self, offset: int, whence: int = 0) -> int:
        """Reposition like ``io`` seek: 0=absolute, 1=relative, 2=from end."""
        if whence == 0:
            self._pos = offset
        elif whence == 1:
            self._pos += offset
        elif whence == 2:
            self._pos = self._manager.length(self.lob_id) + offset
        else:
            raise StorageError(f"bad whence {whence}")
        if self._pos < 0:
            raise StorageError("negative LOB position")
        return self._pos

    def tell(self) -> int:
        """Current position."""
        return self._pos

    def truncate(self, size: Optional[int] = None) -> int:
        """Shrink the LOB to ``size`` (default: current position)."""
        if size is None:
            size = self._pos
        self._manager.truncate(self.lob_id, size)
        return size

    def length(self) -> int:
        """Total LOB length in bytes."""
        return self._manager.length(self.lob_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LobLocator) and other.lob_id == self.lob_id

    def __lt__(self, other: "LobLocator") -> bool:
        return self.lob_id < other.lob_id

    def __hash__(self) -> int:
        return hash(("LOB", self.lob_id))

    def __repr__(self) -> str:
        return f"LobLocator(id={self.lob_id}, len={self._manager.length(self.lob_id)})"
