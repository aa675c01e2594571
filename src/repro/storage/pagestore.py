"""Durable page store: checkpointed page images and IOT dumps.

``pages.db`` is an append-only file of checksummed records — heap page
images, whole-tree IOT dumps, and segment tombstones.  Startup scans the
file once to build an in-memory directory (last record wins, tombstones
erase a segment's earlier images) and stops cleanly at a torn tail, the
same discipline as the WAL.  Fuzzy checkpoints append the dirty page set
and may compact the file (rewrite live records to a temp file, fsync,
atomic rename) once dead records dominate.

A page image written here is *fuzzy*: DML may race the checkpoint.  That
is safe because rows are stored as fresh list copies (never mutated in
place) and recovery redo re-applies any record with ``lsn > page_lsn``,
repeating history over whatever image the checkpoint caught.  For the
same reason a page image in the directory shares its row lists with the
live page.  Of an IOT dump (a list per column) the directory keeps the
pickled bytes only.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import WALError

__all__ = ["PageStore", "REC_PAGE", "REC_IOT", "REC_TOMB"]

#: record header: little-endian (record type, body length, crc32 of body)
_HEADER = struct.Struct("<BII")

REC_PAGE = 1  # {"seg", "page": Page.state() dict}
REC_IOT = 2   # {"seg", "columns": [[...], ...], "snap_lsn": int}
REC_TOMB = 3  # {"seg"}


class PageStore:
    """Append-only durable store for page images and IOT dumps."""

    #: compact when dead records exceed live ones by this factor
    COMPACT_RATIO = 3

    def __init__(self, path: str,
                 fault_check: Optional[Callable[[str], Any]] = None,
                 event_hook: Optional[Callable[[str], None]] = None):
        self.path = path
        self.fault_check = fault_check
        self.event_hook = event_hook
        self._latch = threading.RLock()
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        self._size = os.fstat(self._fd).st_size
        #: (seg, page_no) -> latest page-image payload
        self.pages: Dict[Tuple[int, int], Dict[str, Any]] = {}
        #: seg -> latest IOT dump: ``snap_lsn`` and the pickled ``body``
        #: (recovery and compaction are its only readers, and the bytes
        #: are a fraction of the unpickled columns)
        self.iot_dumps: Dict[int, Dict[str, Any]] = {}
        self.records_written = 0
        self._live_records = 0

    # -- startup scan ---------------------------------------------------

    def load(self) -> None:
        """Build the in-memory directory from the file; truncate a torn
        tail so later appends start on a record boundary."""
        offset = 0
        size = self._size
        header_len = _HEADER.size
        with self._latch:
            self.pages.clear()
            self.iot_dumps.clear()
            while offset + header_len <= size:
                rec_type, body_len, crc = _HEADER.unpack(
                    os.pread(self._fd, header_len, offset))
                body_off = offset + header_len
                if body_off + body_len > size:
                    break  # torn tail
                body = os.pread(self._fd, body_len, body_off)
                if len(body) != body_len or zlib.crc32(body) != crc:
                    break  # torn tail
                try:
                    payload = pickle.loads(body)
                except Exception:
                    break
                self._index_record(rec_type, payload, body)
                offset = body_off + body_len
            if offset < size:
                os.ftruncate(self._fd, offset)
                self._size = offset
            self._live_records = len(self.pages) + len(self.iot_dumps)

    def _index_record(self, rec_type: int, payload: Dict[str, Any],
                      body: bytes) -> None:
        if rec_type == REC_PAGE:
            self.pages[(payload["seg"], payload["page"]["page_no"])] = payload
        elif rec_type == REC_IOT:
            self.iot_dumps[payload["seg"]] = {
                "snap_lsn": payload["snap_lsn"], "body": body}
        elif rec_type == REC_TOMB:
            seg = payload["seg"]
            for key in [k for k in self.pages if k[0] == seg]:
                del self.pages[key]
            self.iot_dumps.pop(seg, None)

    # -- appends --------------------------------------------------------

    def _append(self, rec_type: int, payload: Dict[str, Any]) -> None:
        if self.fault_check is not None:
            rule = self.fault_check("page.flush")
            if rule is not None and rule.kind == "io_error":
                raise WALError(f"injected I/O error on {self.path}")
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(rec_type, len(body), zlib.crc32(body))
        with self._latch:
            # gathered write: an IOT dump's body is megabytes, and
            # header + body would copy it once more
            os.pwritev(self._fd, [header, body], self._size)
            self._size += len(header) + len(body)
            self.records_written += 1
            self._index_record(rec_type, payload, body)
        if self.event_hook is not None:
            self.event_hook("page.flush")

    def write_page(self, seg: int, page_state: Dict[str, Any]) -> None:
        self._append(REC_PAGE, {"seg": seg, "page": page_state})

    def write_iot(self, seg: int, columns: List[List[Any]],
                  snap_lsn: int) -> None:
        self._append(REC_IOT, {"seg": seg, "columns": columns,
                               "snap_lsn": snap_lsn})

    def tombstone(self, seg: int) -> None:
        self._append(REC_TOMB, {"seg": seg})

    def fsync(self) -> None:
        os.fsync(self._fd)

    # -- directory reads ------------------------------------------------

    def segments(self) -> List[int]:
        with self._latch:
            segs = {seg for seg, __ in self.pages}
            segs.update(self.iot_dumps)
            return sorted(segs)

    def max_segment(self) -> int:
        segs = self.segments()
        return max(segs) if segs else 0

    def max_page_lsn(self) -> int:
        """Highest LSN stamped on any stored image (epoch recovery aid)."""
        with self._latch:
            lsns = [p["page"]["lsn"] for p in self.pages.values()]
            lsns.extend(d["snap_lsn"] for d in self.iot_dumps.values())
            return max(lsns) if lsns else 0

    def pages_of(self, seg: int) -> List[Dict[str, Any]]:
        with self._latch:
            return [p["page"] for (s, __), p in sorted(self.pages.items())
                    if s == seg]

    def iot_dump_of(self, seg: int) -> Optional[Dict[str, Any]]:
        with self._latch:
            dump = self.iot_dumps.get(seg)
        return None if dump is None else pickle.loads(dump["body"])

    # -- compaction -----------------------------------------------------

    def should_compact(self) -> bool:
        with self._latch:
            dead = self.records_written - self._live_records
            return dead > max(16, self._live_records * self.COMPACT_RATIO)

    def compact(self) -> None:
        """Rewrite only the live directory to a fresh file, atomically."""
        with self._latch:
            tmp = self.path + ".tmp"
            fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                size = 0
                for payload in self.pages.values():
                    body = pickle.dumps(payload,
                                        protocol=pickle.HIGHEST_PROTOCOL)
                    data = _HEADER.pack(REC_PAGE, len(body),
                                        zlib.crc32(body)) + body
                    os.pwrite(fd, data, size)
                    size += len(data)
                for dump in self.iot_dumps.values():
                    body = dump["body"]
                    data = _HEADER.pack(REC_IOT, len(body),
                                        zlib.crc32(body)) + body
                    os.pwrite(fd, data, size)
                    size += len(data)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, self.path)
            os.close(self._fd)
            self._fd = os.open(self.path, os.O_RDWR, 0o644)
            self._size = size
            self.records_written = len(self.pages) + len(self.iot_dumps)
            self._live_records = self.records_written

    def close(self) -> None:
        with self._latch:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1
