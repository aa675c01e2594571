"""The fingerprint index *file format* — one code path, two stores.

This is the heart of the §3.2.4 migration story: the index management
software is written against a file-like handle (``read``/``write``/
``seek``/``truncate``/``length``), so the *same* class operates on an
external :class:`~repro.storage.filestore.ExternalFile` (the pre-8i
deployment) or a database :class:`~repro.storage.lob.LobLocator` (the
cartridge deployment) — "minimal changes were required to the index
management software".

Format (big-endian)::

    header:  magic 'CFP1' | record_count u32
    record:  seg u32 | page u32 | slot u32 | flags u8 |
             cert_hash u64 | taut_hash u64 | fingerprint FP_BITS/8 bytes

Deletes append a tombstone record (flags=1) — the file is append-only
between compactions, which is what makes the *write* pattern comparable
across stores while the I/O accounting differs (file writes are eager,
LOB writes are buffered).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.cartridges.chemistry.fingerprint import FP_BITS
from repro.errors import StorageError
from repro.storage.heap import RowId

_MAGIC = b"CFP1"
_HEADER = struct.Struct(">4sI")
_FP_BYTES = FP_BITS // 8
#: one record, fingerprint bytes included: a whole image decodes with
#: one ``iter_unpack``
_RECORD = struct.Struct(f">IIIBQQ{_FP_BYTES}s")
_RECORD_SIZE = _RECORD.size

FLAG_TOMBSTONE = 1


@dataclass(frozen=True)
class Record:
    """One index entry: rowid + hashes + fingerprint."""

    rowid: RowId
    cert_hash: int
    taut_hash: int
    fingerprint: int
    tombstone: bool = False

    def pack(self) -> bytes:
        return _RECORD.pack(
            *self.rowid, FLAG_TOMBSTONE if self.tombstone else 0,
            self.cert_hash, self.taut_hash,
            self.fingerprint.to_bytes(_FP_BYTES, "big"))

    @classmethod
    def unpack(cls, data: bytes) -> "Record":
        return _record(_RECORD.unpack_from(data))


def _record(fields: Tuple[Any, ...]) -> Record:
    """The :class:`Record` of one unpacked record tuple."""
    seg, page, slot, flags, cert_hash, taut_hash, fp = fields
    return Record(rowid=(seg, page, slot), cert_hash=cert_hash,
                  taut_hash=taut_hash, fingerprint=int.from_bytes(fp, "big"),
                  tombstone=bool(flags & FLAG_TOMBSTONE))


class FingerprintIndexFile:
    """Reader/writer for the fingerprint index format over any handle.

    ``handle_factory`` returns a fresh positioned handle on each call —
    a LOB locator or an external file object.  All methods reopen via
    the factory, mirroring file-based index code that opens per
    operation.
    """

    def __init__(self, handle_factory):
        self._open = handle_factory

    # -- lifecycle ---------------------------------------------------------

    def initialize(self) -> None:
        """Write an empty index (header only)."""
        handle = self._open()
        handle.seek(0)
        handle.write(_HEADER.pack(_MAGIC, 0))
        handle.truncate(_HEADER.size)

    def record_count(self) -> int:
        """Number of physical records (including tombstones)."""
        handle = self._open()
        handle.seek(0)
        raw = handle.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise StorageError("fingerprint index is not initialized")
        magic, count = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise StorageError(f"bad fingerprint index magic {magic!r}")
        return count

    # -- mutation ------------------------------------------------------------

    def append_many(self, records: List[Record]) -> None:
        """Append records (one header update for the whole batch)."""
        if not records:
            return
        count = self.record_count()
        handle = self._open()
        handle.seek(_HEADER.size + count * _RECORD_SIZE)
        handle.write(b"".join(r.pack() for r in records))
        handle.seek(0)
        handle.write(_HEADER.pack(_MAGIC, count + len(records)))

    def tombstone(self, rowids: Iterable[RowId]) -> None:
        """Append one deletion marker per rowid, in one append."""
        self.append_many([Record(rowid=rowid, cert_hash=0, taut_hash=0,
                                 fingerprint=0, tombstone=True)
                          for rowid in rowids])

    def compact(self) -> int:
        """Rewrite the file without dead records; returns the live count."""
        live = list(self.records())
        handle = self._open()
        handle.seek(0)
        handle.write(_HEADER.pack(_MAGIC, len(live)))
        handle.write(b"".join(r.pack() for r in live))
        handle.truncate(_HEADER.size + len(live) * _RECORD_SIZE)
        return len(live)

    # -- reading ----------------------------------------------------------------

    def _unpacked(self) -> Iterator[Tuple[Any, ...]]:
        """Every physical record as a tuple, in file order: the image is
        read in one call and decoded by one ``iter_unpack``, the same
        over a LOB and over an external file."""
        count = self.record_count()
        handle = self._open()
        handle.seek(_HEADER.size)
        data = handle.read(count * _RECORD_SIZE)
        if len(data) < count * _RECORD_SIZE:
            raise StorageError("truncated fingerprint index record")
        return _RECORD.iter_unpack(data)

    def raw_records(self) -> Iterator[Record]:
        """Every physical record in file order (tombstones included)."""
        return map(_record, self._unpacked())

    def _live(self) -> List[Tuple[Any, ...]]:
        """Live records as unpacked tuples, in file order: tombstoned
        rowids removed, later wins."""
        dead: Dict[Tuple[int, int, int], int] = {}
        entries: List[Tuple[Any, ...]] = []
        for fields in self._unpacked():
            if fields[3] & FLAG_TOMBSTONE:
                rowid = fields[:3]
                dead[rowid] = dead.get(rowid, 0) + 1
            else:
                entries.append(fields)
        if dead:
            live = []
            for fields in entries:
                remaining = dead.get(fields[:3], 0)
                if remaining:
                    dead[fields[:3]] = remaining - 1
                else:
                    live.append(fields)
            entries = live
        return entries

    def records(self) -> List[Record]:
        """Live records: tombstoned rowids removed, later wins."""
        return [_record(fields) for fields in self._live()]

    def fingerprints(self) -> List[Tuple[int, int, int, int]]:
        """Live records as ``(seg, page, slot, fingerprint)``, in file
        order: what a screen or a similarity scan reads, without a
        :class:`Record` (or a rowid) built for each."""
        return [(seg, page, slot, int.from_bytes(fp, "big"))
                for seg, page, slot, __, __, __, fp in self._live()]

    def find_by_cert(self, cert_hash: int) -> List[Record]:
        """Live records whose full-structure hash matches."""
        return [_record(fields) for fields in self._live()
                if fields[4] == cert_hash]

    def find_by_tautomer(self, taut_hash: int) -> List[Record]:
        """Live records whose tautomer hash matches."""
        return [_record(fields) for fields in self._live()
                if fields[5] == taut_hash]
