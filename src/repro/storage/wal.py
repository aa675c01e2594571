"""Write-ahead log: redo/undo records, group commit, torn-tail-safe scan.

The durability contract Oracle8i gives the paper's domain indexes —
"index data stored in the database rides the kernel's recovery
machinery" (§2.5) — needs a redo log underneath the buffer cache.  This
module provides it:

* **Records.**  Each record is ``<u32 body-length><u32 crc32><pickled
  payload>``.  Payloads are plain dicts tagged with a one-letter type:
  row changes (``U``), compensation records written by rollback/undo
  (``C``), commit (``X``), abort (``A``), and fuzzy checkpoints (``K``).
  Row changes are physiological for heap tables (segment/page/slot plus
  before/after images — replay is a slot-targeted, idempotent set) and
  logical for index-organized tables (full before/after rows — a row
  carries its key, which is its logical rowid, and the tree has no
  durable pages to address).

* **LSNs.**  A record's LSN is ``(epoch << 40) | byte offset``.  The
  epoch bumps every time the log is truncated at a quiet checkpoint, so
  LSNs stay monotonic across truncation and page-image stamps from an
  old log generation always compare below new records.

* **Group commit.**  A committing session makes its own record
  durable, on its own thread, through :meth:`WriteAheadLog.flush_to` —
  a leader/follower on one condition.  At most one fsync is in flight;
  its leader fsyncs through everything appended so far, and the
  sessions that arrived meanwhile either find their record covered or
  one of them leads the next fsync for all of them — the classic
  commit-throughput win, benchmarked in ``benchmarks/bench_wal.py``.

* **Torn-tail scan.**  :func:`scan_records` (the log's and
  ``pages.db``'s one scan loop) stops cleanly at the first truncated or
  checksum-failing record — a crash mid-append leaves a torn tail,
  never a corrupt replay.  A record that passes its checksum but does
  not decode was written whole: the scan raises instead of dropping it
  and everything after it.

* **Failure model.**  A log-device error (including injected torn
  writes / I/O errors from :class:`repro.testing.faults.StorageFaultPlan`)
  marks the log **failed**; every later append or commit raises
  :class:`~repro.errors.WALError`.  Like Oracle after an LGWR failure,
  the instance must restart and recover.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.errors import WALError
from repro.storage.heap import load_stored
from repro.metrics import Histogram, Metrics, histogram

__all__ = ["LogDevice", "WALStats", "WriteAheadLog",
           "lsn_epoch", "lsn_offset", "make_lsn", "scan_log", "scan_records",
           "REC_UPDATE", "REC_CLR", "REC_COMMIT", "REC_ABORT",
           "REC_CHECKPOINT"]

#: record header: little-endian (body length, crc32 of body)
_HEADER = struct.Struct("<II")

#: record type tags ("t" key of every payload)
REC_UPDATE = "U"      # row change: redo + (logical) undo images
REC_CLR = "C"         # compensation record: redo-only, undo_next chain
REC_COMMIT = "X"      # transaction commit {txn, scn}
REC_ABORT = "A"       # transaction fully rolled back
REC_CHECKPOINT = "K"  # fuzzy checkpoint {att, dpt, scn, next ids}

#: bits reserved for the byte offset within one log generation (1 TiB)
LSN_OFFSET_BITS = 40
_OFFSET_MASK = (1 << LSN_OFFSET_BITS) - 1


def make_lsn(epoch: int, offset: int) -> int:
    return (epoch << LSN_OFFSET_BITS) | offset


def lsn_epoch(lsn: int) -> int:
    return lsn >> LSN_OFFSET_BITS


def lsn_offset(lsn: int) -> int:
    return lsn & _OFFSET_MASK


def encode_record(payload: Dict[str, Any]) -> bytes:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


class LogDevice:
    """The log's file descriptor plus the fault-injection seam.

    All real I/O goes through here so :class:`~repro.testing.faults.
    StorageFaultPlan` can inject device-level failures the SIGKILL
    harness cannot produce (the OS keeps completed writes):

    * ``io_error`` — the write/fsync raises; the device marks itself
      failed.
    * ``torn`` — a write persists only a prefix of the record (crash
      mid-sector); the device fails afterwards.
    * ``short_fsync`` — fsync "succeeds" but the device lies: the last
      bytes are not durable.  :meth:`simulate_crash` truncates the file
      to the durable prefix, modeling the power cut that exposes the
      lie.

    ``fsync_delay`` simulates device latency (tmpfs CI makes real fsync
    nearly free, which would hide the group-commit win the benchmark
    gates on).
    """

    def __init__(self, path: str, fsync_delay: float = 0.0,
                 fault_check: Optional[Callable[[str], Any]] = None,
                 event_hook: Optional[Callable[[str], None]] = None,
                 fault_scope: str = "wal"):
        self.path = path
        self.fsync_delay = fsync_delay
        self.fault_check = fault_check
        self.event_hook = event_hook
        self.fault_scope = fault_scope
        self.failed = False
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        #: bytes physically written (append position)
        self.size = os.fstat(self._fd).st_size
        #: bytes actually persisted by the device (== size except after
        #: an injected short fsync)
        self.durable_size = self.size

    # -- fault seam ---------------------------------------------------

    def _fault(self, op: str):
        if self.fault_check is None:
            return None
        return self.fault_check(f"{self.fault_scope}.{op}")

    def _event(self, op: str) -> None:
        if self.event_hook is not None:
            self.event_hook(f"{self.fault_scope}.{op}")

    # -- I/O -----------------------------------------------------------

    def append(self, data: bytes) -> int:
        """Write ``data`` at the end; returns the record's start offset."""
        if self.failed:
            raise WALError(f"log device {self.path} has failed; "
                           "restart the instance")
        rule = self._fault("append")
        offset = self.size
        if rule is not None and rule.kind == "io_error":
            self.failed = True
            raise WALError(f"injected I/O error on {self.path}")
        if rule is not None and rule.kind == "torn":
            keep = max(1, int(len(data) * rule.fraction))
            os.pwrite(self._fd, data[:keep], offset)
            self.size = offset + keep
            self.failed = True
            self._event("append")
            raise WALError(f"injected torn write on {self.path} "
                           f"({keep}/{len(data)} bytes)")
        os.pwrite(self._fd, data, offset)
        self.size = offset + len(data)
        self._event("append")
        return offset

    def fsync(self) -> None:
        if self.failed:
            raise WALError(f"log device {self.path} has failed; "
                           "restart the instance")
        rule = self._fault("fsync")
        if rule is not None and rule.kind == "io_error":
            self.failed = True
            raise WALError(f"injected fsync error on {self.path}")
        if self.fsync_delay > 0.0:
            time.sleep(self.fsync_delay)
        os.fsync(self._fd)
        if rule is not None and rule.kind == "short_fsync":
            # the device acknowledged the fsync but silently dropped
            # the last bytes; visible only after simulate_crash()
            self.durable_size = max(self.durable_size,
                                    self.size - rule.shortfall)
        else:
            self.durable_size = self.size
        self._event("fsync")

    def pread(self, length: int, offset: int) -> bytes:
        return os.pread(self._fd, length, offset)

    def truncate(self, size: int = 0) -> None:
        os.ftruncate(self._fd, size)
        self.size = size
        self.durable_size = min(self.durable_size, size)

    def simulate_crash(self) -> None:
        """Drop every byte the device never actually persisted."""
        os.ftruncate(self._fd, self.durable_size)
        self.size = self.durable_size

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


def scan_records(read: Callable[[int, int], bytes], size: int,
                 header: struct.Struct, path: str
                 ) -> Iterator[Tuple[int, int, Tuple[Any, ...], bytes, Any]]:
    """Yield ``(offset, end, tags, body, payload)`` for every intact
    record of a file of ``size`` bytes that ``read(length, offset)``
    reads.  ``header`` packs a record's tags, then its body's length and
    crc32; ``tags`` are the fields before those two.

    A short header, a short body or a checksum mismatch is a torn tail
    and ends the scan, as does an empty body: every record pickles to
    some bytes, so it is a zero-filled tail.  A body that passes its
    checksum but does not decode was written whole: that raises
    :class:`WALError` naming ``path`` and the record's offset, and the
    caller truncates nothing."""
    offset = 0
    while offset + header.size <= size:
        *tags, body_len, crc = header.unpack(read(header.size, offset))
        body_off = offset + header.size
        if body_len == 0 or body_off + body_len > size:
            return
        body = read(body_len, body_off)
        if len(body) != body_len or zlib.crc32(body) != crc:
            return
        try:
            payload = load_stored(body)
        except Exception as exc:
            raise WALError(
                f"{path}: the record at offset {offset} passes its "
                f"checksum but does not decode ({exc!r})") from exc
        end = body_off + body_len
        yield offset, end, tuple(tags), body, payload
        offset = end


def scan_log(device: LogDevice, epoch: int
             ) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(lsn, payload)`` for every intact record, up to a torn
    tail (see :func:`scan_records`)."""
    for offset, __, __, __, payload in scan_records(
            device.pread, device.size, _HEADER, device.path):
        yield make_lsn(epoch, offset), payload


@dataclass
class WALStats(Metrics):
    """Counters behind the ``user_wal_stats`` dictionary view.

    Group commit's whole point is that ``fsyncs`` grows slower than
    ``commit_records`` under concurrency.
    """

    records: int = 0
    bytes_written: int = 0
    fsyncs: int = 0
    commit_records: int = 0
    commit_waits: int = 0
    group_batches: int = 0
    group_commits: int = 0
    max_batch: int = 0
    #: group-commit batch-size histogram: batch size -> batches
    batch_histogram: Histogram = histogram()
    checkpoints: int = 0
    truncations: int = 0
    last_checkpoint_lsn: int = 0

    def record_batch(self, size: int) -> None:
        self.group_batches += 1
        self.group_commits += size
        self.max_batch = max(self.max_batch, size)
        self.batch_histogram.add(size)


class WriteAheadLog:
    """Append-only redo log with group commit.

    Appends write straight to the OS file (page cache); durability is
    exactly the fsync boundary, tracked as ``flushed_lsn``.  The append
    latch serializes record placement; ``flush_to`` is idempotent and
    safe from any thread.
    """

    def __init__(self, path: str, fsync_delay: float = 0.0,
                 fault_check: Optional[Callable[[str], Any]] = None,
                 event_hook: Optional[Callable[[str], None]] = None):
        self.device = LogDevice(path, fsync_delay=fsync_delay,
                                fault_check=fault_check,
                                event_hook=event_hook, fault_scope="wal")
        self.epoch = 0
        self.stats = WALStats()
        self._latch = threading.Lock()
        #: guards ``_flushing`` and ``flushed_lsn``; waiters for an fsync
        #: in flight sleep on it
        self._flush_cond = threading.Condition(threading.Lock())
        self._flushing = False
        self.flushed_lsn = 0
        #: commit records appended since the last fsync began: the batch
        #: the next fsync makes durable
        self._unflushed_commits = 0

    @property
    def failed(self) -> bool:
        return self.device.failed

    @property
    def end_lsn(self) -> int:
        """LSN just past the last appended record."""
        return make_lsn(self.epoch, self.device.size)

    def append(self, payload: Dict[str, Any]) -> int:
        """Append one record; returns its LSN (not yet durable)."""
        data = encode_record(payload)
        with self._latch:
            offset = self.device.append(data)
            self.stats.records += 1
            self.stats.bytes_written += len(data)
            if payload["t"] == REC_COMMIT:
                self._unflushed_commits += 1
            return make_lsn(self.epoch, offset)

    def flush_to(self, lsn: int) -> None:
        """Make the record starting at ``lsn`` durable (WAL rule).

        ``lsn`` is a record's *start* position, so durability requires
        ``flushed_lsn`` strictly beyond it — ``>=`` would skip the fsync
        for a record appended exactly at the flushed boundary (the first
        commit after a checkpoint) and ack a commit that is not durable.

        Leader/follower: a caller that finds an fsync in flight waits
        for it; when it lands, a waiter it covered returns and the
        first uncovered one leads the next fsync, through everything
        appended by then.  A failed fsync fails the device and wakes
        every waiter, whose own fsync then raises
        :class:`~repro.errors.WALError`.
        """
        if self.flushed_lsn > lsn:
            return
        with self._flush_cond:
            while self.flushed_lsn <= lsn:
                if self._flushing:
                    self._flush_cond.wait()
                    continue
                self._flushing = True
                with self._latch:  # every byte below target is written
                    target = self.end_lsn
                    batch, self._unflushed_commits = (
                        self._unflushed_commits, 0)
                self._flush_cond.release()
                try:
                    self.device.fsync()
                finally:
                    self._flush_cond.acquire()
                    self._flushing = False
                    self._flush_cond.notify_all()
                self.stats.fsyncs += 1
                if batch:
                    self.stats.record_batch(batch)
                self.flushed_lsn = target

    def flush_all(self) -> None:
        if self.device.size == 0:
            return  # empty generation: nothing to make durable
        self.flush_to(self.end_lsn - 1)  # start of the last byte written

    def commit_flush(self, lsn: int) -> None:
        """Durably flush a commit record, sharing an fsync with every
        commit that arrives while one is in flight."""
        self.stats.commit_waits += 1
        self.flush_to(lsn)
        if self.failed:
            raise WALError("write-ahead log failed during commit flush; "
                           "restart the instance")

    # -- truncation at quiet checkpoints --------------------------------

    def reset(self, epoch: int) -> None:
        """Truncate the log and start a new generation (quiet checkpoint:
        no active transactions, all dirty pages flushed)."""
        with self._flush_cond:
            while self._flushing:
                self._flush_cond.wait()
            with self._latch:
                self.device.truncate(0)
                self.epoch = epoch
                self.flushed_lsn = make_lsn(epoch, 0)
                self.stats.truncations += 1

    def records(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """``(lsn, payload)`` of every intact record, oldest first."""
        return scan_log(self.device, self.epoch)

    def close(self) -> None:
        self.device.close()
