"""Unit tests for the write-ahead log: records, scanning, torn tails,
device faults, the WAL rule, and group commit."""

import os
import sys
import threading
import time

import pytest

from repro.errors import WALError
from repro.storage.wal import (LogDevice, WriteAheadLog, encode_record,
                               lsn_epoch, lsn_offset, make_lsn, scan_log)
from repro.testing import StorageFaultPlan


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "wal.log")


class TestLsnArithmetic:
    def test_round_trip(self):
        lsn = make_lsn(7, 123456)
        assert lsn_epoch(lsn) == 7
        assert lsn_offset(lsn) == 123456

    def test_epoch_dominates_ordering(self):
        # any record of a later generation sorts after every record of
        # an earlier one, no matter the byte offsets
        assert make_lsn(2, 0) > make_lsn(1, 10**9)


class TestRecordScan:
    def test_append_scan_round_trip(self, wal_path):
        wal = WriteAheadLog(wal_path)
        payloads = [{"t": "U", "x": i, "op": "insert", "new": [i, "v"]}
                    for i in range(5)]
        lsns = [wal.append(p) for p in payloads]
        scanned = list(wal.records())
        assert [lsn for lsn, __ in scanned] == lsns
        assert [p for __, p in scanned] == payloads
        wal.close()

    def test_scan_stops_at_truncated_body(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append({"t": "U", "x": 1})
        wal.append({"t": "U", "x": 2})
        # chop bytes off the second record's body: torn tail
        wal.device.truncate(wal.device.size - 3)
        payloads = [p for __, p in wal.records()]
        assert [p["x"] for p in payloads] == [1]
        wal.close()

    def test_scan_stops_at_corrupt_crc(self, wal_path):
        wal = WriteAheadLog(wal_path)
        first = wal.append({"t": "U", "x": 1})
        second_off = wal.device.size
        wal.append({"t": "U", "x": 2})
        # flip a byte inside the second record's body
        os.pwrite(wal.device._fd, b"\xff", second_off + 12)
        payloads = [p for __, p in wal.records()]
        assert [p["x"] for p in payloads] == [1]
        assert lsn_offset(first) == 0
        wal.close()

    def test_reset_starts_new_epoch(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append({"t": "U", "x": 1})
        wal.reset(epoch=3)
        lsn = wal.append({"t": "K"})
        assert lsn_epoch(lsn) == 3
        assert lsn_offset(lsn) == 0
        assert wal.stats.truncations == 1
        assert [p["t"] for __, p in wal.records()] == ["K"]
        wal.close()


class TestDeviceFaults:
    def test_torn_write_stops_scan_cleanly(self, wal_path):
        plan = StorageFaultPlan().torn_write("wal.append", nth=3,
                                             fraction=0.4)
        wal = WriteAheadLog(wal_path, fault_check=plan.check)
        wal.append({"t": "U", "x": 1})
        wal.append({"t": "U", "x": 2})
        with pytest.raises(WALError):
            wal.append({"t": "U", "x": 3})
        assert wal.failed
        # the torn prefix is on disk, but the checksum guard stops the
        # scan exactly at the intact records
        assert [p["x"] for __, p in
                scan_log(wal.device, wal.epoch)] == [1, 2]
        assert plan.outcomes("wal.append") == ["ok", "ok", "torn"]
        wal.close()

    def test_io_error_marks_device_failed(self, wal_path):
        plan = StorageFaultPlan().io_error("wal.append", nth=2)
        wal = WriteAheadLog(wal_path, fault_check=plan.check)
        wal.append({"t": "U", "x": 1})
        with pytest.raises(WALError):
            wal.append({"t": "U", "x": 2})
        assert wal.failed
        # a failed device refuses every later operation
        with pytest.raises(WALError):
            wal.append({"t": "U", "x": 3})
        with pytest.raises(WALError):
            wal.device.fsync()
        wal.close()

    def test_short_fsync_exposed_by_crash(self, wal_path):
        plan = StorageFaultPlan().short_fsync("wal.fsync", nth=1,
                                              shortfall=8)
        device = LogDevice(wal_path, fault_check=plan.check)
        rec = encode_record({"t": "U", "x": 1})
        device.append(rec)
        device.fsync()  # lies: last 8 bytes not durable
        assert device.durable_size == device.size - 8
        device.simulate_crash()  # the power cut exposes the lie
        assert device.size == len(rec) - 8
        # the surviving prefix is a torn record: scan yields nothing
        assert list(scan_log(device, 0)) == []
        device.close()

    def test_fsync_io_error(self, wal_path):
        plan = StorageFaultPlan().io_error("wal.fsync", nth=1)
        wal = WriteAheadLog(wal_path, fault_check=plan.check)
        lsn = wal.append({"t": "X", "x": 1})
        with pytest.raises(WALError):
            wal.flush_to(lsn)
        assert wal.failed
        wal.close()


class TestWalRule:
    def test_flush_to_is_idempotent(self, wal_path):
        wal = WriteAheadLog(wal_path)
        lsn = wal.append({"t": "U", "x": 1})
        wal.flush_to(lsn)
        assert wal.stats.fsyncs == 1
        wal.flush_to(lsn)  # already durable: no second fsync
        assert wal.stats.fsyncs == 1
        assert wal.flushed_lsn >= lsn
        wal.close()

    def test_flush_covers_everything_written(self, wal_path):
        # one fsync makes *all* appended bytes durable, not just the
        # requested LSN — later flush_to calls below end_lsn are free
        wal = WriteAheadLog(wal_path)
        first = wal.append({"t": "U", "x": 1})
        second = wal.append({"t": "U", "x": 2})
        wal.flush_to(first)
        assert wal.flushed_lsn >= second
        assert wal.stats.fsyncs == 1
        wal.close()


class TestGroupCommit:
    """``flush_to`` is a leader/follower: committers arriving while an
    fsync is in flight wait for it instead of queueing their own."""

    def test_group_commit_batches_fsyncs(self, wal_path):
        # a slow device forces concurrent committers into one batch
        wal = WriteAheadLog(wal_path, fsync_delay=0.01)
        lsns = [wal.append({"t": "X", "x": i}) for i in range(8)]
        threads = [threading.Thread(target=wal.commit_flush, args=(lsn,),
                                    daemon=True) for lsn in lsns]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        snap = wal.stats.snapshot()
        assert snap["group_commits"] == 8
        assert snap["group_batches"] < 8  # at least one real batch
        assert snap["max_batch"] >= 2
        assert sum(size * count for size, count in
                   snap["batch_histogram"].items()) == 8
        assert wal.flushed_lsn >= max(lsns)
        wal.close()

    def test_stress_every_commit_is_durable_and_counted_once(self, wal_path):
        """More committers than cores at a tiny switch interval: each
        returns only once its record is below ``flushed_lsn``, and each
        commit lands in exactly one fsync's batch."""
        wal = WriteAheadLog(wal_path)
        n_threads, n_commits = 8, 40
        late = []

        def committer(i):
            for j in range(n_commits):
                lsn = wal.append({"t": "X", "x": (i, j)})
                wal.commit_flush(lsn)
                if wal.flushed_lsn <= lsn:
                    late.append(lsn)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=committer, args=(i,),
                                        daemon=True)
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        snap = wal.stats.snapshot()
        assert late == []
        assert snap["group_commits"] == n_threads * n_commits
        assert sum(size * count for size, count in
                   snap["batch_histogram"].items()) == n_threads * n_commits
        # every fsync here is some committer's, and made a batch durable
        assert snap["fsyncs"] == snap["group_batches"]
        assert wal.device.durable_size == wal.device.size
        wal.close()

    def test_lone_commit_raises_on_failed_fsync(self, wal_path):
        plan = StorageFaultPlan().io_error("wal.fsync", nth=1)
        wal = WriteAheadLog(wal_path, fault_check=plan.check)
        lsn = wal.append({"t": "X", "x": 1})
        with pytest.raises(WALError):
            wal.commit_flush(lsn)
        assert wal.failed
        with pytest.raises(WALError):  # and every later commit
            wal.commit_flush(wal.end_lsn)
        wal.close()

    def test_failed_leader_fsync_fails_every_waiter(self, wal_path):
        plan = StorageFaultPlan().io_error("wal.fsync", nth=1)
        in_fsync = threading.Event()
        release = threading.Event()

        def check(op):
            if op == "wal.fsync":
                in_fsync.set()
                release.wait(5)  # hold the leader until followers wait
            return plan.check(op)

        wal = WriteAheadLog(wal_path, fault_check=check)
        lsns = [wal.append({"t": "X", "x": i}) for i in range(5)]
        errors = []

        def commit(lsn):
            try:
                wal.commit_flush(lsn)
            except WALError as exc:
                errors.append(exc)

        leader = threading.Thread(target=commit, args=(lsns[0],),
                                  daemon=True)
        leader.start()
        assert in_fsync.wait(5)
        followers = [threading.Thread(target=commit, args=(lsn,),
                                      daemon=True) for lsn in lsns[1:]]
        for t in followers:
            t.start()
        time.sleep(0.1)
        release.set()
        for t in [leader] + followers:
            t.join(5)
            assert not t.is_alive()
        assert len(errors) == 5
        assert wal.failed
        assert wal.stats.fsyncs == 0
        wal.close()
