"""§5's LOB byte-range locking (chunk-granular concurrency control)."""

import pytest

from repro import Engine
from repro.errors import LockTimeoutError, StorageError
from repro.storage.buffer import BufferCache, IOStats
from repro.storage.lob import LOB_CHUNK, LobManager
from repro.txn.locks import LockManager


@pytest.fixture
def lobs():
    return LobManager(BufferCache(IOStats()), lock_manager=LockManager())


@pytest.fixture
def big_lob(lobs):
    return lobs.create(b"x" * (3 * LOB_CHUNK))


class TestRangeLocking:
    def test_disjoint_ranges_do_not_conflict(self, lobs, big_lob):
        lobs.lock_range(1, big_lob.lob_id, 0, 100)
        lobs.lock_range(2, big_lob.lob_id, LOB_CHUNK, 100)

    def test_overlapping_exclusive_conflicts(self, lobs, big_lob):
        lobs.lock_range(1, big_lob.lob_id, 0, 100)
        with pytest.raises(LockTimeoutError):
            lobs.lock_range(2, big_lob.lob_id, 50, 100)

    def test_shared_ranges_compatible(self, lobs, big_lob):
        lobs.lock_range(1, big_lob.lob_id, 0, 100, exclusive=False)
        lobs.lock_range(2, big_lob.lob_id, 0, 100, exclusive=False)
        with pytest.raises(LockTimeoutError):
            lobs.lock_range(3, big_lob.lob_id, 0, 100)

    def test_chunk_granularity(self, lobs, big_lob):
        # a range inside one chunk takes one lock; spanning takes more
        assert lobs.lock_range(1, big_lob.lob_id, 10, 20) == 1
        assert lobs.lock_range(
            1, big_lob.lob_id, LOB_CHUNK - 10, 20) == 2

    def test_range_straddling_chunk_conflicts_both_sides(self, lobs,
                                                         big_lob):
        lobs.lock_range(1, big_lob.lob_id, LOB_CHUNK - 10, 20)
        with pytest.raises(LockTimeoutError):
            lobs.lock_range(2, big_lob.lob_id, 0, 10)
        with pytest.raises(LockTimeoutError):
            lobs.lock_range(2, big_lob.lob_id, LOB_CHUNK + 100, 10)

    def test_reentrant_same_txn(self, lobs, big_lob):
        lobs.lock_range(1, big_lob.lob_id, 0, 200)
        lobs.lock_range(1, big_lob.lob_id, 0, 200)

    def test_release_all_frees_ranges(self, lobs, big_lob):
        lobs.lock_range(1, big_lob.lob_id, 0, 100)
        lobs.locks.release_all(1)
        lobs.lock_range(2, big_lob.lob_id, 0, 100)

    def test_zero_length_is_noop(self, lobs, big_lob):
        assert lobs.lock_range(1, big_lob.lob_id, 0, 0) == 0

    def test_unknown_lob(self, lobs):
        with pytest.raises(StorageError):
            lobs.lock_range(1, 999, 0, 10)

    def test_manager_without_locks_rejects(self):
        plain = LobManager(BufferCache(IOStats()))
        locator = plain.create(b"abc")
        with pytest.raises(StorageError):
            plain.lock_range(1, locator.lob_id, 0, 1)


class TestDatabaseIntegration:
    def test_session_lobs_share_session_locks(self):
        db = Engine().connect()
        locator = db.lobs.create(b"y" * 100)
        db.lobs.lock_range(1, locator.lob_id, 0, 50)
        assert db.locks.holders(f"lob:{locator.lob_id}:chunk:0") == {1}
        db.locks.release_all(1)
        assert db.locks.holders(f"lob:{locator.lob_id}:chunk:0") == set()
