"""Heap tables, rowids, and page/buffer accounting."""

import pytest

from repro.errors import InvalidRowIdError, StorageError
from repro.storage.buffer import BufferCache, IOStats
from repro.storage.heap import HeapTable
from repro.storage.page import PAGE_SIZE, estimate_row_size
from repro.testing import scanned


@pytest.fixture
def stats():
    return IOStats()


@pytest.fixture
def buffer_cache(stats):
    return BufferCache(stats, capacity=8)


@pytest.fixture
def table(buffer_cache):
    return HeapTable(buffer_cache, name="t")


class TestInsertFetch:
    def test_roundtrip(self, table):
        rid = table.insert_bulk([["hello", 42]])[0]
        assert table.fetch_batch([rid]) == ([rid], [("hello", 42)])

    def test_rowids_are_stable_and_distinct(self, table):
        rids = [table.insert_bulk([[i]])[0] for i in range(100)]
        assert len(set(rids)) == 100
        assert table.fetch_batch(rids) == (rids, [(i,) for i in range(100)])

    def test_row_count(self, table):
        for i in range(10):
            table.insert_bulk([[i]])
        assert table.row_count == 10

    def test_multiple_pages_allocated(self, table):
        big = "x" * (PAGE_SIZE // 3)
        for __ in range(10):
            table.insert_bulk([[big]])
        assert table.page_count > 1

    def test_fetch_batch_drops_foreign_rowids(self, table, buffer_cache):
        other = HeapTable(buffer_cache, name="u")
        rid = other.insert_bulk([[1]])[0]
        mine = table.insert_bulk([[2]])[0]
        assert table.fetch_batch([rid, mine]) == ([mine], [(2,)])

    def test_fetch_batch_drops_deleted(self, table):
        rid = table.insert_bulk([[1]])[0]
        table.delete(rid)
        assert table.fetch_batch([rid]) == ([], [])


class TestUpdateDelete:
    def test_update_in_place(self, table):
        rid = table.insert_bulk([["a"]])[0]
        old = table.update(rid, ["b"])
        assert old == ("a",)
        assert table.fetch_batch([rid])[1] == [("b",)]

    def test_update_keeps_rowid(self, table):
        rid = table.insert_bulk([["a"]])[0]
        table.update(rid, ["b" * 100])
        assert table.fetch_batch([rid])[1] == [("b" * 100,)]

    def test_delete_returns_old(self, table):
        rid = table.insert_bulk([["gone"]])[0]
        assert table.delete(rid) == ("gone",)
        assert table.fetch_batch([rid]) == ([], [])

    def test_delete_twice_raises(self, table):
        rid = table.insert_bulk([[1]])[0]
        table.delete(rid)
        with pytest.raises(InvalidRowIdError):
            table.delete(rid)

    def test_undelete_restores(self, table):
        rid = table.insert_bulk([[7]])[0]
        table.delete(rid)
        table.undelete(rid, [7])
        assert table.fetch_batch([rid])[1] == [(7,)]

    def test_undelete_live_slot_raises(self, table):
        rid = table.insert_bulk([[7]])[0]
        with pytest.raises(StorageError):
            table.undelete(rid, [8])

    def test_later_rowids_stable_after_delete(self, table):
        first = table.insert_bulk([[1]])[0]
        second = table.insert_bulk([[2]])[0]
        table.delete(first)
        assert table.fetch_batch([first, second]) == ([second], [(2,)])


class TestScan:
    def test_scan_yields_live_rows_only(self, table):
        rids = [table.insert_bulk([[i]])[0] for i in range(5)]
        table.delete(rids[2])
        values = [row[0] for __, row in scanned(table.scan_batches())]
        assert values == [0, 1, 3, 4]

    def test_scan_empty(self, table):
        assert list(table.scan_batches()) == []

    def test_truncate(self, table):
        for i in range(5):
            table.insert_bulk([[i]])
        table.truncate()
        assert table.row_count == 0
        assert list(table.scan_batches()) == []


class TestBufferAccounting:
    def test_inserts_count_logical_writes(self, table, stats):
        before = stats.logical_writes
        table.insert_bulk([[1]])
        assert stats.logical_writes > before

    def test_scan_counts_logical_reads(self, table, stats):
        for i in range(5):
            table.insert_bulk([[i]])
        before = stats.logical_reads
        list(table.scan_batches())
        assert stats.logical_reads > before

    def test_eviction_counts_physical_io(self, stats):
        cache = BufferCache(stats, capacity=2)
        table = HeapTable(cache, name="t")
        big = "x" * (PAGE_SIZE // 2)
        for __ in range(12):
            table.insert_bulk([[big]])
        # cold pages must have been written back and later re-read
        assert stats.physical_writes > 0
        list(table.scan_batches())
        assert stats.physical_reads > 0

    def test_clear_simulates_cold_start(self, table, stats, buffer_cache):
        rid = table.insert_bulk([["x" * 100]])[0]
        buffer_cache.clear()
        before = stats.physical_reads
        table.fetch_batch([rid])
        assert stats.physical_reads == before + 1


class TestRowIdOrdering:
    def test_rowids_order_and_hash(self):
        a = (1, 0, 0)
        b = (1, 0, 1)
        c = (1, 1, 0)
        assert a < b < c
        assert len({a, b, c, (1, 0, 0)}) == 3

    def test_row_size_estimate_positive(self):
        assert estimate_row_size(["abc", 1, None]) > 0
