"""IOStats bookkeeping, buffer residency, and scan-path specifics."""

import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferCache, IOStats
from repro.storage.heap import HeapTable
from repro.storage.page import PAGE_SIZE


class TestIOStats:
    """``IOStats`` is a declaration: snapshot, diff and reset are the
    generic ones of :class:`repro.metrics.Metrics`."""

    def test_snapshot_and_diff(self):
        stats = IOStats()
        before = stats.snapshot()
        assert before["logical_reads"] == 0 and before["extra"] == {}
        stats.logical_reads += 3
        stats.bump("custom", 2)
        delta = stats.diff(before)
        assert delta["logical_reads"] == 3
        assert delta["extra"] == {"custom": 2}
        assert delta["physical_writes"] == 0
        # a snapshot is a copy: later increments do not reach it
        stats.bump("custom")
        assert stats.snapshot()["extra"] == {"custom": 3}
        assert delta["extra"] == {"custom": 2}

    def test_reset(self):
        stats = IOStats()
        stats.physical_reads = 9
        stats.bump("x")
        extra = stats.extra
        stats.reset()
        assert stats.physical_reads == 0
        assert stats.extra == {} and extra == {"x": 1}
        assert stats.snapshot() == IOStats().snapshot()

    def test_bump_accumulates(self):
        stats = IOStats()
        stats.bump("k")
        stats.bump("k", 4)
        assert stats.extra["k"] == 5


class TestBufferResidency:
    def test_resident_tracking(self):
        stats = IOStats()
        cache = BufferCache(stats, capacity=2)
        table = HeapTable(cache, name="t")
        big = "x" * (PAGE_SIZE // 2)
        rids = [table.insert_bulk([[big]])[0] for __ in range(6)]
        # the earliest page must have been evicted
        assert not cache.resident(table.segment_id, 0)
        table.fetch_batch(rids[:1])  # brings it back
        assert cache.resident(table.segment_id, 0)

    def test_capacity_validated(self):
        with pytest.raises(StorageError):
            BufferCache(IOStats(), capacity=0)

    def test_duplicate_page_rejected(self):
        cache = BufferCache(IOStats())
        segment = cache.allocate_segment()
        cache.new_page(segment, 0)
        with pytest.raises(StorageError):
            cache.new_page(segment, 0)

    def test_drop_segment_removes_everywhere(self):
        cache = BufferCache(IOStats(), capacity=1)
        segment = cache.allocate_segment()
        cache.new_page(segment, 0)
        cache.new_page(segment, 1)  # evicts page 0 to disk
        assert cache.segment_page_count(segment) == 2
        cache.drop_segment(segment)
        assert cache.segment_page_count(segment) == 0
        with pytest.raises(StorageError):
            cache.get_page(segment, 0)


class TestRowidBatchIO:
    """An index lookup charges one logical read per distinct heap page
    per fetch batch — not one per rowid."""

    @pytest.fixture
    def paged(self):
        stats = IOStats()
        table = HeapTable(BufferCache(stats), name="t")
        filler = "x" * (PAGE_SIZE // 8)
        rowids = table.insert_bulk([[i, filler] for i in range(60)])
        return stats, table, rowids

    def test_n_rowids_on_p_pages_cost_p_reads(self, paged):
        stats, table, rowids = paged
        pages = {rowid[1] for rowid in rowids}
        assert 4 < len(pages) < len(rowids)  # several rows per page
        before = stats.logical_reads
        found, rows = table.fetch_batch(rowids)
        assert stats.logical_reads - before == len(pages)
        assert found == rowids
        assert [row[0] for row in rows] == list(range(60))
        # a batch per rowid costs one read each
        before = stats.logical_reads
        for rowid in rowids:
            table.fetch_batch([rowid])
        assert stats.logical_reads - before == len(rowids)

    def test_probe_order_is_kept_and_repeats_share_the_page(self, paged):
        stats, table, rowids = paged
        probe = [rowids[41], rowids[3], rowids[40], rowids[3]]
        before = stats.logical_reads
        found, rows = table.fetch_batch(probe)
        assert [row[0] for row in rows] == [41, 3, 40, 3]
        assert all(a is b for a, b in zip(found, probe))
        assert stats.logical_reads - before == len(
            {rowid[1] for rowid in probe})

    def test_dead_foreign_and_out_of_range_rowids_are_dropped(self, paged):
        stats, table, rowids = paged
        table.delete(rowids[5])
        other = HeapTable(table.buffer, name="other")
        foreign = other.insert_bulk([[1, "y"]])[0]
        beyond = (table.segment_id, table.page_count + 3, 0)
        bad_slot = (table.segment_id, 0, 10_000)
        probe = [rowids[4], rowids[5], foreign, beyond, bad_slot, rowids[6]]
        found, rows = table.fetch_batch(probe)
        assert found == [rowids[4], rowids[6]]
        assert [row[0] for row in rows] == [4, 6]
        assert [table.fetch_batch([r]) != ([], []) for r in probe] \
            == [True, False, False, False, False, True]
        table.truncate()
        assert table.fetch_batch(rowids) == ([], [])

    def test_index_lookup_through_sql_reads_each_page_once(self, db):
        db.execute("CREATE TABLE t (k INTEGER, pad VARCHAR2(600))")
        db.insert_rows("t", [[i, "p" * 500] for i in range(64)])
        db.execute("CREATE INDEX t_k ON t(k)")
        storage = db.catalog.get_table("t").storage
        assert storage.page_count >= 8
        db.fetch_batch_size = 64  # the whole probe is one batch
        sql = "SELECT k FROM t WHERE k BETWEEN :1 AND :2 AND pad LIKE 'p%'"
        assert any("INDEX RANGE SCAN" in ln for ln in db.explain(sql, [0, 63]))
        gets = _count_heap_gets(storage)
        assert len(db.execute(sql, [0, 63]).fetchall()) == 64
        assert gets() == storage.page_count

    def test_limit_over_a_long_range_touches_one_chunk_of_pages(self, db):
        """The LIMIT's row budget reaches the chunked rowid fetch: five
        rows out of a 10 000-entry range cost one chunk's worth of heap
        pages, not the range's."""
        db.execute("CREATE TABLE t (k INTEGER, v NUMBER)")
        db.insert_rows("t", [[i, i % 7] for i in range(10000)])
        db.execute("CREATE INDEX t_k ON t(k)")
        storage = db.catalog.get_table("t").storage
        assert storage.page_count > 50
        for sql in ("SELECT k FROM t WHERE k >= :1 LIMIT 5",
                    "SELECT k FROM t WHERE k >= :1 AND v < 6 LIMIT 5"):
            assert any("INDEX RANGE SCAN" in ln
                       for ln in db.explain(sql, [0]))
            gets = _count_heap_gets(storage)
            assert len(db.execute(sql, [0]).fetchall()) == 5
            # 32 consecutive narrow rows sit on one page, two at most
            assert gets() <= 2, sql


def _count_heap_gets(storage):
    """Count buffer gets against ``storage``'s segment from now on."""
    buffer = storage.buffer
    original = buffer.get_page
    count = [0]

    def get_page(segment_id, page_no, for_write=False):
        if segment_id == storage.segment_id:
            count[0] += 1
        return original(segment_id, page_no, for_write=for_write)

    buffer.get_page = get_page

    def stop():
        del buffer.get_page
        return count[0]
    return stop


class TestTextIncrementalPath:
    @pytest.fixture
    def docs(self, text_db):
        text_db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(50))")
        text_db.insert_rows(
            "docs", [[i, f"apple item{i}"] for i in range(50)])
        text_db.execute("CREATE INDEX d_idx ON docs(body)"
                        " INDEXTYPE IS TextIndexType")
        return text_db

    def test_limit_single_term_streams(self, docs):
        rows = docs.execute(
            "SELECT id FROM docs WHERE Contains(body, 'apple') LIMIT 2"
        ).fetchall()
        assert len(rows) == 2

    def test_batch_boundary_exact_multiple(self, docs):
        docs.fetch_batch_size = 10  # 50 results = exactly 5 batches
        try:
            rows = docs.execute(
                "SELECT id FROM docs WHERE Contains(body, 'apple')").fetchall()
        finally:
            docs.fetch_batch_size = 32
        assert len(rows) == 50

    def test_batch_size_one(self, docs):
        docs.fetch_batch_size = 1
        try:
            rows = docs.execute(
                "SELECT COUNT(*) FROM docs WHERE Contains(body, 'apple')"
            ).fetchall()
        finally:
            docs.fetch_batch_size = 32
        assert rows == [(50,)]

    def test_no_workspace_leak_after_limit(self, docs):
        docs.execute("SELECT id FROM docs WHERE Contains(body, 'apple')"
                     " LIMIT 1").fetchall()
        # precompute-all scans must be closed and freed even when the
        # consumer stops early
        assert docs.workspace.live_handles == 0
