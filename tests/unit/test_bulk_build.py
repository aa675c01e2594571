"""Bulk index construction: bottom-up B+-tree, STR R-tree, IOT loads.

Differential discipline: every bulk builder must produce a structure
observably identical (same entries, same scan order, same answers) to
the one grown by per-row insertion — the bulk path is a performance
path, never a semantics path.
"""

import random

import pytest

from repro import Engine
from repro.errors import ConstraintError, StorageError
from repro.index.btree import BTree
from repro.storage.buffer import BufferCache, IOStats
from repro.storage.heap import HeapTable
from repro.storage.iot import IndexOrganizedTable
from repro.testing import scanned
from tests.unit.test_storage_iot import insert_batch


class TestBTreeBulkLoad:
    def test_matches_per_row_insert(self):
        rng = random.Random(7)
        pairs = [(rng.randrange(10_000), i) for i in range(2_000)]
        grown = BTree(order=16)
        for key, value in pairs:
            grown.insert(key, value)
        built = BTree(order=16)
        built.bulk_load(pairs)
        assert len(built) == len(grown)
        assert list(built.items()) == list(grown.items())
        assert built.min_key() == grown.min_key()
        assert built.max_key() == grown.max_key()
        probe = pairs[123][0]
        assert sorted(built.search(probe)) == sorted(grown.search(probe))

    def test_duplicate_payloads_keep_arrival_order(self):
        tree = BTree()
        tree.bulk_load([("k", 1), ("a", 0), ("k", 2), ("k", 3)])
        assert tree.search("k") == [1, 2, 3]

    def test_unique_duplicate_rejected(self):
        tree = BTree(unique=True)
        with pytest.raises(ConstraintError):
            tree.bulk_load([(1, "a"), (2, "b"), (1, "c")])

    def test_empty_load_clears(self):
        tree = BTree()
        tree.insert(1, "x")
        tree.bulk_load([])
        assert len(tree) == 0
        assert tree.search(1) == []

    def test_tree_remains_mutable_after_bulk_load(self):
        tree = BTree(order=8)
        tree.bulk_load([(i, i) for i in range(200)])
        tree.insert(57.5, "new")
        assert tree.delete(0)
        assert tree.search(57.5) == ["new"]
        assert len(tree) == 200
        assert [k for k, __ in tree.items()] == sorted(
            [i for i in range(1, 200)] + [57.5])

    def test_large_load_range_scans(self):
        n = 5_000
        tree = BTree(order=32)
        tree.bulk_load([(i, i * 3) for i in range(n)])
        assert len(tree) == n
        assert tree.height >= 2
        got = [v for __, v in tree.range_scan(100, 110)]
        assert got == [i * 3 for i in range(100, 111)]


class TestBTreeBulkLoadSorted:
    def test_equivalent_to_bulk_load(self):
        keys = list(range(0, 3_000, 3))
        via_sorted = BTree(order=16)
        via_sorted.bulk_load_sorted(keys, [k * 2 for k in keys])
        via_generic = BTree(order=16)
        via_generic.bulk_load([(k, k * 2) for k in keys])
        assert list(via_sorted.items()) == list(via_generic.items())
        assert via_sorted.height == via_generic.height

    def test_rejects_unsorted_keys(self):
        tree = BTree()
        with pytest.raises(StorageError):
            tree.bulk_load_sorted([1, 3, 2], ["a", "b", "c"])

    def test_rejects_duplicate_keys(self):
        # strictly increasing: equal adjacent keys are a contract breach
        tree = BTree()
        with pytest.raises(StorageError):
            tree.bulk_load_sorted([1, 2, 2], ["a", "b", "c"])

    def test_rejects_length_mismatch(self):
        tree = BTree()
        with pytest.raises(StorageError):
            tree.bulk_load_sorted([1, 2], ["a"])

    def test_empty(self):
        tree = BTree()
        tree.bulk_load_sorted([], [])
        assert len(tree) == 0


class TestRTreeStrPacking:
    def _entries(self, n):
        from repro.cartridges.spatial.rtree import Rect
        rng = random.Random(13)
        entries = []
        for i in range(n):
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            entries.append(
                (Rect(x, y, x + rng.uniform(1, 20), y + rng.uniform(1, 20)),
                 i))
        return entries

    def test_str_matches_per_row_search(self):
        from repro.cartridges.spatial.rtree import RTree, Rect
        entries = self._entries(400)
        grown = RTree(max_entries=8)
        for rect, payload in entries:
            grown.insert(rect, payload)
        packed = RTree(max_entries=8)
        packed.bulk_load(list(entries))
        assert len(packed) == len(grown)
        for probe in (Rect(0, 0, 100, 100), Rect(200, 200, 260, 260),
                      Rect(0, 0, 500, 500), Rect(490, 490, 500, 500)):
            assert sorted(packed.search(probe)) == sorted(grown.search(probe))

    def test_str_height_no_worse_than_grown(self):
        from repro.cartridges.spatial.rtree import RTree
        entries = self._entries(600)
        grown = RTree(max_entries=8)
        for rect, payload in entries:
            grown.insert(rect, payload)
        packed = RTree(max_entries=8)
        packed.bulk_load(list(entries))
        assert packed.height <= grown.height

    def test_str_remains_mutable(self):
        from repro.cartridges.spatial.rtree import RTree, Rect
        packed = RTree(max_entries=4)
        packed.bulk_load(self._entries(50))
        extra = Rect(600, 600, 610, 610)
        packed.insert(extra, "late")
        assert list(packed.search(extra)) == ["late"]
        assert packed.delete(extra, "late")


class TestIOTInsertBulk:
    def _iot(self, key_width=1):
        return IndexOrganizedTable(BufferCache(IOStats()),
                                   key_width=key_width, name="iot")

    def test_matches_per_row_insert(self):
        rng = random.Random(3)
        keys = rng.sample(range(10_000), 500)
        grown = self._iot()
        for key in keys:
            insert_batch(grown, [(key,)], [(f"v{key}",)])
        bulk = self._iot()
        insert_batch(bulk, [(key,) for key in keys],
                     [(f"v{key}",) for key in keys])
        assert scanned(bulk.scan_batches()) \
            == scanned(grown.scan_batches())

    def test_rowids_fetch_back(self):
        iot = self._iot()
        rows = [[k, f"v{k}"] for k in (5, 1, 9)]
        rids, __ = insert_batch(iot, [(k,) for k, __ in rows],
                                [(v,) for __, v in rows])
        assert len(rids) == 3
        # rowids come back in input order, not key order
        for rid, row in zip(rids, rows):
            assert iot.fetch(rid) == row

    def test_rowids_are_the_loaded_keys(self):
        iot = self._iot()
        rids, __ = insert_batch(iot, [(2,), (1,)], [("b",), ("a",)])
        # a lazy view over the keys the load built: nothing per row
        # until an item is read, and each item is the row's key
        assert rids.keys == [(2,), (1,)]
        assert list(rids) == [rid for rid, __ in
                              reversed(scanned(iot.scan_batches()))]
        assert iot.fetch(rids[1]) == [1, "a"]

    def test_presorted_fast_path(self):
        iot = self._iot(key_width=2)
        insert_batch(iot, [("alpha", i) for i in range(50)],
                     [(i,) for i in range(50)], presorted=True)
        assert [row[2] for __, row in scanned(iot.scan_batches())] \
            == list(range(50))

    def test_presorted_lie_detected(self):
        iot = self._iot()
        with pytest.raises(StorageError):
            insert_batch(iot, [(2,), (1,)], [("b",), ("a",)],
                         presorted=True)

    def test_bulk_into_populated_table_refuses_only_a_stored_key(self):
        iot = self._iot()
        insert_batch(iot, [(1,), (5,)], [("a",), ("e",)])
        with pytest.raises(ConstraintError):
            insert_batch(iot, [(3,), (5,)], [("c",), ("x",)])
        insert_batch(iot, [(4,), (2,), (0,)], [("d",), ("b",), ("z",)])
        assert [row for __, row in scanned(iot.scan_batches())] == [
            [0, "z"], [1, "a"], [2, "b"], [4, "d"], [5, "e"]]

    def test_duplicate_keys_rejected_when_unique(self):
        iot = self._iot()
        with pytest.raises(ConstraintError):
            insert_batch(iot, [(1,), (1,)], [("a",), ("b",)])


class TestHeapInsertBulk:
    def test_flags_do_not_change_heap_semantics(self):
        heap = HeapTable(BufferCache(IOStats()), name="t")
        rows = [[i, f"r{i}"] for i in range(20)]
        rids = heap.insert_bulk(rows, presorted=True)
        # heap order is arrival order; rowids always come back
        assert len(rids) == 20
        assert [row for __, row in scanned(heap.scan_batches())] == rows


class TestColumnarDirectLoad:
    """A direct-path load into an IOT as key and payload columns lands
    the same table as its rows would, checks the arity of both columns,
    and survives a restart (its log record holds the joined rows)."""

    KEYS = [("a", i) for i in range(30)]
    PAYLOADS = [(i * 10, f"p{i}") for i in range(30)]

    def _db(self, **kw):
        db = Engine(**kw).connect()
        db.execute("CREATE TABLE kv (k VARCHAR2(8), n INTEGER,"
                   " v INTEGER, note VARCHAR2(8), PRIMARY KEY (k, n))"
                   " ORGANIZATION INDEX")
        return db

    def _contents(self, db):
        return db.execute("SELECT k, n, v, note FROM kv").fetchall()

    def test_columns_land_the_rows(self):
        expected = [k + p for k, p in zip(self.KEYS, self.PAYLOADS)]
        columnar, by_rows, by_sql = self._db(), self._db(), self._db()
        assert columnar.direct_load("kv", self.KEYS, self.PAYLOADS,
                                    presorted=True) == 30
        by_rows.direct_load("kv", [list(row) for row in expected])
        by_sql.executemany("INSERT INTO kv VALUES (:1, :2, :3, :4)",
                           [list(row) for row in reversed(expected)])
        assert self._contents(columnar) == self._contents(by_rows) \
            == self._contents(by_sql) == expected

    def test_populated_target_joins_the_columns(self):
        db = self._db()
        db.execute("INSERT INTO kv VALUES ('0', 0, 0, 'first')")
        db.direct_load("kv", self.KEYS, self.PAYLOADS)
        assert self._contents(db) == [("0", 0, 0, "first")] + [
            k + p for k, p in zip(self.KEYS, self.PAYLOADS)]

    @pytest.mark.parametrize("keys, payloads", [
        (KEYS[:29] + [("a",)], PAYLOADS),             # short key
        (KEYS, PAYLOADS[:29] + [(1, "x", "extra")]),  # long payload
        (KEYS, PAYLOADS[:29]),                        # one payload short
    ])
    def test_arity_of_both_columns_is_checked(self, keys, payloads):
        from repro.errors import ExecutionError
        db = self._db()
        with pytest.raises(ExecutionError, match="direct load"):
            db.direct_load("kv", keys, payloads)
        assert self._contents(db) == []

    def test_a_heap_takes_rows_only(self):
        from repro.errors import ExecutionError
        db = self._db()
        db.execute("CREATE TABLE h (k VARCHAR2(8), n INTEGER)")
        with pytest.raises(ExecutionError, match="heap table"):
            db.direct_load("h", [("a",), ("b",)], [(1,), (2,)])

    def test_restart_replays_a_columnar_load(self, tmp_path):
        """A power cut right after the load: the committed log record
        alone rebuilds the table."""
        db = self._db(data_dir=str(tmp_path / "data"))
        db.direct_load("kv", self.KEYS, self.PAYLOADS, presorted=True)
        expected = self._contents(db)
        db.engine.durability.wal.device.simulate_crash()
        reopened = Engine(data_dir=str(tmp_path / "data")).connect()
        assert self._contents(reopened) == expected
        reopened.close()
        reopened.engine.close()
