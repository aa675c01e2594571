"""Index-organized tables: key-ordered storage, range scans, logical
rowids."""

import pytest

from repro.errors import ConstraintError, InvalidRowIdError
from repro.storage.buffer import BufferCache, IOStats
from repro.storage.iot import IndexOrganizedTable
from repro.testing import scanned


class _Txn:
    """The two things the version store asks of a transaction."""

    _next = 500

    def __init__(self):
        _Txn._next += 1
        self.txn_id = _Txn._next
        self.versions = []

    def track_version(self, version):
        self.versions.append(version)


def insert_batch(iot, keys, payloads, txn=None, presorted=False):
    """``iot.insert_bulk`` under ``txn`` (a new transaction by default)
    with its fence registered first, as the DML engine does it."""
    txn = txn or _Txn()
    fence = iot.versions.set_fence(txn)
    if fence is not None:
        txn.track_version(fence)
    return iot.insert_bulk(keys, payloads, txn, presorted)


def _insert(iot, row):
    """Store ``row`` as a one-row batch: its rowid."""
    kw = iot.key_width
    rowids, __ = insert_batch(iot, [tuple(row[:kw])], [tuple(row[kw:])])
    return rowids[0]


@pytest.fixture
def iot():
    return IndexOrganizedTable(BufferCache(IOStats()), key_width=1,
                               name="iot")


@pytest.fixture
def iot2():
    """Two-column key (like the text cartridge's (token, rid) IOT)."""
    return IndexOrganizedTable(BufferCache(IOStats()), key_width=2,
                               name="iot2")


class TestBasics:
    def test_rows_come_back_in_key_order(self, iot):
        for key in [5, 1, 9, 3]:
            _insert(iot, [key, f"v{key}"])
        assert [row[0] for row in _rows(iot.scan_batches())] == [1, 3, 5, 9]

    def test_fetch_by_surrogate(self, iot):
        rid = _insert(iot, [7, "seven"])
        assert iot.fetch(rid) == [7, "seven"]

    def test_fetch_batch_drops_a_dead_surrogate(self, iot):
        rid = _insert(iot, [7, "x"])
        live = _insert(iot, [8, "y"])
        iot.delete(rid)
        assert iot.fetch_batch([rid, live]) == ([live], [[8, "y"]])

    def test_duplicate_key_rejected_when_unique(self, iot):
        _insert(iot, [1, "a"])
        with pytest.raises(ConstraintError):
            _insert(iot, [1, "b"])
        # a batch with one duplicate leaves the table as it was
        with pytest.raises(ConstraintError):
            insert_batch(iot, [(0,), (1,), (2,)], [("x",)] * 3)
        assert _rows(iot.scan_batches()) == [[1, "a"]]

    def test_rowid_is_the_key(self, iot):
        """A logical rowid carries the segment and the key: equal to the
        rowid built from them, ordered by key, and never equal to a
        physical rowid."""
        import pickle
        from repro.storage.iot import LogicalRowId
        rid = _insert(iot, [7, "x"])
        assert rid == LogicalRowId(iot.segment_id, (7,))
        assert rid.key == (7,) and hash(rid) == hash(
            LogicalRowId(iot.segment_id, (7,)))
        assert pickle.loads(pickle.dumps(rid)) == rid
        assert rid < _insert(iot, [9, "y"])
        assert rid != (iot.segment_id, 0, 7)

    def test_key_width_validated(self):
        with pytest.raises(ConstraintError):
            IndexOrganizedTable(BufferCache(IOStats()), key_width=0)


class TestCompositeKey:
    def test_locate_exact(self, iot2):
        _insert(iot2, ["oracle", 1, 3])
        _insert(iot2, ["oracle", 2, 1])
        _insert(iot2, ["unix", 1, 2])
        rowid, row = iot2.locate(["oracle", 1])
        assert rowid.key == ("oracle", 1) and row == ["oracle", 1, 3]
        assert iot2.locate(["oracle", 3]) is None

    def test_key_range_scan_prefix(self, iot2):
        _insert(iot2, ["apple", 1, 0])
        _insert(iot2, ["oracle", 1, 0])
        _insert(iot2, ["oracle", 2, 0])
        _insert(iot2, ["zebra", 1, 0])
        rows = _rows(iot2.prefix_batches(["oracle"]))
        assert len(rows) == 2
        assert all(row[0] == "oracle" for row in rows)


class TestUpdateDelete:
    def test_update_same_key(self, iot):
        rid = _insert(iot, [1, "old"])
        iot.update(rid, [1, "new"])
        assert iot.fetch(rid) == [1, "new"]

    def test_update_refuses_a_key_change(self, iot):
        """The key is the rowid: moving a row is a delete and an insert,
        which the DML layer does."""
        rid = _insert(iot, [1, "v"])
        with pytest.raises(ConstraintError):
            iot.update(rid, [2, "v"])
        assert _rows(iot.scan_batches()) == [[1, "v"]]

    def test_delete_then_fetch_raises(self, iot):
        rid = _insert(iot, [1, "x"])
        iot.delete(rid)
        with pytest.raises(InvalidRowIdError):
            iot.fetch(rid)

    def test_undelete(self, iot):
        rid = _insert(iot, [1, "x"])
        iot.delete(rid)
        iot.undelete(rid, [1, "x"])
        assert iot.fetch(rid) == [1, "x"]

    def test_truncate(self, iot):
        for key in range(10):
            _insert(iot, [key, "v"])
        iot.truncate()
        assert iot.row_count == 0
        assert list(iot.scan_batches()) == []

    def test_rowids_after_truncate_name_keys(self, iot):
        """A logical rowid names its key: after TRUNCATE it finds the row
        stored under that key again, or none."""
        old = [_insert(iot, [key, "v"]) for key in range(10)]
        iot.truncate()
        new = [_insert(iot, [key, "w"]) for key in range(3)]
        assert old[:3] == new
        assert [iot.fetch(rid) for rid in old[:3]] == [
            [0, "w"], [1, "w"], [2, "w"]]
        for rid in old[3:]:
            with pytest.raises(InvalidRowIdError):
                iot.fetch(rid)
        # a rowid of another segment, or of another kind
        from repro.storage.iot import LogicalRowId
        for rid in (LogicalRowId(iot.segment_id + 1, (1,)),
                    (iot.segment_id, 0, 1)):
            with pytest.raises(InvalidRowIdError):
                iot.fetch(rid)
            assert iot.fetch_batch([rid]) == ([], [])

    def test_replaying_a_delete_of_an_absent_row_is_a_no_op(self, iot):
        _insert(iot, [1, "x"])
        iot.recover_delete([2, "x"])      # no such key
        iot.recover_delete([1, "other"])  # the key holds another row
        assert _rows(iot.scan_batches()) == [[1, "x"]]

    def test_replay_does_not_hide_a_real_fault(self, iot):
        _insert(iot, [1, "x"])
        with pytest.raises(TypeError):
            iot.recover_delete(["one", "x"])  # incomparable key


class TestAccounting:
    def test_node_visits_counted_as_logical_reads(self):
        stats = IOStats()
        iot = IndexOrganizedTable(BufferCache(stats), key_width=1)
        for key in range(200):
            _insert(iot, [key, "v"])
        before = stats.logical_reads
        iot.locate([150])
        assert stats.logical_reads > before

    def test_page_count_grows(self, iot):
        for key in range(200):
            _insert(iot, [key, "v"])
        assert iot.page_count >= 1


class _World:
    """A two-column-key IOT driven the way the DML engine drives it:
    an insert is a batch under its transaction's fence, an update or
    delete pushes its version before the tree mutates, one SCN per
    commit."""

    def __init__(self):
        from repro.txn.mvcc import MVCCManager
        self.mvcc = MVCCManager()
        self.iot = IndexOrganizedTable(BufferCache(IOStats()), key_width=2,
                                       name="w")
        self.txn = None

    def begin(self):
        self.txn = _Txn()

    def commit(self):
        self.mvcc.commit_transaction(self.txn)
        self.txn = None

    def snapshot(self):
        return self.mvcc.take_snapshot(None)

    def insert(self, row):
        """Insert ``row`` as a one-row batch, its batch kept in
        ``self.batch`` for an undo; returns its rowid."""
        rowids, chained = insert_batch(
            self.iot, [tuple(row[:2])], [tuple(row[2:])], self.txn)
        for __, version in chained:
            self.txn.track_version(version)
        self.batch = (rowids, chained)
        return rowids[0]

    def delete(self, rid):
        old = self.iot.fetch(rid)
        version = self.iot.versions.push(rid, None, old, self.txn)
        self.txn.track_version(version)
        self.iot.delete(rid)
        return old, version

    def update(self, rid, row):
        old = self.iot.fetch(rid)
        if row[:2] != old[:2]:  # a new key: delete and insert
            self.delete(rid)
            return self.insert(row)
        self.txn.track_version(
            self.iot.versions.push(rid, list(row), old, self.txn))
        self.iot.update(rid, row)
        return rid

    def prune(self):
        return self.mvcc.prune([self.iot])  # as Engine._version_stores


def _rows(batches):
    return [row for __, row in scanned(batches)]


class TestGhosts:
    """Snapshot scans overlay the ghosts in bounds, nothing else."""

    @pytest.fixture
    def world(self):
        w = _World()
        w.begin()
        w.rids = {(token, doc): w.insert([token, doc, 1])
                  for token in ("a", "b", "c") for doc in (1, 2, 3)}
        w.commit()
        return w

    def test_deleted_row_visible_to_older_snapshot_in_bounds_only(
            self, world):
        before = world.snapshot()
        world.begin()
        world.delete(world.rids["b", 2])
        world.commit()
        after = world.snapshot()
        iot = world.iot
        assert iot.ghost_count == 1
        # ghost inside the bounds: the old snapshot still sees the row
        assert _rows(iot.prefix_batches(["b"], snapshot=before)) == [
            ["b", 1, 1], ["b", 2, 1], ["b", 3, 1]]
        assert _rows(iot.prefix_batches(["b"], 2, 3,
                                        snapshot=before)) == [
            ["b", 2, 1], ["b", 3, 1]]
        assert _rows(iot.prefix_batches(["b", 2], snapshot=before)) == [
            ["b", 2, 1]]
        # ghost outside the bounds: not overlaid
        assert _rows(iot.prefix_batches(["a"], snapshot=before)) == [
            ["a", 1, 1], ["a", 2, 1], ["a", 3, 1]]
        assert _rows(iot.prefix_batches(["c"], 1, None,
                                        snapshot=before)) == [
            ["c", 1, 1], ["c", 2, 1], ["c", 3, 1]]
        # and the newer snapshot does not see it anywhere
        assert _rows(iot.prefix_batches(["b"], snapshot=after)) == [
            ["b", 1, 1], ["b", 3, 1]]
        assert len(_rows(iot.scan_batches(snapshot=before))) == 9
        assert len(_rows(iot.scan_batches(snapshot=after))) == 8

    def test_key_changing_update_leaves_a_ghost_under_the_old_key(
            self, world):
        before = world.snapshot()
        world.begin()
        world.update(world.rids["a", 2], ["c", 9, 7])
        world.commit()
        after = world.snapshot()
        iot = world.iot
        assert iot.ghost_count == 1
        # old snapshot: the row is where it was, not where it went
        assert _rows(iot.prefix_batches(["a"], snapshot=before)) == [
            ["a", 1, 1], ["a", 2, 1], ["a", 3, 1]]
        assert _rows(iot.prefix_batches(["c"], snapshot=before)) == [
            ["c", 1, 1], ["c", 2, 1], ["c", 3, 1]]
        assert _rows(iot.scan_batches(snapshot=before))[1] == ["a", 2, 1]
        # new snapshot: the other way round
        assert _rows(iot.prefix_batches(["a"], snapshot=after)) == [
            ["a", 1, 1], ["a", 3, 1]]
        assert _rows(iot.prefix_batches(["c"], snapshot=after))[-1] == [
            "c", 9, 7]
        # a scan holding both keys yields the row once
        both = _rows(iot.scan_batches(snapshot=before))
        assert both.count(["a", 2, 1]) == 1 and ["c", 9, 7] not in both

    def test_delete_then_reinsert_keeps_the_old_row_for_old_snapshots(
            self, world):
        before = world.snapshot()
        world.begin()
        world.delete(world.rids["b", 2])
        world.commit()
        between = world.snapshot()
        world.begin()
        world.insert(["b", 2, 5])
        world.commit()
        after = world.snapshot()
        iot = world.iot
        # the key is back in the tree under its old surrogate: the tree
        # walk finds the chain, no ghost is needed
        assert iot.ghost_count == 0
        assert ["b", 2, 1] in _rows(iot.prefix_batches(["b"],
                                                        snapshot=before))
        assert _rows(iot.prefix_batches(["b"], snapshot=between)) == [
            ["b", 1, 1], ["b", 3, 1]]
        assert ["b", 2, 5] in _rows(iot.prefix_batches(["b"],
                                                        snapshot=after))
        assert _rows(iot.prefix_batches(["b", 2],
                                        snapshot=before)) == [["b", 2, 1]]

    def test_prune_with_no_open_snapshot_empties_the_ghost_set(self, world):
        world.begin()
        world.delete(world.rids["a", 1])
        world.update(world.rids["b", 1], ["b", 7, 1])
        world.commit()
        assert world.iot.ghost_count == 2
        world.prune()
        assert world.iot.ghost_count == 0
        assert len(_rows(world.iot.scan_batches(
            snapshot=world.snapshot()))) == 8

    def test_prune_keeps_a_ghost_an_open_snapshot_can_see(self, world):
        before = world.snapshot()
        world.begin()
        world.delete(world.rids["a", 1])
        world.commit()
        world.prune()
        assert world.iot.ghost_count == 1
        assert _rows(world.iot.prefix_batches(["a", 1],
                                               snapshot=before)) == [
            ["a", 1, 1]]
        del before
        world.prune()
        assert world.iot.ghost_count == 0

    def test_rollback_of_a_delete_removes_its_ghost(self, world):
        rid = world.rids["c", 3]
        world.begin()
        old, version = world.delete(rid)
        assert world.iot.ghost_count == 1
        # what the transaction's undo does, newest first
        world.iot.undelete(rid, old)
        world.iot.versions.pop(rid, version)
        assert world.iot.ghost_count == 0
        assert _rows(world.iot.prefix_batches(
            ["c"], snapshot=world.snapshot())) == [
            ["c", 1, 1], ["c", 2, 1], ["c", 3, 1]]

    def test_rolled_back_insert_leaves_no_ghost_past_a_prune(self, world):
        world.begin()
        rid = world.insert(["d", 1, 1])
        # the undo of an insert batch takes its keys out with their
        # fence entries: a new key leaves no ghost and no chain
        world.iot.delete_bulk(*world.batch)
        assert world.iot.ghost_count == 0
        assert not world.iot.versions.tracked(rid)
        assert _rows(world.iot.prefix_batches(
            ["d"], snapshot=world.snapshot())) == []
        # a key re-inserted over a ghost is a ghost again, and its
        # chain is back to the delete
        world.commit()
        world.begin()
        world.delete(world.rids["a", 1])
        rid = world.insert(["a", 1, 5])
        assert world.iot.ghost_count == 0 and world.batch[1]
        world.iot.delete_bulk(*world.batch)
        assert world.iot.ghost_count == 1
        assert world.iot.versions.chain_length(rid) == 2
        world.commit()
        world.prune()
        assert world.iot.ghost_count == 0

    def test_scan_resolves_only_entries_and_ghosts_in_bounds(
            self, world, monkeypatch):
        """History elsewhere in the table costs a bounded scan nothing."""
        world.begin()
        churned = [world.insert(["a", doc, 1]) for doc in range(10, 60)]
        world.commit()
        world.begin()
        for rid in churned:
            world.delete(rid)
        # the rows in bounds have chains too (an insert leaves none)
        for doc in (1, 2, 3):
            world.update(world.rids["b", doc], ["b", doc, 2])
        world.commit()
        calls = []
        real = world.iot.versions.resolve
        monkeypatch.setattr(
            world.iot.versions, "resolve",
            lambda rid, cur, snap: calls.append(rid) or real(rid, cur, snap))
        snap = world.snapshot()
        assert len(_rows(world.iot.prefix_batches(["b"],
                                                   snapshot=snap))) == 3
        assert len(calls) == 3


class TestBulkLoadAfterRollback:
    """A rolled-back INSERT leaves no ghost of its key and nothing
    mapped, and a load into the table afterwards reads back as any
    other: a key in the tree is never a ghost."""

    @pytest.fixture
    def conn(self):
        from repro.sql.engine import Engine
        engine = Engine()
        conn = engine.connect()
        conn.execute("CREATE TABLE kv (k INTEGER, v VARCHAR2(8),"
                     " PRIMARY KEY (k)) ORGANIZATION INDEX")
        conn.begin()
        conn.execute("INSERT INTO kv VALUES (1, 'gone')")
        conn.rollback()
        storage = engine.catalog.get_table("kv").storage
        assert storage.ghost_count == 0 and storage.versions.clean
        conn.insert_rows("kv", [[1, "a"], [2, "b"]])
        conn.commit()
        assert storage.ghost_count == 0
        return conn

    def test_delete_of_a_reloaded_key_succeeds(self, conn):
        conn.execute("DELETE FROM kv WHERE k = 1")
        conn.commit()
        assert conn.execute("SELECT k, v FROM kv").fetchall() == [(2, "b")]

    def test_scans_return_each_row_once(self, conn):
        conn.execute("UPDATE kv SET v = 'c' WHERE k = 2")
        conn.execute("UPDATE kv SET v = 'd' WHERE k = 1")
        conn.commit()
        assert conn.execute("SELECT k, v FROM kv").fetchall() == [
            (1, "d"), (2, "c")]
        assert conn.execute("SELECT v FROM kv WHERE k = 1").fetchall() == [
            ("d",)]
