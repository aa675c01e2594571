"""Index-organized tables: key-ordered storage, range scans, surrogates."""

import pytest

from repro.errors import ConstraintError, InvalidRowIdError
from repro.storage.buffer import BufferCache, IOStats
from repro.storage.iot import IndexOrganizedTable


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
            iot.insert([key, f"v{key}"])
        assert [row[0] for __, row in iot.scan()] == [1, 3, 5, 9]

    def test_fetch_by_surrogate(self, iot):
        rid = iot.insert([7, "seven"])
        assert iot.fetch(rid) == [7, "seven"]

    def test_fetch_or_none_dead_surrogate(self, iot):
        rid = iot.insert([7, "x"])
        iot.delete(rid)
        assert iot.fetch_or_none(rid) is None

    def test_duplicate_key_rejected_when_unique(self, iot):
        iot.insert([1, "a"])
        with pytest.raises(ConstraintError):
            iot.insert([1, "b"])

    def test_non_unique_mode(self):
        iot = IndexOrganizedTable(BufferCache(IOStats()), key_width=1,
                                  unique=False)
        iot.insert([1, "a"])
        iot.insert([1, "b"])
        assert iot.row_count == 2

    def test_key_width_validated(self):
        with pytest.raises(ConstraintError):
            IndexOrganizedTable(BufferCache(IOStats()), key_width=0)


class TestCompositeKey:
    def test_lookup_exact(self, iot2):
        iot2.insert(["oracle", 1, 3])
        iot2.insert(["oracle", 2, 1])
        iot2.insert(["unix", 1, 2])
        rows = iot2.lookup(["oracle", 1])
        assert rows == [["oracle", 1, 3]]

    def test_key_range_scan_prefix(self, iot2):
        iot2.insert(["apple", 1, 0])
        iot2.insert(["oracle", 1, 0])
        iot2.insert(["oracle", 2, 0])
        iot2.insert(["zebra", 1, 0])
        rows = [row for __, row in iot2.key_range_scan(
            low=("oracle", float("-inf")), high=("oracle", float("inf")))]
        assert len(rows) == 2
        assert all(row[0] == "oracle" for row in rows)

    def test_delete_by_key(self, iot2):
        iot2.insert(["a", 1, 0])
        iot2.insert(["a", 2, 0])
        assert iot2.delete_by_key(["a", 1]) == 1
        assert iot2.row_count == 1


class TestUpdateDelete:
    def test_update_same_key(self, iot):
        rid = iot.insert([1, "old"])
        iot.update(rid, [1, "new"])
        assert iot.fetch(rid) == [1, "new"]

    def test_update_key_change_rebinds(self, iot):
        rid = iot.insert([1, "v"])
        iot.update(rid, [2, "v"])
        assert iot.fetch(rid) == [2, "v"]
        assert [row[0] for __, row in iot.scan()] == [2]

    def test_delete_then_fetch_raises(self, iot):
        rid = iot.insert([1, "x"])
        iot.delete(rid)
        with pytest.raises(InvalidRowIdError):
            iot.fetch(rid)

    def test_undelete(self, iot):
        rid = iot.insert([1, "x"])
        iot.delete(rid)
        iot.undelete(rid, [1, "x"])
        assert iot.fetch(rid) == [1, "x"]

    def test_truncate(self, iot):
        for key in range(10):
            iot.insert([key, "v"])
        iot.truncate()
        assert iot.row_count == 0
        assert list(iot.scan()) == []

    def test_truncate_retires_the_rowids_it_handed_out(self, iot):
        old = [iot.insert([key, "v"]) for key in range(10)]
        iot.truncate()
        new = [iot.insert([key, "w"]) for key in range(3)]
        assert not set(old) & set(new)
        for rid in old:
            with pytest.raises(InvalidRowIdError):
                iot.fetch(rid)
        assert [iot.fetch(rid) for rid in new] == [
            [0, "w"], [1, "w"], [2, "w"]]
        # a rowid of another segment, or one never handed out
        from repro.storage.heap import RowId
        for rid in (RowId(iot.segment_id + 1, 0, 10),
                    RowId(iot.segment_id, 0, 99)):
            with pytest.raises(InvalidRowIdError):
                iot.fetch(rid)


class TestAccounting:
    def test_node_visits_counted_as_logical_reads(self):
        stats = IOStats()
        iot = IndexOrganizedTable(BufferCache(stats), key_width=1)
        for key in range(200):
            iot.insert([key, "v"])
        before = stats.logical_reads
        iot.lookup([150])
        assert stats.logical_reads > before

    def test_page_count_grows(self, iot):
        for key in range(200):
            iot.insert([key, "v"])
        assert iot.page_count >= 1


class _Txn:
    """The two things the version store asks of a transaction."""

    _next = 500

    def __init__(self):
        _Txn._next += 1
        self.txn_id = _Txn._next
        self.versions = []

    def track_version(self, version):
        self.versions.append(version)


class _World:
    """A two-column-key IOT driven the way the DML engine drives it:
    version pushed before the tree mutates, one SCN per commit."""

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
        versions = self.iot.versions

        def on_rowid(rid):
            self.txn.track_version(
                versions.push(rid, list(row), None, self.txn))
        return self.iot.insert(row, on_rowid=on_rowid)

    def delete(self, rid):
        old = self.iot.fetch(rid)
        version = self.iot.versions.push(rid, None, old, self.txn)
        self.txn.track_version(version)
        self.iot.delete(rid)
        return old, version

    def update(self, rid, row):
        old = self.iot.fetch(rid)
        self.txn.track_version(
            self.iot.versions.push(rid, list(row), old, self.txn))
        self.iot.update(rid, row)

    def prune(self):
        return self.mvcc.prune([self.iot])  # as Engine._version_stores


def _rows(pairs):
    return [row for __, row in pairs]


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
        assert _rows(iot.key_prefix_scan(["b"], snapshot=before)) == [
            ["b", 1, 1], ["b", 2, 1], ["b", 3, 1]]
        assert _rows(iot.key_range_scan(("b", 2), ("b", 3),
                                        snapshot=before)) == [
            ["b", 2, 1], ["b", 3, 1]]
        assert _rows(iot.key_prefix_scan(["b", 2], snapshot=before)) == [
            ["b", 2, 1]]
        # ghost outside the bounds: not overlaid
        assert _rows(iot.key_prefix_scan(["a"], snapshot=before)) == [
            ["a", 1, 1], ["a", 2, 1], ["a", 3, 1]]
        assert _rows(iot.key_range_scan(("c", 1), None,
                                        snapshot=before)) == [
            ["c", 1, 1], ["c", 2, 1], ["c", 3, 1]]
        # and the newer snapshot does not see it anywhere
        assert _rows(iot.key_prefix_scan(["b"], snapshot=after)) == [
            ["b", 1, 1], ["b", 3, 1]]
        assert len(_rows(iot.scan(snapshot=before))) == 9
        assert len(_rows(iot.scan(snapshot=after))) == 8

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
        assert _rows(iot.key_prefix_scan(["a"], snapshot=before)) == [
            ["a", 1, 1], ["a", 2, 1], ["a", 3, 1]]
        assert _rows(iot.key_prefix_scan(["c"], snapshot=before)) == [
            ["c", 1, 1], ["c", 2, 1], ["c", 3, 1]]
        assert _rows(iot.key_range_scan(("a", 2), ("c", 9),
                                        snapshot=before))[0] == ["a", 2, 1]
        # new snapshot: the other way round
        assert _rows(iot.key_prefix_scan(["a"], snapshot=after)) == [
            ["a", 1, 1], ["a", 3, 1]]
        assert _rows(iot.key_prefix_scan(["c"], snapshot=after))[-1] == [
            "c", 9, 7]
        # a range holding both keys yields the row once
        both = _rows(iot.key_range_scan(("a", 1), ("c", 9),
                                        snapshot=before))
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
        assert ["b", 2, 1] in _rows(iot.key_prefix_scan(["b"],
                                                        snapshot=before))
        assert _rows(iot.key_prefix_scan(["b"], snapshot=between)) == [
            ["b", 1, 1], ["b", 3, 1]]
        assert ["b", 2, 5] in _rows(iot.key_prefix_scan(["b"],
                                                        snapshot=after))
        assert _rows(iot.key_range_scan(("b", 2), ("b", 2),
                                        snapshot=before)) == [["b", 2, 1]]

    def test_prune_with_no_open_snapshot_empties_the_ghost_set(self, world):
        world.begin()
        world.delete(world.rids["a", 1])
        world.update(world.rids["b", 1], ["b", 7, 1])
        world.commit()
        assert world.iot.ghost_count == 2
        world.prune()
        assert world.iot.ghost_count == 0
        assert len(_rows(world.iot.scan(snapshot=world.snapshot()))) == 8

    def test_prune_keeps_a_ghost_an_open_snapshot_can_see(self, world):
        before = world.snapshot()
        world.begin()
        world.delete(world.rids["a", 1])
        world.commit()
        world.prune()
        assert world.iot.ghost_count == 1
        assert _rows(world.iot.key_prefix_scan(["a", 1],
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
        assert _rows(world.iot.key_prefix_scan(
            ["c"], snapshot=world.snapshot())) == [
            ["c", 1, 1], ["c", 2, 1], ["c", 3, 1]]

    def test_rolled_back_insert_leaves_no_ghost_past_a_prune(self, world):
        world.begin()
        rid = world.insert(["d", 1, 1])
        # the undo of an insert is a plain delete, then the chain's pop
        world.iot.delete(rid)
        assert world.iot.ghost_count == 1
        world.iot.versions.pop(rid, world.txn.versions[-1])
        assert not world.iot.versions.tracked(rid)
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
        world.commit()
        calls = []
        real = world.iot.versions.resolve
        monkeypatch.setattr(
            world.iot.versions, "resolve",
            lambda rid, cur, snap: calls.append(rid) or real(rid, cur, snap))
        snap = world.snapshot()
        assert len(_rows(world.iot.key_prefix_scan(["b"],
                                                   snapshot=snap))) == 3
        assert len(calls) == 3
