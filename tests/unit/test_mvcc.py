"""MVCC unit tests: visibility rules, snapshot kinds, version-chain
lifecycle, pruning, bulk-load fences, and the dictionary views.

These exercise the `repro.txn.mvcc` primitives directly plus the SQL
surface (`SET TRANSACTION`, statement snapshots) through a Database.
"""

import pytest

from repro import Database
from repro.errors import TransactionError
from repro.sql.engine import Engine
from repro.txn.mvcc import (
    MVCCManager, RowVersion, Snapshot, VersionStore)


pytestmark = pytest.mark.mvcc


class _FakeTxn:
    _next = 900

    def __init__(self):
        _FakeTxn._next += 1
        self.txn_id = _FakeTxn._next
        self.versions = []

    def track_version(self, version):
        self.versions.append(version)


def _commit(mvcc, txn):
    mvcc.commit_transaction(txn)
    txn.versions = []


class TestVisibility:
    def test_uncommitted_invisible_to_others(self):
        v = RowVersion(None, txn_id=7, value=[1])
        assert not Snapshot(scn=100, txn_id=8).visible(v)
        assert not Snapshot(scn=100, txn_id=None).visible(v)

    def test_own_uncommitted_visible(self):
        v = RowVersion(None, txn_id=7, value=[1])
        assert Snapshot(scn=100, txn_id=7).visible(v)

    def test_committed_visible_iff_scn_at_or_before(self):
        v = RowVersion(5, txn_id=7, value=[1])
        assert Snapshot(scn=5, txn_id=None).visible(v)
        assert Snapshot(scn=6, txn_id=None).visible(v)
        assert not Snapshot(scn=4, txn_id=None).visible(v)


class TestVersionStore:
    def test_untracked_rowid_falls_through_to_slot(self):
        store = VersionStore()
        snap = Snapshot(scn=0, txn_id=None)
        assert store.resolve("r1", ["live"], snap) == ["live"]

    def test_update_preserves_old_value_for_old_snapshot(self):
        mvcc, store = MVCCManager(), VersionStore()
        old_snap = mvcc.take_snapshot(None)
        txn = _FakeTxn()
        txn.track_version(store.push("r1", ["new"], ["old"], txn))
        _commit(mvcc, txn)
        new_snap = mvcc.take_snapshot(None)
        assert store.resolve("r1", ["new"], old_snap) == ["old"]
        assert store.resolve("r1", ["new"], new_snap) == ["new"]

    def test_delete_tombstone_hides_row_from_new_snapshot(self):
        mvcc, store = MVCCManager(), VersionStore()
        old_snap = mvcc.take_snapshot(None)
        txn = _FakeTxn()
        txn.track_version(store.push("r1", None, ["old"], txn))
        _commit(mvcc, txn)
        assert store.resolve("r1", None, old_snap) == ["old"]
        assert store.resolve("r1", None, mvcc.take_snapshot(None)) is None

    def test_insert_invisible_until_commit(self):
        mvcc, store = MVCCManager(), VersionStore()
        txn = _FakeTxn()
        txn.track_version(store.push("r1", ["x"], None, txn))
        # tracked rowids never fall back to the slot value
        snap = mvcc.take_snapshot(None)
        assert store.resolve("r1", ["x"], snap) is None
        own = Snapshot(scn=snap.scn, txn_id=txn.txn_id)
        assert store.resolve("r1", ["x"], own) == ["x"]
        _commit(mvcc, txn)
        assert store.resolve("r1", ["x"], mvcc.take_snapshot(None)) == ["x"]

    def test_pop_unlinks_rolled_back_version(self):
        mvcc, store = MVCCManager(), VersionStore()
        t1 = _FakeTxn()
        t1.track_version(store.push("r1", ["a"], ["base"], t1))
        _commit(mvcc, t1)
        t2 = _FakeTxn()
        v = store.push("r1", ["b"], ["a"], t2)
        store.pop("r1", v)  # rollback
        assert store.resolve("r1", ["a"], mvcc.take_snapshot(None)) == ["a"]

    def test_prune_forgets_what_every_snapshot_agrees_on(self):
        """A chain cut down to one committed version at or below the
        low-water mark is unmapped: the slot says the same.  A head a
        live snapshot cannot see stays mapped, with the value that
        snapshot reads below it."""
        mvcc, store = MVCCManager(), VersionStore()
        for value in ("a", "b", "c"):
            txn = _FakeTxn()
            txn.track_version(store.push("r1", [value], None, txn))
            _commit(mvcc, txn)
        assert store.chain_length("r1") == 3
        epoch = store._epoch
        assert store.prune(mvcc.low_water_mark()) == 2
        assert not store.tracked("r1") and store.clean
        assert store._epoch == epoch + 1
        # every snapshot reads the slot now
        assert store.resolve("r1", ["c"], mvcc.take_snapshot(None)) == ["c"]

        pinned = mvcc.take_snapshot(None)
        txn = _FakeTxn()
        txn.track_version(store.push("r1", ["d"], ["c"], txn))
        _commit(mvcc, txn)
        epoch = store._epoch
        assert store.prune(mvcc.low_water_mark()) == 0
        assert store.tracked("r1") and store._epoch == epoch
        assert store.resolve("r1", ["d"], pinned) == ["c"]
        assert store.resolve("r1", ["d"], mvcc.take_snapshot(None)) == ["d"]
        del pinned
        assert store.prune(mvcc.low_water_mark()) == 1
        assert store.tracked_rowids() == []

    def test_prune_leaves_mapped_the_chains_that_still_hold_history(self):
        """After a pass ``_heads`` is the rowids some snapshot may still
        read something other than the slot of: a chain cut down to one
        committed version at or below the low-water mark (a tombstone
        included) and a chain emptied by rollback are not in it."""
        mvcc, store = MVCCManager(), VersionStore()
        for rowid, value, old in (("live", ["a"], None),
                                  ("gone", None, ["g"]),
                                  ("busy", ["b"], None),
                                  ("late", ["l"], None)):
            txn = _FakeTxn()
            txn.track_version(store.push(rowid, value, old, txn))
            _commit(mvcc, txn)
        rolled = store.push("back", ["r"], None, _FakeTxn())
        epoch = store._epoch
        store.pop("back", rolled)
        assert not store.tracked("back") and store._epoch == epoch + 1
        # an in-flight write, and a commit a live snapshot cannot see
        store.push("busy", ["b2"], ["b"], _FakeTxn())
        pinned = mvcc.take_snapshot(None)
        txn = _FakeTxn()
        txn.track_version(store.push("late", ["l2"], ["l"], txn))
        _commit(mvcc, txn)

        store.prune(mvcc.low_water_mark())
        assert set(store._heads) == {"busy", "late"}
        assert store.resolve("gone", None, pinned) is None
        assert store.resolve("late", ["l2"], pinned) == ["l"]
        assert store.resolve("busy", ["b2"], pinned) == ["b"]
        del pinned
        store.prune(mvcc.low_water_mark())
        assert set(store._heads) == {"busy"}

    def test_prune_walks_only_the_chains_still_mapped(self):
        """A pass walks ``_heads`` and nothing else: settled rows have
        no chain, so they cost a pass nothing and the histogram does
        not count them; a write maps the row again."""
        from repro.txn.mvcc import SnapshotStats
        mvcc, store = MVCCManager(), VersionStore()
        for n in range(50):
            for value in ("a", "b"):
                txn = _FakeTxn()
                txn.track_version(store.push(n, [value], None, txn))
                _commit(mvcc, txn)
        stats = SnapshotStats()
        assert store.prune(mvcc.low_water_mark(), stats) == 50
        assert stats.chain_histogram["2"] == 50
        assert stats.heads_forgotten == 50 and not store._heads
        # all settled: the next pass has nothing to walk or count
        stats = SnapshotStats()
        assert store.prune(mvcc.low_water_mark(), stats) == 0
        assert not any(stats.chain_histogram.values())
        # a write to a settled row maps it again, pre-image and all
        for value, old in (("c", "b"), ("d", "c"), ("e", "d")):
            txn = _FakeTxn()
            txn.track_version(store.push(7, [value], [old], txn))
            _commit(mvcc, txn)
        assert set(store._heads) == {7} and store.chain_length(7) == 4
        stats = SnapshotStats()
        assert store.prune(mvcc.low_water_mark(), stats) == 3
        assert stats.chain_histogram["1"] == 0
        assert stats.chain_histogram["<=4"] == 1
        assert stats.heads_forgotten == 1 and not store._heads

    def test_prune_equals_cutting_every_chain_then_dropping_the_settled(
            self):
        """Random pushes, commits, rollbacks and pinned snapshots: after
        every pass ``_heads`` is what cutting *all* chains at the
        low-water mark would have left, less the chains that leaves at
        one committed version at or below it, and the histogram counted
        every mapped chain at its length before the cut."""
        import random
        from repro.txn.mvcc import SnapshotStats
        rng = random.Random(15)
        mvcc, store = MVCCManager(), VersionStore()

        def chains():
            out = {}
            for rowid, version in store._heads.items():
                out[rowid] = []
                while version is not None:
                    out[rowid].append(version.scn)
                    version = version.prev
            return out

        pinned, open_txns, forgotten = [], [], 0
        for step in range(400):
            roll = rng.random()
            if roll < 0.55:
                txn = _FakeTxn()
                writes = [(rowid, store.push(rowid, [step], None, txn))
                          for rowid in rng.sample(range(30), 3)]
                for __, version in writes:
                    txn.track_version(version)
                open_txns.append((txn, writes))
            elif roll < 0.75 and open_txns:
                txn, __ = open_txns.pop(rng.randrange(len(open_txns)))
                _commit(mvcc, txn)
            elif roll < 0.85 and open_txns:
                __, writes = open_txns.pop(rng.randrange(len(open_txns)))
                for rowid, version in reversed(writes):
                    store.pop(rowid, version)
            elif roll < 0.92:
                pinned.append(mvcc.take_snapshot(None))
            elif pinned:
                pinned.pop(rng.randrange(len(pinned)))
            if step % 7:
                continue
            lwm, before, stats = mvcc.low_water_mark(), chains(), \
                SnapshotStats()
            expected, cut, histogram = {}, 0, SnapshotStats()
            for rowid, scns in before.items():
                histogram.record_chain(len(scns))
                keep = next((i + 1 for i, scn in enumerate(scns)
                             if scn is not None and scn <= lwm), len(scns))
                cut += len(scns) - keep
                if keep > 1 or scns[0] is None or scns[0] > lwm:
                    expected[rowid] = scns[:keep]
            epoch = store._epoch
            assert store.prune(lwm, stats) == cut
            assert chains() == expected
            assert stats.chain_histogram == histogram.chain_histogram
            assert stats.heads_forgotten == len(before) - len(expected)
            # the epoch moves exactly when something was unmapped
            assert (store._epoch != epoch) == (len(before) > len(expected))
            forgotten += stats.heads_forgotten
        assert forgotten and store._heads  # both outcomes were exercised

    def test_prune_respects_live_snapshot(self):
        mvcc, store = MVCCManager(), VersionStore()
        t1 = _FakeTxn()
        t1.track_version(store.push("r1", ["a"], None, t1))
        _commit(mvcc, t1)
        pinned = mvcc.take_snapshot(None)  # still needs ["a"]
        t2 = _FakeTxn()
        t2.track_version(store.push("r1", ["b"], ["a"], t2))
        _commit(mvcc, t2)
        store.prune(mvcc.low_water_mark())
        assert store.resolve("r1", ["b"], pinned) == ["a"]

    def test_fence_hides_bulk_load_from_old_snapshot(self):
        mvcc, store = MVCCManager(), VersionStore()
        before = mvcc.take_snapshot(None)
        txn = _FakeTxn()
        fence = store.set_fence(txn)
        txn.track_version(fence)
        _commit(mvcc, txn)
        after = mvcc.take_snapshot(None)
        # untracked rowids (the bulk-loaded rows) are gated by the fence
        assert store.resolve("bulk1", ["row"], before) is None
        assert store.resolve("bulk1", ["row"], after) == ["row"]
        assert not store.clean
        # once no snapshot predates the load, prune drops the fence
        del before, after
        store.prune(mvcc.low_water_mark())
        assert store.clean


class TestResolveBatch:
    def test_no_chains_no_fence_returns_the_slots_untouched(self):
        mvcc, store = MVCCManager(), VersionStore()
        currents = [["a"], None, ["c"]]
        snap = mvcc.take_snapshot(None)
        assert store.resolve_batch(["r1", "r2", "r3"], currents, snap) \
            is currents

    def test_agrees_with_resolve_per_rowid(self, monkeypatch):
        mvcc, store = MVCCManager(), VersionStore()
        old = mvcc.take_snapshot(None)
        txn = _FakeTxn()
        txn.track_version(store.push("r1", ["new"], ["old"], txn))
        txn.track_version(store.push("r2", None, ["gone"], txn))
        _commit(mvcc, txn)
        rowids = ["r1", "r2", "r3"]
        currents = [["new"], None, ["plain"]]
        # rowids with a chain still enter through resolve()
        seen = []
        original = VersionStore.resolve

        def spy(self, rowid, current, snapshot):
            seen.append(rowid)
            return original(self, rowid, current, snapshot)

        monkeypatch.setattr(VersionStore, "resolve", spy)
        for snap in (old, mvcc.take_snapshot(None)):
            del seen[:]
            batch = store.resolve_batch(rowids, currents, snap)
            assert seen == ["r1", "r2"]
            assert batch == [original(store, r, c, snap)
                             for r, c in zip(rowids, currents)]
        assert store.resolve_batch(rowids, currents, old) \
            == [["old"], ["gone"], ["plain"]]

    def test_fence_hides_untracked_rows_from_older_snapshots(self):
        mvcc, store = MVCCManager(), VersionStore()
        before = mvcc.take_snapshot(None)
        txn = _FakeTxn()
        txn.track_version(store.set_fence(txn))
        _commit(mvcc, txn)
        after = mvcc.take_snapshot(None)
        currents = [["x"], ["y"]]
        assert store.resolve_batch(["b1", "b2"], currents, before) \
            == [None, None]
        assert store.resolve_batch(["b1", "b2"], currents, after) == currents


class TestBatchFetchUnderSnapshots:
    """Index-returned rowids resolve through the batch fetch exactly as
    through ``fetch_or_none``: rows updated, deleted or key-changed
    after the snapshot show the snapshot's version or vanish."""

    @pytest.fixture
    def world(self):
        engine = Engine()
        writer, reader = engine.connect(), engine.connect()
        writer.execute("CREATE TABLE t (k INTEGER, v VARCHAR2(20))")
        writer.insert_rows("t", [[i, f"v{i}"] for i in range(400)])
        writer.execute("CREATE INDEX t_k ON t(k)")
        writer.execute("COMMIT")
        storage = engine.catalog.get_table("t").storage
        rowids = [rowid for rowid, __ in storage.scan()]
        old = engine.mvcc.take_snapshot(None)
        writer.execute("UPDATE t SET v = 'changed' WHERE k = 3")
        writer.execute("DELETE FROM t WHERE k = 7")
        writer.execute("UPDATE t SET k = 1007 WHERE k = 11")  # key change
        writer.execute("INSERT INTO t VALUES (500, 'late')")
        writer.execute("COMMIT")
        writer.begin()
        writer.execute("UPDATE t SET v = 'in flight' WHERE k = 5")
        return engine, writer, reader, storage, rowids, old

    def test_batch_equals_row_at_a_time_for_every_snapshot(self, world):
        engine, writer, reader, storage, rowids, old = world
        rowids = rowids + [r for r, __ in storage.scan()
                           if r not in rowids]  # plus the late insert
        for snapshot in (old, engine.mvcc.take_snapshot(None), None):
            expected = [(rowid, storage.fetch_or_none(rowid, snapshot))
                        for rowid in rowids]
            expected = [(rowid, row) for rowid, row in expected
                        if row is not None]
            found, rows = storage.fetch_batch(rowids, snapshot)
            assert list(zip(found, rows)) == expected
        found, rows = storage.fetch_batch(rowids, old)
        by_key = {row[0]: row[1] for row in rows}
        assert by_key[3] == "v3" and by_key[7] == "v7"
        assert by_key[11] == "v11" and 1007 not in by_key
        assert 500 not in by_key and by_key[5] == "v5"
        writer.rollback()

    def test_index_scan_under_a_pinned_snapshot(self, world):
        engine, writer, reader, storage, rowids, old = world
        writer.rollback()
        sql = "SELECT k, v FROM t WHERE k BETWEEN :1 AND :2 AND v <> :3"
        binds = [0, 2000, "none"]
        assert any("INDEX RANGE SCAN" in ln
                   for ln in reader.explain(sql, binds))
        reader.execute("SET TRANSACTION READ ONLY")
        first = reader.execute(sql, binds).fetchall()
        assert len(first) == 400
        writer.execute("UPDATE t SET v = 'again' WHERE k = 20")
        writer.execute("UPDATE t SET v = 'none' WHERE k = 21")
        writer.execute("COMMIT")
        # the probe is current-mode (a row deleted or re-keyed after
        # the snapshot drops out of it — DESIGN.md §11); every rowid it
        # does return is re-validated against the snapshot
        assert reader.execute(sql, binds).fetchall() == first
        reader.execute("COMMIT")
        fresh = dict(reader.execute(sql, binds).fetchall())
        assert fresh[20] == "again" and 21 not in fresh

    def test_stale_rowids_after_truncate_are_dropped(self, world):
        engine, writer, reader, storage, rowids, old = world
        writer.rollback()
        writer.execute("TRUNCATE TABLE t")
        snapshot = engine.mvcc.take_snapshot(None)
        assert storage.fetch_batch(rowids, snapshot) == ([], [])
        assert [storage.fetch_or_none(r, snapshot) for r in rowids[:3]] \
            == [None, None, None]


class TestManager:
    def test_commit_stamps_all_versions_with_one_scn(self):
        mvcc = MVCCManager()
        txn = _FakeTxn()
        versions = [RowVersion(None, txn.txn_id, [i]) for i in range(3)]
        txn.versions = versions
        mvcc.commit_transaction(txn)
        scns = {v.scn for v in versions}
        assert scns == {mvcc.current_scn}

    def test_lwm_tracks_oldest_live_snapshot(self):
        mvcc = MVCCManager()
        old = mvcc.take_snapshot(None)
        for __ in range(3):
            mvcc.commit_transaction(_FakeTxn())
        assert mvcc.low_water_mark() == old.scn
        assert mvcc.oldest_active_scn() == old.scn
        del old
        assert mvcc.low_water_mark() == mvcc.current_scn
        assert mvcc.oldest_active_scn() is None


class TestSqlSurface:
    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER, v VARCHAR2(20))")
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
        return db

    def test_read_your_writes(self, db):
        db.begin()
        db.execute("UPDATE t SET v = 'uno' WHERE k = 1")
        assert db.execute("SELECT v FROM t WHERE k = 1"
                          ).fetchall() == [("uno",)]
        db.rollback()
        assert db.execute("SELECT v FROM t WHERE k = 1"
                          ).fetchall() == [("one",)]

    def test_read_committed_sees_other_sessions_commits(self):
        engine = Engine()
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("CREATE TABLE t (k INTEGER)")
        s1.execute("INSERT INTO t VALUES (1)")
        assert s2.execute("SELECT COUNT(*) FROM t").fetchall() == [(1,)]
        s1.execute("INSERT INTO t VALUES (2)")
        # a *new* statement takes a new snapshot: sees the second row
        assert s2.execute("SELECT COUNT(*) FROM t").fetchall() == [(2,)]

    def test_uncommitted_writes_invisible_across_sessions(self):
        engine = Engine()
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("CREATE TABLE t (k INTEGER)")
        s1.execute("INSERT INTO t VALUES (1)")
        s1.begin()
        s1.execute("INSERT INTO t VALUES (2)")
        s1.execute("UPDATE t SET k = 100 WHERE k = 1")
        # reader sees the pre-transaction state, without blocking
        assert s2.execute("SELECT k FROM t ORDER BY k"
                          ).fetchall() == [(1,)]
        s1.commit()
        assert sorted(s2.execute("SELECT k FROM t").fetchall()) \
            == [(2,), (100,)]

    def test_read_only_txn_pins_one_snapshot(self):
        engine = Engine()
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("CREATE TABLE t (k INTEGER)")
        s1.execute("INSERT INTO t VALUES (1)")
        s2.execute("SET TRANSACTION READ ONLY")
        assert s2.execute("SELECT COUNT(*) FROM t").fetchall() == [(1,)]
        s1.execute("INSERT INTO t VALUES (2)")
        # still the transaction snapshot: the new commit is invisible
        assert s2.execute("SELECT COUNT(*) FROM t").fetchall() == [(1,)]
        s2.execute("COMMIT")
        assert s2.execute("SELECT COUNT(*) FROM t").fetchall() == [(2,)]

    def test_read_only_txn_rejects_dml(self, db):
        db.execute("SET TRANSACTION READ ONLY")
        with pytest.raises(TransactionError):
            db.execute("INSERT INTO t VALUES (3, 'three')")
        db.rollback()

    def test_serializable_pins_snapshot_but_allows_dml(self):
        engine = Engine()
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("CREATE TABLE t (k INTEGER)")
        s1.execute("INSERT INTO t VALUES (1)")
        s2.execute("SET TRANSACTION ISOLATION LEVEL SERIALIZABLE")
        assert s2.execute("SELECT COUNT(*) FROM t").fetchall() == [(1,)]
        s1.execute("INSERT INTO t VALUES (2)")
        assert s2.execute("SELECT COUNT(*) FROM t").fetchall() == [(1,)]
        s2.execute("INSERT INTO t VALUES (3)")  # DML allowed
        # read-your-writes on top of the frozen snapshot
        assert s2.execute("SELECT COUNT(*) FROM t").fetchall() == [(2,)]
        s2.execute("COMMIT")
        assert s2.execute("SELECT COUNT(*) FROM t").fetchall() == [(3,)]

    def test_set_transaction_must_come_first(self, db):
        db.begin()
        db.execute("INSERT INTO t VALUES (3, 'three')")
        with pytest.raises(TransactionError):
            db.execute("SET TRANSACTION READ ONLY")
        db.rollback()

    def test_savepoint_rollback_pops_versions(self, db):
        db.begin()
        db.execute("UPDATE t SET v = 'first' WHERE k = 1")
        db.execute("SAVEPOINT sp1")
        db.execute("UPDATE t SET v = 'second' WHERE k = 1")
        db.execute("ROLLBACK TO SAVEPOINT sp1")
        assert db.execute("SELECT v FROM t WHERE k = 1"
                          ).fetchall() == [("first",)]
        db.commit()
        assert db.execute("SELECT v FROM t WHERE k = 1"
                          ).fetchall() == [("first",)]

    def test_iot_versioned_reads(self):
        engine = Engine()
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("CREATE TABLE iot (k INTEGER, v VARCHAR2(20),"
                   " PRIMARY KEY (k)) ORGANIZATION INDEX")
        s1.execute("INSERT INTO iot VALUES (1, 'a'), (2, 'b')")
        s1.begin()
        s1.execute("UPDATE iot SET v = 'z' WHERE k = 1")
        s1.execute("DELETE FROM iot WHERE k = 2")
        s1.execute("INSERT INTO iot VALUES (3, 'c')")
        assert s2.execute("SELECT k, v FROM iot ORDER BY k"
                          ).fetchall() == [(1, "a"), (2, "b")]
        s1.commit()
        assert s2.execute("SELECT k, v FROM iot ORDER BY k"
                          ).fetchall() == [(1, "z"), (3, "c")]

    def test_iot_ghosts_through_the_sql_surface(self):
        """A READ ONLY transaction opened before a delete, a
        key-changing update and a delete-then-reinsert keeps reading
        the old rows through prefix, full-key and full scans; once it
        ends, a prune pass leaves no ghost behind."""
        engine = Engine()
        writer, reader = engine.connect(), engine.connect()
        writer.execute("CREATE TABLE p (tok VARCHAR2(8), doc INTEGER,"
                       " freq INTEGER, PRIMARY KEY (tok, doc))"
                       " ORGANIZATION INDEX")
        writer.execute("INSERT INTO p VALUES ('a', 1, 1), ('a', 2, 1),"
                       " ('b', 1, 1), ('b', 2, 1), ('c', 1, 1)")
        storage = engine.catalog.get_table("p").storage
        reader.execute("SET TRANSACTION READ ONLY")
        old = sorted(reader.execute("SELECT * FROM p").fetchall())

        writer.execute("DELETE FROM p WHERE tok = 'a' AND doc = 2")
        writer.execute("UPDATE p SET tok = 'z' WHERE tok = 'b' AND doc = 1")
        writer.execute("DELETE FROM p WHERE tok = 'c'")
        writer.execute("INSERT INTO p VALUES ('c', 1, 9)")
        assert storage.ghost_count == 2   # ('a', 2) and ('b', 1)

        def read(session, where):
            return sorted(session.execute(
                f"SELECT * FROM p WHERE {where}").fetchall())

        assert sorted(reader.execute("SELECT * FROM p").fetchall()) == old
        assert read(reader, "tok = 'a'") == [("a", 1, 1), ("a", 2, 1)]
        assert read(reader, "tok = 'a' AND doc = 2") == [("a", 2, 1)]
        assert read(reader, "tok = 'b'") == [("b", 1, 1), ("b", 2, 1)]
        assert read(reader, "tok = 'z'") == []
        assert read(reader, "tok = 'c'") == [("c", 1, 1)]
        assert read(writer, "tok = 'a'") == [("a", 1, 1)]
        assert read(writer, "tok = 'b'") == [("b", 2, 1)]
        assert read(writer, "tok = 'z'") == [("z", 1, 1)]
        assert read(writer, "tok = 'c'") == [("c", 1, 9)]

        engine.prune_versions()
        assert storage.ghost_count == 2   # the reader still needs them
        reader.commit()
        engine.prune_versions()
        assert storage.ghost_count == 0
        assert sorted(reader.execute("SELECT * FROM p").fetchall()) == [
            ("a", 1, 1), ("b", 2, 1), ("c", 1, 9), ("z", 1, 1)]

    def test_rolled_back_iot_delete_leaves_no_ghost(self):
        engine = Engine()
        session = engine.connect()
        session.execute("CREATE TABLE p (tok VARCHAR2(8), doc INTEGER,"
                        " PRIMARY KEY (tok, doc)) ORGANIZATION INDEX")
        session.execute("INSERT INTO p VALUES ('a', 1), ('a', 2)")
        storage = engine.catalog.get_table("p").storage
        session.begin()
        session.execute("DELETE FROM p WHERE tok = 'a' AND doc = 1")
        assert storage.ghost_count == 1
        session.rollback()
        assert storage.ghost_count == 0
        assert session.execute("SELECT COUNT(*) FROM p WHERE tok = 'a'"
                               ).fetchall() == [(2,)]

    def test_snapshot_stats_view_counts(self, db):
        before = db.engine.mvcc.stats.snapshots_taken
        db.execute("SELECT * FROM t").fetchall()
        assert db.engine.mvcc.stats.snapshots_taken > before
        row = db.execute("SELECT snapshots_taken, current_scn"
                         " FROM user_snapshot_stats").fetchall()[0]
        assert row[0] >= 1 and row[1] >= 1

    def test_lock_stats_view(self, db):
        rows = db.execute("SELECT acquisitions, waits, deadlocks"
                          " FROM user_lock_stats").fetchall()
        assert len(rows) == 1
        assert rows[0][1] == 0 and rows[0][2] == 0

    def test_snapshot_reads_off_still_correct_single_session(self, db):
        db.snapshot_reads = False
        assert db.execute("SELECT v FROM t ORDER BY k"
                          ).fetchall() == [("one",), ("two",)]

    def test_explicit_prune_pass(self, db):
        for i in range(10):
            db.execute(f"UPDATE t SET v = 'v{i}' WHERE k = 1")
        removed = db.engine.prune_versions()
        assert removed > 0
        assert db.execute("SELECT v FROM t WHERE k = 1"
                          ).fetchall() == [("v9",)]

    def test_background_pruner_start_stop(self, db):
        db.engine.start_version_pruner(interval=0.01)
        try:
            for i in range(5):
                db.execute(f"UPDATE t SET v = 'w{i}' WHERE k = 1")
        finally:
            db.engine.stop_version_pruner()
        assert db.execute("SELECT v FROM t WHERE k = 1"
                          ).fetchall() == [("w4",)]


class TestSettledRowsAreUnmapped:
    """The store's invariant, through the engine: a rowid is mapped
    exactly while some snapshot could see something other than its
    slot."""

    def _world(self):
        from repro.cartridges.text import install
        engine = Engine()
        session = engine.connect()
        install(session)
        session.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(80))")
        session.execute("CREATE TABLE p (tok VARCHAR2(8), doc INTEGER,"
                        " PRIMARY KEY (tok, doc)) ORGANIZATION INDEX")
        session.insert_rows("docs", [[i, f"alpha w{i}"] for i in range(40)])
        session.execute("CREATE INDEX docs_tidx ON docs(body)"
                        " INDEXTYPE IS TextIndexType")
        for i in range(40, 60):
            session.execute("INSERT INTO docs VALUES (:1, :2)",
                            [i, f"alpha w{i}"])
            session.execute("INSERT INTO p VALUES ('a', :1)", [i])
        session.execute("UPDATE docs SET body = 'alpha moved' WHERE id < 10")
        session.execute("DELETE FROM docs WHERE id BETWEEN 10 AND 19")
        session.execute("DELETE FROM p WHERE doc < 50")
        return engine, session

    @staticmethod
    def _stores(engine):
        return {name: table.storage
                for name, table in engine.catalog.tables.items()
                if getattr(table.storage, "versions", None) is not None}

    def test_one_pass_with_nothing_live_leaves_nothing_mapped(self):
        engine, session = self._world()
        del session
        engine.prune_versions()
        for name, storage in self._stores(engine).items():
            assert storage.versions.tracked_rowids() == [], name
            assert storage.versions.clean, name  # no fence either
            assert getattr(storage, "ghost_count", 0) == 0, name
        check = engine.connect()
        assert check.execute("SELECT COUNT(*) FROM docs WHERE"
                             " Contains(body, 'alpha')").fetchall() == [(50,)]
        assert check.execute("SELECT COUNT(*) FROM p WHERE tok = 'a'"
                             ).fetchall() == [(10,)]

    def test_what_a_snapshot_or_a_writer_still_needs_survives_the_pass(self):
        engine, session = self._world()
        engine.prune_versions()
        docs = engine.catalog.get_table("docs").storage
        reader = engine.connect()
        reader.execute("SET TRANSACTION READ ONLY")
        before = sorted(reader.execute("SELECT * FROM docs").fetchall())
        rowid = {row[0]: rid for rid, row in docs.scan()}
        session.execute("UPDATE docs SET body = 'alpha late' WHERE id = 30")
        session.execute("UPDATE docs SET body = 'alpha later' WHERE id = 30")
        session.execute("INSERT INTO docs VALUES (99, 'alpha new')")
        writer = engine.connect()
        writer.begin()
        writer.execute("UPDATE docs SET body = 'alpha busy' WHERE id = 31")
        rowid[99] = next(rid for rid, row in docs.scan() if row[0] == 99)
        engine.prune_versions()
        versions = docs.versions
        # history below a live snapshot, a head it cannot see, in flight
        assert versions.chain_length(rowid[30]) == 3
        assert versions.chain_length(rowid[99]) == 1
        assert versions.chain_length(rowid[31]) == 2
        assert set(versions.tracked_rowids()) == {
            rowid[30], rowid[99], rowid[31]}
        assert sorted(reader.execute("SELECT * FROM docs").fetchall()) \
            == before
        writer.rollback()
        reader.commit()
        engine.prune_versions()
        assert versions.tracked_rowids() == []

    def test_a_large_load_settles_at_its_own_commit(self):
        """The pass is due by versions stamped, not by commits."""
        from repro.txn.mvcc import PRUNE_INTERVAL
        db = Engine().connect()
        db.execute("CREATE TABLE t (k INTEGER, v VARCHAR2(20))")
        storage = db.catalog.get_table("t").storage
        db.engine.prune_versions()
        passes = db.engine.mvcc.stats.prune_passes
        db.begin()
        for i in range(PRUNE_INTERVAL):
            db.execute("INSERT INTO t VALUES (:1, 'x')", [100 + i])
        assert len(storage.versions.tracked_rowids()) == PRUNE_INTERVAL
        db.commit()
        assert db.engine.mvcc.stats.prune_passes == passes + 1
        assert storage.versions.tracked_rowids() == []

    def test_a_due_pass_waits_for_the_low_water_mark_to_move(self):
        """Nothing committed since the last pass can have settled while
        a pinned snapshot holds the mark where that pass left it."""
        from repro.txn.mvcc import PRUNE_INTERVAL
        engine = Engine()
        session = engine.connect()
        session.execute("CREATE TABLE t (k INTEGER)")
        reader = engine.connect()
        reader.execute("SET TRANSACTION READ ONLY")
        engine.prune_versions()
        passes = engine.mvcc.stats.prune_passes
        for i in range(2 * PRUNE_INTERVAL):
            session.execute("INSERT INTO t VALUES (:1)", [i])
        assert engine.mvcc.stats.prune_passes == passes
        reader.commit()
        session.execute("INSERT INTO t VALUES (-1)")
        assert engine.mvcc.stats.prune_passes == passes + 1
        storage = engine.catalog.get_table("t").storage
        assert storage.versions.tracked_rowids() == []

    def test_every_unmapping_bumps_the_epoch_first(self):
        """``prune`` and ``pop`` are the two places a single mapping is
        removed (``clear`` drops the lot); by the time the mapping goes
        the epoch has already moved."""
        import inspect
        import re
        unmapping = re.compile(r"del (self\._)?heads\[|heads\.(clear|pop)\(")
        assert {name for name, fn in vars(VersionStore).items()
                if inspect.isfunction(fn)
                and unmapping.search(inspect.getsource(fn))} \
            == {"prune", "pop", "clear"}

        class Watched(dict):
            """Records the store's epoch at each removal."""
            seen = []

            def __delitem__(self, key):
                self.seen.append(store._epoch)
                super().__delitem__(key)

            def clear(self):
                self.seen.append(store._epoch)
                super().clear()

        mvcc, store = MVCCManager(), VersionStore()
        store._heads = Watched()

        def committed(*rowids):
            txn = _FakeTxn()
            for rowid in rowids:
                txn.track_version(store.push(rowid, ["v"], None, txn))
            _commit(mvcc, txn)

        before = store._epoch
        store.pop("r", store.push("r", ["v"], None, _FakeTxn()))
        assert Watched.seen == [before + 1]         # pop
        committed("a", "b")
        store.push("c", ["v"], None, _FakeTxn())
        store.prune(mvcc.low_water_mark())          # forgets two of three
        assert Watched.seen[1:] == [before + 2] * 2
        assert len(store._heads) == 1
        committed("d")
        store.pop("c", store._heads["c"])
        store.prune(mvcc.low_water_mark())          # forgets them all
        store.clear()
        assert Watched.seen[3:] == [before + 3, before + 4, before + 5]
        assert store._epoch == before + 5

    def test_the_storages_never_look_inside_the_store(self):
        """The read bracket lives in mvcc.py: heap.py and iot.py go
        through ``read`` / ``resolve*`` / ``settled`` / ``tracked``."""
        import pathlib
        import re
        import repro.storage
        for name in ("heap.py", "iot.py"):
            source = (pathlib.Path(repro.storage.__file__).parent
                      / name).read_text("utf-8")
            assert not re.search(r"_heads|_fence|_epoch", source), name
