"""Restart recovery: durability of committed work, undo of losers,
clean-shutdown fast path, SCN restoration, IOT and bulk-load replay,
TRUNCATE/DROP permanence, domain-index degradation, and WAL panic.

The crash idiom: abandon the engine without ``close()`` after calling
``simulate_crash()`` on the log device, which drops every byte the
device never fsynced — exactly what a power cut leaves behind.  Commits
fsync before acking, so committed transactions always survive it.
"""

import pytest

from repro import Database, FetchResult, IndexMethods, IndexState, \
    PrecomputedScan, WALError
from repro.testing import StorageFaultPlan

pytestmark = pytest.mark.crash


def crash(db):
    """Power-cut: drop unfsynced log bytes, abandon the instance."""
    dur = db.engine.durability
    if dur.log_writer is not None:
        dur.log_writer.stop()
    dur.wal.device.simulate_crash()


@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "db")


class TestCleanShutdown:
    def test_reopen_after_close_is_clean(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.execute("INSERT INTO t VALUES (1, 'one')")
        db.close()

        db2 = Database(data_dir=data_dir)
        stats = db2.engine.recovery_stats
        assert stats.ran and stats.clean
        assert stats.redo_records == 0
        assert stats.undo_records == 0
        assert stats.loser_transactions == 0
        assert db2.query("SELECT v FROM t") == [("one",)]
        db2.close()

    def test_close_is_idempotent(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER)")
        db.close()
        db.close()  # second close is a no-op, not an error

    def test_recovery_stats_view_after_clean_reopen(self, data_dir):
        Database(data_dir=data_dir).close()
        db = Database(data_dir=data_dir)
        rows = db.query("SELECT ran, clean, redo_records, undo_records "
                        "FROM user_recovery_stats")
        assert rows == [(True, True, 0, 0)]
        db.close()


class TestCrashRecovery:
    def test_committed_work_survives(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.begin()
        for i in range(20):
            db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        db.commit()
        db.begin()
        db.execute("UPDATE t SET v = 'upd' WHERE id < 5")
        db.execute("DELETE FROM t WHERE id = 19")
        db.commit()
        crash(db)

        db2 = Database(data_dir=data_dir)
        assert not db2.engine.recovery_stats.clean
        rows = dict(db2.query("SELECT id, v FROM t"))
        assert len(rows) == 19
        assert rows[0] == "upd" and rows[10] == "v10" and 19 not in rows
        db2.close()

    def test_loser_transaction_fully_undone(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.execute("INSERT INTO t VALUES (1, 'keep')")
        db.begin()
        db.execute("INSERT INTO t VALUES (2, 'loser')")
        db.execute("UPDATE t SET v = 'dirty' WHERE id = 1")
        # the loser's records happen to be fsynced (a concurrent commit
        # would do this); recovery must still undo them
        db.engine.durability.wal.flush_all()
        crash(db)

        db2 = Database(data_dir=data_dir)
        stats = db2.engine.recovery_stats
        assert stats.loser_transactions == 1
        assert stats.undo_records == 2
        assert db2.query("SELECT id, v FROM t") == [(1, "keep")]
        db2.close()

    def test_unfsynced_tail_simply_disappears(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.begin()
        db.execute("INSERT INTO t VALUES (2)")  # never flushed, no commit
        crash(db)

        db2 = Database(data_dir=data_dir)
        assert db2.query("SELECT id FROM t") == [(1,)]
        db2.close()

    def test_scn_clock_restored(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i})")
        scn_before = db.engine.mvcc.current_scn
        crash(db)

        db2 = Database(data_dir=data_dir)
        assert db2.engine.mvcc.current_scn >= scn_before
        # new commits must get strictly newer SCNs than recovered ones
        db2.execute("INSERT INTO t VALUES (99)")
        assert db2.engine.mvcc.current_scn > scn_before
        db2.close()

    def test_iot_crud_replayed(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE kv (a NUMBER, b NUMBER, "
                   "PRIMARY KEY (a)) ORGANIZATION INDEX")
        db.begin()
        for i in range(10):
            db.execute(f"INSERT INTO kv VALUES ({i}, {i})")
        db.commit()
        db.begin()
        db.execute("UPDATE kv SET b = 100 WHERE a = 3")
        db.execute("DELETE FROM kv WHERE a = 7")
        db.commit()
        db.begin()
        db.execute("DELETE FROM kv WHERE a = 0")  # loser
        crash(db)

        db2 = Database(data_dir=data_dir)
        rows = db2.query("SELECT a, b FROM kv ORDER BY a")
        assert len(rows) == 9
        assert (3, 100) in rows and (7, 7) not in rows and (0, 0) in rows
        # key order (the IOT's native access path) survived recovery
        assert rows == sorted(rows)
        db2.close()

    def test_iot_checkpoint_image_then_redo(self, data_dir):
        """The tree comes back from the checkpointed dump plus the log
        after it; the dump is one list per column, of which the page
        store keeps the pickled bytes."""
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE kv (a VARCHAR2(8), b NUMBER, c NUMBER, "
                   "PRIMARY KEY (a, b)) ORGANIZATION INDEX")
        db.execute("CREATE TABLE none (a NUMBER, PRIMARY KEY (a)) "
                   "ORGANIZATION INDEX")
        db.executemany("INSERT INTO kv VALUES (:1, :2, :3)",
                       [[f"k{i % 5}", i, i] for i in range(40)])
        db.engine.durability.checkpoint()
        storage = db.catalog.get_table("kv").storage
        pages = db.engine.durability.pages
        assert set(pages.iot_dumps[storage.segment_id]) == {
            "snap_lsn", "body"}
        image = pages.iot_dump_of(storage.segment_id)
        assert [len(column) for column in image["columns"]] == [40, 40, 40]
        assert image["columns"][0][:9] == ["k0"] * 8 + ["k1"]
        db.execute("UPDATE kv SET c = 100 WHERE a = 'k3' AND b = 3")
        db.execute("DELETE FROM kv WHERE a = 'k4'")
        db.execute("INSERT INTO kv VALUES ('k9', 9, 9)")
        # the kept image is the state at the checkpoint, still
        image = pages.iot_dump_of(storage.segment_id)
        assert sorted(zip(*image["columns"])) == sorted(
            (f"k{i % 5}", i, i) for i in range(40))
        expected = db.query("SELECT a, b, c FROM kv")
        crash(db)

        db2 = Database(data_dir=data_dir)
        assert db2.query("SELECT a, b, c FROM kv") == expected
        assert ("k3", 3, 100) in expected and len(expected) == 33
        assert db2.query("SELECT c FROM kv WHERE a = 'k9' AND b = 9") \
            == [(9,)]
        assert db2.query("SELECT COUNT(*) FROM none") == [(0,)]
        db2.close()

    def test_page_store_compaction_keeps_pages_and_iot_dumps(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.execute("CREATE TABLE kv (a NUMBER, b NUMBER, PRIMARY KEY (a)) "
                   "ORGANIZATION INDEX")
        for i in range(30):
            db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
            db.execute(f"INSERT INTO kv VALUES ({i}, {i * i})")
        pages = db.engine.durability.pages
        for __ in range(3):   # three generations of every image
            db.execute("UPDATE kv SET b = b + 1 WHERE a = 5")
            db.execute("UPDATE t SET v = 'w' WHERE id = 5")
            db.engine.durability.checkpoint()
        written = pages.records_written
        pages.compact()
        assert pages.records_written < written
        expected = (db.query("SELECT id, v FROM t ORDER BY id"),
                    db.query("SELECT a, b FROM kv"))
        crash(db)

        db2 = Database(data_dir=data_dir)
        assert (db2.query("SELECT id, v FROM t ORDER BY id"),
                db2.query("SELECT a, b FROM kv")) == expected
        assert (5, 28) in expected[1]
        db2.close()

    def test_bulk_load_replayed(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.executemany("INSERT INTO t VALUES (:1, :2)",
                       [[i, f"v{i}"] for i in range(50)])
        crash(db)

        db2 = Database(data_dir=data_dir)
        rows = db2.query("SELECT COUNT(*) FROM t")
        assert rows == [(50,)]
        db2.close()

    def test_native_index_rebuilt_from_storage(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.execute("CREATE INDEX t_id ON t (id)")
        db.begin()
        for i in range(30):
            db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        db.commit()
        crash(db)

        db2 = Database(data_dir=data_dir)
        assert db2.query("SELECT v FROM t WHERE id = 17") == [("v17",)]
        index = db2.catalog.get_index("t_id")
        assert index.structure is not None
        db2.close()


class TestDDLPermanence:
    def test_truncate_not_resurrected(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("CREATE TABLE kv (a NUMBER, PRIMARY KEY (a)) "
                   "ORGANIZATION INDEX")
        for i in range(10):
            db.execute(f"INSERT INTO t VALUES ({i})")
            db.execute(f"INSERT INTO kv VALUES ({i})")
        db.execute("TRUNCATE TABLE t")
        db.execute("TRUNCATE TABLE kv")
        crash(db)

        db2 = Database(data_dir=data_dir)
        assert db2.query("SELECT COUNT(*) FROM t") == [(0,)]
        assert db2.query("SELECT COUNT(*) FROM kv") == [(0,)]
        # and the truncated tables accept new durable rows
        db2.execute("INSERT INTO t VALUES (100)")
        db2.execute("INSERT INTO kv VALUES (100)")
        crash(db2)
        db3 = Database(data_dir=data_dir)
        assert db3.query("SELECT id FROM t") == [(100,)]
        assert db3.query("SELECT a FROM kv") == [(100,)]
        db3.close()

    def test_drop_table_stays_dropped(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE gone_heap (id NUMBER)")
        db.execute("CREATE TABLE gone_iot (a NUMBER, PRIMARY KEY (a)) "
                   "ORGANIZATION INDEX")
        db.execute("INSERT INTO gone_heap VALUES (1)")
        db.execute("INSERT INTO gone_iot VALUES (1)")
        db.execute("DROP TABLE gone_heap")
        db.execute("DROP TABLE gone_iot")
        crash(db)

        db2 = Database(data_dir=data_dir)
        names = {r[0] for r in db2.query("SELECT table_name "
                                         "FROM user_tables")}
        assert "gone_heap" not in names and "gone_iot" not in names
        db2.close()

    def test_grants_survive_restart(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("GRANT SELECT ON t TO alice")
        crash(db)

        db2 = Database(data_dir=data_dir)
        alice = db2.engine.connect(user="alice")
        assert alice.execute("SELECT COUNT(*) FROM t").fetchall() == [(0,)]
        db2.close()


class TestWalPanic:
    def test_failed_log_refuses_commits(self, data_dir):
        plan = StorageFaultPlan().io_error("wal.append", nth=3)
        db = Database(data_dir=data_dir, storage_fault_plan=plan)
        db.execute("CREATE TABLE t (id NUMBER)")
        db.begin()
        with pytest.raises(WALError):
            while True:  # the nth append dies mid-transaction
                db.execute("INSERT INTO t VALUES (1)")
        db.rollback()  # in-memory undo still runs (CLR logging is moot)
        db.begin()
        with pytest.raises(WALError):
            db.execute("INSERT INTO t VALUES (2)")
        # restart clears the panic; the dead log's losers are gone
        del db
        db2 = Database(data_dir=data_dir)
        assert db2.query("SELECT COUNT(*) FROM t") == [(0,)]
        db2.execute("INSERT INTO t VALUES (3)")
        db2.close()

    def test_torn_commit_record_not_recovered(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER)")
        db.close()

        plan = StorageFaultPlan()
        db2 = Database(data_dir=data_dir, storage_fault_plan=plan)
        db2.execute("INSERT INTO t VALUES (1)")
        # tear the second append from here: the U record of the next
        # transaction lands intact, then its commit record tears
        plan.torn_write("wal.append", nth=2, fraction=0.3)
        db2.begin()
        db2.execute("INSERT INTO t VALUES (2)")
        with pytest.raises(WALError):
            db2.commit()
        crash(db2)

        db3 = Database(data_dir=data_dir)
        # txn 1 committed intact; txn 2's commit record is torn, so the
        # checksum scan stops before it and the txn is undone as a loser
        assert db3.query("SELECT id FROM t") == [(1,)]
        db3.close()


class TestEngineOptions:
    def test_per_commit_fsync_mode_recovers(self, data_dir):
        db = Database(data_dir=data_dir, wal_group_commit=False)
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("INSERT INTO t VALUES (1)")
        crash(db)
        db2 = Database(data_dir=data_dir, wal_group_commit=False)
        assert db2.query("SELECT id FROM t") == [(1,)]
        db2.close()

    def test_wal_stats_view_reports_activity(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("INSERT INTO t VALUES (1)")
        rows = db.query("SELECT enabled, commit_records, failed "
                        "FROM user_wal_stats")
        assert rows[0][0] is True
        assert rows[0][1] >= 1
        assert rows[0][2] is False
        db.close()
