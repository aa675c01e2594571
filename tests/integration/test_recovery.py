"""Restart recovery: durability of committed work, undo of losers,
clean-shutdown fast path, SCN restoration, IOT and bulk-load replay,
TRUNCATE/DROP permanence, domain-index degradation, and WAL panic.

The crash idiom: abandon the engine without ``close()`` after calling
``simulate_crash()`` on the log device, which drops every byte the
device never fsynced — exactly what a power cut leaves behind.  Commits
fsync before acking, so committed transactions always survive it.
"""

import collections
import os
import pickle
import struct
import zlib

import pytest

from repro import Engine, WALError
from repro.errors import CatalogError, ConstraintError
from repro.storage.durability import CATALOG_FILE, PAGES_FILE, WAL_FILE
from repro.testing import StorageFaultPlan

pytestmark = pytest.mark.crash


def crash(db):
    """Power-cut: drop unfsynced log bytes, abandon the instance."""
    db.engine.durability.wal.device.simulate_crash()


@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "db")


class TestCleanShutdown:
    def test_reopen_after_close_is_clean(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.execute("INSERT INTO t VALUES (1, 'one')")
        db.close()
        db.engine.close()

        db2 = Engine(data_dir=data_dir).connect()
        stats = db2.engine.recovery_stats
        assert stats.ran and stats.clean
        assert stats.redo_records == 0
        assert stats.undo_records == 0
        assert stats.loser_transactions == 0
        assert db2.execute("SELECT v FROM t").fetchall() == [("one",)]
        db2.close()
        db2.engine.close()

    def test_close_is_idempotent(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.close()
        db.engine.close()
        db.close()  # second closes are no-ops, not errors
        db.engine.close()

    def test_recovery_stats_view_after_clean_reopen(self, data_dir):
        Engine(data_dir=data_dir).close()
        db = Engine(data_dir=data_dir).connect()
        rows = db.execute("SELECT ran, clean, redo_records, undo_records "
                          "FROM user_recovery_stats").fetchall()
        assert rows == [(True, True, 0, 0)]
        db.close()
        db.engine.close()


class TestCrashRecovery:
    def test_committed_work_survives(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
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

        db2 = Engine(data_dir=data_dir).connect()
        assert not db2.engine.recovery_stats.clean
        rows = dict(db2.execute("SELECT id, v FROM t").fetchall())
        assert len(rows) == 19
        assert rows[0] == "upd" and rows[10] == "v10" and 19 not in rows
        db2.close()
        db2.engine.close()

    def test_loser_transaction_fully_undone(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.execute("INSERT INTO t VALUES (1, 'keep')")
        db.begin()
        db.execute("INSERT INTO t VALUES (2, 'loser')")
        db.execute("UPDATE t SET v = 'dirty' WHERE id = 1")
        # the loser's records happen to be fsynced (a concurrent commit
        # would do this); recovery must still undo them
        db.engine.durability.wal.flush_all()
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        stats = db2.engine.recovery_stats
        assert stats.loser_transactions == 1
        assert stats.undo_records == 2
        assert db2.execute("SELECT id, v FROM t").fetchall() == [(1, "keep")]
        db2.close()
        db2.engine.close()

    def test_unfsynced_tail_simply_disappears(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.begin()
        db.execute("INSERT INTO t VALUES (2)")  # never flushed, no commit
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        assert db2.execute("SELECT id FROM t").fetchall() == [(1,)]
        db2.close()
        db2.engine.close()

    def test_scn_clock_restored(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i})")
        scn_before = db.engine.mvcc.current_scn
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        assert db2.engine.mvcc.current_scn >= scn_before
        # new commits must get strictly newer SCNs than recovered ones
        db2.execute("INSERT INTO t VALUES (99)")
        assert db2.engine.mvcc.current_scn > scn_before
        db2.close()
        db2.engine.close()

    def test_iot_crud_replayed(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
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
        # the loser's load goes between the stored keys (one of them
        # back over the deleted 7), and its rows reach the IOT's image
        # before the crash: restart undoes it by key
        db.executemany("INSERT INTO kv VALUES (:1, :2)",
                       [[i + 0.5, -1] for i in range(10)] + [[7, -7]])
        db.engine.durability.checkpoint()
        db.engine.durability.wal.flush_all()
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        assert db2.engine.recovery_stats.loser_transactions == 1
        rows = db2.execute("SELECT a, b FROM kv ORDER BY a").fetchall()
        assert len(rows) == 9
        assert (3, 100) in rows and (7, 7) not in rows and (0, 0) in rows
        assert all(b >= 0 for __, b in rows)
        # key order (the IOT's native access path) survived recovery
        assert rows == sorted(rows)
        db2.close()
        db2.engine.close()

    def test_iot_emptied_by_redo_stays_empty_after_a_second_restart(
            self, data_dir):
        """Redo that empties an IOT must rewrite its dump: recovery's
        closing checkpoint truncates the log, so a dump left holding
        the deleted row would bring it back at the next restart."""
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE kv (a NUMBER, b NUMBER, "
                   "PRIMARY KEY (a)) ORGANIZATION INDEX")
        db.execute("INSERT INTO kv VALUES (1, 1)")
        db.engine.durability.checkpoint()
        db.execute("DELETE FROM kv WHERE a = 1")
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        assert db2.execute("SELECT a FROM kv").fetchall() == []
        crash(db2)

        db3 = Engine(data_dir=data_dir).connect()
        assert db3.execute("SELECT a FROM kv").fetchall() == []
        db3.close()
        db3.engine.close()

    def test_iot_checkpoint_image_then_redo(self, data_dir):
        """The tree comes back from the checkpointed dump plus the log
        after it; the dump is one list per column, of which the page
        store keeps the pickled bytes."""
        db = Engine(data_dir=data_dir).connect()
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
        expected = db.execute("SELECT a, b, c FROM kv").fetchall()
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        assert db2.execute("SELECT a, b, c FROM kv").fetchall() == expected
        assert ("k3", 3, 100) in expected and len(expected) == 33
        assert db2.execute(
            "SELECT c FROM kv WHERE a = 'k9' AND b = 9").fetchall() \
            == [(9,)]
        assert db2.execute("SELECT COUNT(*) FROM none").fetchall() == [(0,)]
        db2.close()
        db2.engine.close()

    def test_tile_index_checkpoint_image_then_redo(self, data_dir):
        """The tile index's IOT comes back from its checkpointed dump
        plus the log after it: its rows are the covers of the live rows,
        keyed deletes included, and its primary filter with the exact
        test answers what the functional ``Sdo_Relate`` answers — before
        and after the rebuild that makes the index usable again."""
        from repro.cartridges.spatial import install, make_rect
        from repro.cartridges.spatial.indextype import (
            SpatialIndexMethods, sdo_relate_functional)
        from repro.cartridges.spatial.tiling import tessellate
        from repro.core.callbacks import CallbackPhase
        db = Engine(data_dir=data_dir).connect()
        install(db)
        gt = db.catalog.get_object_type("SDO_GEOMETRY")
        db.execute("CREATE TABLE geo (gid NUMBER, g SDO_GEOMETRY)")
        db.executemany("INSERT INTO geo VALUES (:1, :2)", [
            [i, make_rect(gt, 30 * i, 20 * i, 30 * i + 35, 20 * i + 70)]
            for i in range(30)])
        db.execute("CREATE INDEX geo_sidx ON geo(g)"
                   " INDEXTYPE IS SpatialIndexType")
        db.execute("INSERT INTO geo VALUES (100, :1)",
                   [make_rect(gt, 500, 500, 700, 650)])
        db.execute("UPDATE geo SET g = :1 WHERE gid = 3",
                   [make_rect(gt, 250, 250, 270, 300)])
        db.execute("DELETE FROM geo WHERE gid = 4")
        db.engine.durability.checkpoint()
        db.execute("INSERT INTO geo VALUES (101, :1)",
                   [make_rect(gt, 10, 900, 400, 1000)])
        db.execute("UPDATE geo SET g = :1 WHERE gid = 5",
                   [make_rect(gt, 600, 600, 640, 700)])
        db.execute("DELETE FROM geo WHERE gid = 100")
        db.execute("DELETE FROM geo WHERE gid = 6")
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        install(db2)
        rows = db2.execute("SELECT rowid, gid, g FROM geo").fetchall()
        assert len(rows) == 29
        assert sorted(
            (rid, grpcode, code, maxcode)
            for rid, grpcode, code, maxcode in db2.execute(
                "SELECT rid, grpcode, code, maxcode FROM geo_sidx_tiles")
        ) == sorted((rid, t.grpcode, t.code, t.maxcode)
                    for rid, __, g in rows for t in tessellate(g))
        index = db2.catalog.get_index("geo_sidx")
        env = db2.make_env(CallbackPhase.SCAN, index.domain)
        windows = [make_rect(gt, *box) for box in (
            (0, 0, 1023, 1023), (240, 240, 300, 310), (590, 590, 650, 620),
            (100, 880, 300, 990), (500, 500, 700, 650))]

        def functional(window):
            return sorted(gid for __, gid, g in rows if sdo_relate_functional(
                g, window, "mask=ANYINTERACT"))
        for window in windows:
            candidates = set(SpatialIndexMethods()._primary_filter(
                index.domain.index_info(), env, window))
            assert sorted(gid for rid, gid, g in rows
                          if rid in candidates and sdo_relate_functional(
                              g, window, "mask=ANYINTERACT")) \
                == functional(window)
        db2.execute("ALTER INDEX geo_sidx REBUILD")
        for window in windows:
            assert sorted(gid for (gid,) in db2.execute(
                "SELECT gid FROM geo WHERE Sdo_Relate(g, :1,"
                " 'mask=ANYINTERACT')", [window]).fetchall()) \
                == functional(window)
        db2.close()
        db2.engine.close()

    def test_page_store_compaction_keeps_pages_and_iot_dumps(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
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
        expected = (db.execute("SELECT id, v FROM t ORDER BY id").fetchall(),
                    db.execute("SELECT a, b FROM kv").fetchall())
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        assert (db2.execute("SELECT id, v FROM t ORDER BY id").fetchall(),
                db2.execute("SELECT a, b FROM kv").fetchall()) == expected
        assert (5, 28) in expected[1]
        db2.close()
        db2.engine.close()

    def test_bulk_load_replayed(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.executemany("INSERT INTO t VALUES (:1, :2)",
                       [[i, f"v{i}"] for i in range(50)])
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        rows = db2.execute("SELECT COUNT(*) FROM t").fetchall()
        assert rows == [(50,)]
        db2.close()
        db2.engine.close()

    def test_native_index_rebuilt_from_storage(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.execute("CREATE INDEX t_id ON t (id)")
        db.begin()
        for i in range(30):
            db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        db.commit()
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        assert db2.execute(
            "SELECT v FROM t WHERE id = 17").fetchall() == [("v17",)]
        index = db2.catalog.get_index("t_id")
        assert index.structure is not None
        db2.close()
        db2.engine.close()

    def test_unique_native_index_enforced_after_reopen(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        db.insert_rows("t", [[i, f"v{i}"] for i in range(20)])
        db.execute("INSERT INTO t VALUES (20, 'v20')")
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        index = db2.catalog.get_index("t_id")
        assert index.unique and len(index.structure) == 21
        assert db2.execute(
            "SELECT v FROM t WHERE id = 20").fetchall() == [("v20",)]
        with pytest.raises(ConstraintError):
            db2.execute("INSERT INTO t VALUES (7, 'dup')")
        db2.close()
        db2.engine.close()

    @pytest.mark.parametrize("kind", ["hash", "bitmap", "rtree"])
    def test_unknown_native_index_kind_fails_the_open(self, data_dir, kind):
        """A checkpoint that names a native index kind this engine does
        not build fails the reopen with an error naming the index and
        its kind, not later on the first DML."""
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("CREATE INDEX t_id ON t (id)")
        db.close()
        db.engine.close()
        path = os.path.join(data_dir, CATALOG_FILE)
        with open(path, "rb") as fh:
            snapshot = pickle.load(fh)
        for desc in snapshot["indexes"]:
            if desc["name"] == "t_id":
                desc["kind"] = kind
        with open(path, "wb") as fh:
            pickle.dump(snapshot, fh)
        with pytest.raises(CatalogError, match=rf"t_id .*'{kind}'"):
            Engine(data_dir=data_dir)


class TestRollbackThenCrash:
    """A rollback's compensation records replay at restart to the state
    the rollback left: redo repeats history, the CLRs included, so an
    undone change stays undone after a crash."""

    TABLES = {
        "heap": ["CREATE TABLE t (id NUMBER, v VARCHAR2(10))",
                 "CREATE UNIQUE INDEX t_id ON t(id)"],
        "iot": ["CREATE TABLE t (id NUMBER, v VARCHAR2(10), "
                "PRIMARY KEY (id)) ORGANIZATION INDEX"],
    }

    @staticmethod
    def _change(db):
        db.execute("INSERT INTO t VALUES (3, 'rolled')")
        db.execute("UPDATE t SET v = 'rolled' WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")

    @pytest.mark.parametrize("organization", ["heap", "iot"])
    @pytest.mark.parametrize("undo", ["rollback", "savepoint",
                                      "failed_statement"])
    def test_rolled_back_changes_stay_absent(self, data_dir,
                                             organization, undo):
        db = Engine(data_dir=data_dir).connect()
        for ddl in self.TABLES[organization]:
            db.execute(ddl)
        db.execute("INSERT INTO t VALUES (1, 'kept')")
        db.execute("INSERT INTO t VALUES (2, 'kept')")
        db.begin()
        if undo == "rollback":
            self._change(db)
            db.rollback()
            db.begin()
        elif undo == "savepoint":
            db.execute("SAVEPOINT sp")
            self._change(db)
            db.execute("ROLLBACK TO SAVEPOINT sp")
        else:
            # each statement changes a row, then hits a duplicate key
            with pytest.raises(ConstraintError):
                db.execute("INSERT INTO t VALUES (3, 'rolled'), "
                           "(1, 'rolled')")
            # id 1 becomes 2 (heap: updated in place, then the unique
            # index refuses key 2; IOT: deleted, then its re-insert
            # under key 2 is refused)
            with pytest.raises(ConstraintError):
                db.execute("UPDATE t SET id = id + 1, v = 'rolled' "
                           "WHERE id < 3")
        expected = [(1, "kept"), (2, "kept")]
        assert sorted(db.execute("SELECT id, v FROM t").fetchall()) \
            == expected
        db.execute("INSERT INTO t VALUES (9, 'after')")
        db.commit()
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        assert db2.engine.recovery_stats.redo_records > 0
        assert sorted(db2.execute("SELECT id, v FROM t").fetchall()) \
            == expected + [(9, "after")]
        assert db2.execute("SELECT v FROM t WHERE id = 1").fetchall() \
            == [("kept",)]
        db2.close()
        db2.engine.close()


class TestLoadIntoNonEmptyTable:
    """A load into a table that holds rows is one log record: redo lands
    it page by page, and its undo — at rollback or at restart — cuts
    the heap back to the high-water mark the record carries."""

    INSERT = "INSERT INTO t VALUES (:1, :2)"

    @staticmethod
    def rows(start, stop):
        return [[i, f"row{i:05d}"] for i in range(start, stop)]

    def _table(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(20))")
        db.execute("CREATE UNIQUE INDEX t_id ON t(id)")
        db.executemany(self.INSERT, self.rows(0, 300))
        return db, db.catalog.get_table("t").storage

    def test_a_committed_load_reads_back_once_with_each_page_stamped(
            self, data_dir, monkeypatch):
        from repro.storage.buffer import BufferCache
        from repro.storage.heap import HeapTable
        db, storage = self._table(data_dir)
        first = list(range(storage.page_count))
        mark = storage.high_water_mark()
        stamped = []
        stamp = HeapTable.stamp_lsn
        monkeypatch.setattr(HeapTable, "stamp_lsn", lambda heap, rowid, lsn: (
            stamped.append(rowid[1]), stamp(heap, rowid, lsn)))
        db.begin()
        db.executemany(self.INSERT, self.rows(300, 1500))
        lsn = db.txns.current.last_lsn
        db.commit()
        monkeypatch.undo()
        pages = list(range(mark[1], storage.page_count))
        assert len(pages) > 3
        assert stamped == pages  # once a page, not once a row
        crash(db)

        fetched = []
        ensure = BufferCache.ensure_page
        monkeypatch.setattr(BufferCache, "ensure_page", lambda cache, seg, no: (
            fetched.append(no) if seg == mark[0] else None,
            ensure(cache, seg, no))[1])
        db2 = Engine(data_dir=data_dir).connect()
        monkeypatch.undo()
        assert db2.engine.recovery_stats.redo_records > 0
        assert sorted(fetched) == sorted(first + pages)
        assert sorted(db2.execute("SELECT id, v FROM t").fetchall()) == [
            tuple(row) for row in self.rows(0, 1500)]
        assert db2.execute("SELECT v FROM t WHERE id = 1499").fetchall() \
            == [("row01499",)]
        buffer = db2.engine.buffer
        assert [buffer.peek_page(mark[0], no).page_lsn for no in pages] \
            == [lsn] * len(pages)
        db2.close()
        db2.engine.close()

    @pytest.mark.parametrize("undo, quiet", [
        ("rollback", True), ("rollback", False), ("savepoint", True),
        ("savepoint", False), ("crash", False)],
        ids=["rollback, log truncated", "rollback, clr replayed",
             "savepoint, log truncated", "savepoint, clr replayed",
             "loser undone at restart"])
    def test_an_undone_load_stays_undone(self, data_dir, undo, quiet):
        db, storage = self._table(data_dir)
        shape = (storage.page_count, storage.row_count)
        db.begin()
        db.execute("SAVEPOINT sp")
        db.executemany(self.INSERT, self.rows(300, 1500))
        # the loaded pages reach the page store before the undo
        db.engine.durability.checkpoint()
        expected = [tuple(row) for row in self.rows(0, 300)]
        if undo == "crash":
            db.engine.durability.wal.flush_all()
        else:
            if undo == "rollback":
                db.rollback()
                db.begin()
            else:
                db.execute("ROLLBACK TO SAVEPOINT sp")
            assert (storage.page_count, storage.row_count) == shape
            db.execute("INSERT INTO t VALUES (9999, 'after')")
            db.commit()
            expected.append((9999, "after"))
            if quiet:
                db.engine.durability.checkpoint()
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        assert sorted(db2.execute("SELECT id, v FROM t").fetchall()) \
            == expected
        assert db2.execute("SELECT COUNT(*) FROM t WHERE id >= 300"
                           ).fetchall() == [(len(expected) - 300,)]
        assert db2.catalog.get_table("t").storage.page_count == shape[0]
        db2.close()
        db2.engine.close()

    def test_replay_cuts_a_mark_page_only_below_the_record(self, data_dir):
        """Redo of a cut leaves a mark page stamped at or past the
        record: that image already holds the cut and what came after."""
        from repro.txn.recovery import _replay
        db, storage = self._table(data_dir)
        mark = (storage.segment_id, 0, 100)
        page = db.engine.buffer.peek_page(storage.segment_id, 0)
        page.page_lsn = 50
        record = {"op": "truncate", "rid": mark}
        _replay(db.engine, storage, record, 50)
        assert len(page.slots) > 100
        _replay(db.engine, storage, record, 51)
        assert len(page.slots) == 100 and page.page_lsn == 51
        _replay(db.engine, storage, record, 51)  # idempotent
        assert len(page.slots) == 100
        db.close()
        db.engine.close()


    def test_an_iot_batch_clr_deletes_its_rows_alone(self, data_dir):
        """An IOT insert batch is undone by a ``bulk_delete`` of exactly
        the rows it carries.  A log written before IOT inserts were
        batches holds a truncate with no mark for the undo of a load
        into an empty IOT, and its replay still empties the table."""
        from repro.storage.durability import clr_record
        from repro.txn.recovery import _replay
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE kv (a NUMBER, b NUMBER, "
                   "PRIMARY KEY (a)) ORGANIZATION INDEX")
        db.executemany("INSERT INTO kv VALUES (:1, :2)",
                       [[i, i] for i in range(5)])
        storage = db.catalog.get_table("kv").storage
        clr = clr_record(1, "kv", "bulk_insert", None, None,
                         [(1, 1), (3, 3)], None, None)
        assert (clr["op"], clr["old"]) == ("bulk_delete", [(1, 1), (3, 3)])
        _replay(db.engine, storage, clr)
        assert db.execute("SELECT a FROM kv").fetchall() == [
            (0,), (2,), (4,)]
        _replay(db.engine, storage, {"op": "truncate", "rid": None})
        assert db.execute("SELECT a FROM kv").fetchall() == []
        db.close()
        db.engine.close()


class TestDDLPermanence:
    def test_truncate_not_resurrected(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("CREATE TABLE kv (a NUMBER, PRIMARY KEY (a)) "
                   "ORGANIZATION INDEX")
        for i in range(10):
            db.execute(f"INSERT INTO t VALUES ({i})")
            db.execute(f"INSERT INTO kv VALUES ({i})")
        db.execute("TRUNCATE TABLE t")
        db.execute("TRUNCATE TABLE kv")
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        assert db2.execute("SELECT COUNT(*) FROM t").fetchall() == [(0,)]
        assert db2.execute("SELECT COUNT(*) FROM kv").fetchall() == [(0,)]
        # and the truncated tables accept new durable rows
        db2.execute("INSERT INTO t VALUES (100)")
        db2.execute("INSERT INTO kv VALUES (100)")
        crash(db2)
        db3 = Engine(data_dir=data_dir).connect()
        assert db3.execute("SELECT id FROM t").fetchall() == [(100,)]
        assert db3.execute("SELECT a FROM kv").fetchall() == [(100,)]
        db3.close()
        db3.engine.close()

    def test_drop_table_stays_dropped(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE gone_heap (id NUMBER)")
        db.execute("CREATE TABLE gone_iot (a NUMBER, PRIMARY KEY (a)) "
                   "ORGANIZATION INDEX")
        db.execute("INSERT INTO gone_heap VALUES (1)")
        db.execute("INSERT INTO gone_iot VALUES (1)")
        db.execute("DROP TABLE gone_heap")
        db.execute("DROP TABLE gone_iot")
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        names = {r[0] for r in db2.execute("SELECT table_name "
                                           "FROM user_tables").fetchall()}
        assert "gone_heap" not in names and "gone_iot" not in names
        db2.close()
        db2.engine.close()

    def test_grants_survive_restart(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("GRANT SELECT ON t TO alice")
        crash(db)

        db2 = Engine(data_dir=data_dir).connect()
        alice = db2.engine.connect(user="alice")
        assert alice.execute("SELECT COUNT(*) FROM t").fetchall() == [(0,)]
        db2.close()
        db2.engine.close()


class TestWalPanic:
    def test_failed_log_refuses_commits(self, data_dir):
        plan = StorageFaultPlan().io_error("wal.append", nth=3)
        db = Engine(data_dir=data_dir, storage_fault_plan=plan).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.begin()
        with pytest.raises(WALError):
            while True:  # the nth append dies mid-transaction
                db.execute("INSERT INTO t VALUES (1)")
        db.rollback()  # in-memory undo still runs (CLR logging is moot)
        # the insert whose record the log refused is undone too
        assert db.execute("SELECT COUNT(*) FROM t").fetchall() == [(0,)]
        db.begin()
        with pytest.raises(WALError):
            db.execute("INSERT INTO t VALUES (2)")
        # restart clears the panic; the dead log's losers are gone
        del db
        db2 = Engine(data_dir=data_dir).connect()
        assert db2.execute("SELECT COUNT(*) FROM t").fetchall() == [(0,)]
        db2.execute("INSERT INTO t VALUES (3)")
        db2.close()
        db2.engine.close()

    def test_torn_commit_record_not_recovered(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.close()
        db.engine.close()

        plan = StorageFaultPlan()
        db2 = Engine(data_dir=data_dir, storage_fault_plan=plan).connect()
        db2.execute("INSERT INTO t VALUES (1)")
        # tear the second append from here: the U record of the next
        # transaction lands intact, then its commit record tears
        plan.torn_write("wal.append", nth=2, fraction=0.3)
        db2.begin()
        db2.execute("INSERT INTO t VALUES (2)")
        with pytest.raises(WALError):
            db2.commit()
        crash(db2)

        db3 = Engine(data_dir=data_dir).connect()
        # txn 1 committed intact; txn 2's commit record is torn, so the
        # checksum scan stops before it and the txn is undone as a loser
        assert db3.execute("SELECT id FROM t").fetchall() == [(1,)]
        db3.close()
        db3.engine.close()


def undecodable_body():
    """A pickle naming a module that does not exist: whole, checksummed,
    and impossible to load."""
    return pickle.dumps({"t": "U", "x": collections.OrderedDict()}
                        ).replace(b"collections", b"collectionz")


class TestUndecodableRecord:
    """A record that passes its checksum was written whole: failing to
    decode it is an error, never a torn tail to cut off."""

    def test_log_record_fails_recovery_and_keeps_the_log(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("INSERT INTO t VALUES (1)")
        device = db.engine.durability.wal.device
        body = undecodable_body()
        spliced_at = device.append(
            struct.pack("<II", len(body), zlib.crc32(body)) + body)
        db.execute("INSERT INTO t VALUES (2)")
        crash(db)
        path = os.path.join(data_dir, WAL_FILE)
        size = os.path.getsize(path)

        with pytest.raises(WALError, match=rf"{WAL_FILE}: the record at "
                           rf"offset {spliced_at} passes its checksum"):
            Engine(data_dir=data_dir)
        assert os.path.getsize(path) == size

    def test_page_store_record_fails_open_and_keeps_the_file(
            self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.close()
        db.engine.close()
        path = os.path.join(data_dir, PAGES_FILE)
        spliced_at = os.path.getsize(path)
        body = undecodable_body()
        with open(path, "ab") as handle:
            handle.write(struct.pack("<BII", 1, len(body), zlib.crc32(body))
                         + body)
        size = os.path.getsize(path)

        with pytest.raises(WALError, match=rf"{PAGES_FILE}: the record at "
                           rf"offset {spliced_at} passes its checksum"):
            Engine(data_dir=data_dir)
        assert os.path.getsize(path) == size


class TestEngineOptions:
    def test_wal_stats_view_reports_activity(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.execute("INSERT INTO t VALUES (1)")
        rows = db.execute("SELECT enabled, commit_records, failed "
                          "FROM user_wal_stats").fetchall()
        assert rows[0][0] is True
        assert rows[0][1] >= 1
        assert rows[0][2] is False
        db.close()
        db.engine.close()

    def test_wal_stats_view_reports_last_checkpoint_lsn(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        view = "SELECT last_checkpoint_lsn FROM user_wal_stats"
        (before,) = db.execute(view).fetchone()
        db.engine.durability.checkpoint(reason="test")
        (after,) = db.execute(view).fetchone()
        assert after > before
        assert after == db.engine.durability.wal.stats.last_checkpoint_lsn
        db.close()
        db.engine.close()

    def test_recovery_stats_view_reports_last_checkpoint_lsn(self, data_dir):
        db = Engine(data_dir=data_dir).connect()
        db.execute("CREATE TABLE t (id NUMBER)")
        db.engine.durability.checkpoint(reason="test")
        checkpoint = db.engine.durability.wal.stats.last_checkpoint_lsn
        db.execute("INSERT INTO t VALUES (1)")
        crash(db)
        db2 = Engine(data_dir=data_dir).connect()
        rows = db2.execute("SELECT ran, last_checkpoint_lsn"
                           " FROM user_recovery_stats").fetchall()
        assert rows == [(True, checkpoint)]
        assert checkpoint > 0
        db2.close()
        db2.engine.close()


class TestCheckpointTruncation:
    """A checkpoint truncates the log only at a quiet point: no
    transaction holds undo in the log and nothing was logged since it
    drained the dirty pages, decided under the latch every record is
    appended under."""

    def test_a_commit_after_the_drain_survives_the_truncation(
            self, data_dir):
        engine = Engine(data_dir=data_dir)
        db, other = engine.connect(), engine.connect()
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("CREATE TABLE u (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        engine.durability.checkpoint()
        db.execute("INSERT INTO u VALUES (1)")  # the only dirty page
        committed = []

        def commit_mid_checkpoint(event):
            # the checkpoint has drained and is writing u's page; t's
            # page is clean, so this commit's change is not in the drain
            if event == "page.flush" and not committed:
                other.execute("INSERT INTO t VALUES (42)")
                committed.append(True)
        engine.durability.pages.event_hook = commit_mid_checkpoint
        engine.durability.checkpoint()
        assert committed
        assert sorted(db.execute("SELECT id FROM t").fetchall()) \
            == [(1,), (42,)]
        crash(db)

        back = Engine(data_dir=data_dir).connect()
        assert sorted(back.execute("SELECT id FROM t").fetchall()) \
            == [(1,), (42,)]
        assert back.execute("SELECT id FROM u").fetchall() == [(1,)]
        back.close()
        back.engine.close()
