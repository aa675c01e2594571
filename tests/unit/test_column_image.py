"""A heap page's column image goes stale at the page's next slot write.

A full columnar scan reads each page's columns from its image
(:meth:`repro.storage.page.Page.columns`), kept until the page's next
slot write.  Each test scans (building every image), writes through one
of the heap's slot writers, and scans again: the page's slots, a
columnar scan in current mode and under a fresh snapshot, the vectorized
statement and the same statement on the interpreter must all answer
with the rows the write left — with the version store as the write left
it, and again once a prune pass has settled it (when a snapshot scan
takes the image too).
"""

import pytest

from repro import Engine
from repro.storage.heap import HeapTable
from repro.storage.page import Page
from repro.testing import interpreter_forced

pytestmark = [pytest.mark.vectorized, pytest.mark.mvcc]

SCAN = "SELECT id, grp, val FROM t WHERE id >= 0"


def _row(i):
    return (i, f"g{i % 4}", i * 0.5)


def _columnar(batches):
    return sorted(row for __, columns in batches for row in zip(*columns))


def _slots(storage):
    """The live rows in the table's page slots, image or no image."""
    pages = (storage.buffer.get_page(storage.segment_id, page_no)
             for page_no in range(storage.page_count))
    return sorted(tuple(row) for page in pages for row in page.slots
                  if row is not None)


def _check(db, expected):
    storage = db.catalog.get_table("t").storage
    expected = sorted(expected)
    for settle in (False, True):
        if settle:
            db.engine.prune_versions()
        snapshot = db.engine.mvcc.take_snapshot(None)
        answers = {
            "slots": _slots(storage),
            "current": _columnar(storage.scan_batches()),
            "snapshot": _columnar(storage.scan_batches(snapshot)),
            "vectorized": sorted(db.execute(SCAN).fetchall()),
        }
        with interpreter_forced(db):
            answers["interpreted"] = sorted(db.execute(SCAN).fetchall())
        assert answers == dict.fromkeys(answers, expected), settle


def _create(db, n=300):
    db.execute("CREATE TABLE t (id INTEGER, grp VARCHAR2(8), val NUMBER)")
    for i in range(n):
        db.execute("INSERT INTO t VALUES (:1, :2, :3)", list(_row(i)))
    assert db.catalog.get_table("t").storage.page_count > 2
    rows = {i: _row(i) for i in range(n)}
    _check(db, rows.values())
    return rows


def test_insert_by_statement_and_by_bare_append(db):
    """A SQL INSERT and a bare storage append both land on the last
    page, whose image the scan just built."""
    rows = _create(db)
    db.execute("INSERT INTO t VALUES (:1, :2, :3)", list(_row(500)))
    rows[500] = _row(500)
    _check(db, rows.values())
    db.catalog.get_table("t").storage.insert_bulk([list(_row(501))])
    rows[501] = _row(501)
    _check(db, rows.values())


def test_update_and_delete(db):
    rows = _create(db)
    db.execute("UPDATE t SET val = -1 WHERE id < 10")
    db.execute("DELETE FROM t WHERE id >= 290")
    for i in range(10):
        rows[i] = (i, rows[i][1], -1)
    for i in range(290, 300):
        del rows[i]
    _check(db, rows.values())


def test_rollback_undo(db):
    """Images built while the transaction is in flight hold its writes;
    the undo — ``undelete`` among them — must take them out again."""
    rows = _create(db)
    storage = db.catalog.get_table("t").storage
    db.begin()
    db.execute("DELETE FROM t WHERE id < 20")
    db.execute("UPDATE t SET grp = 'moved' WHERE id >= 280")
    db.execute("INSERT INTO t VALUES (900, 'new', 0)")
    in_flight = _columnar(storage.scan_batches())
    assert len(in_flight) == len(rows) - 20 + 1
    db.rollback()
    _check(db, rows.values())


@pytest.mark.parametrize("load", ["insert_rows", "direct_load"])
def test_bulk_and_direct_path_loads(db, monkeypatch, load):
    """With every row deleted a load is a bulk append, and it lands on
    the last page, whose (empty) image the scan just built."""
    _create(db)
    db.execute("DELETE FROM t")
    _check(db, [])
    bulk = []
    insert_bulk = HeapTable.insert_bulk

    def spy(storage, rows, **kw):
        bulk.append(len(rows))
        return insert_bulk(storage, rows, **kw)
    monkeypatch.setattr(HeapTable, "insert_bulk", spy)
    loaded = [_row(i) for i in range(1000, 1050)]
    getattr(db, load)("t", [list(row) for row in loaded])
    assert bulk == [50]
    _check(db, loaded)


def test_truncate(db):
    """TRUNCATE drops the pages; the next inserts build new ones under
    the same page numbers."""
    _create(db)
    db.execute("TRUNCATE TABLE t")
    _check(db, [])
    rows = {i: _row(i) for i in range(400, 430)}
    for row in rows.values():
        db.execute("INSERT INTO t VALUES (:1, :2, :3)", list(row))
    _check(db, rows.values())


@pytest.mark.crash
def test_restart_redo(tmp_path):
    """Restart rebuilds the pages from their checkpointed state and
    redoes the later writes slot by slot; neither carries an image."""
    data_dir = str(tmp_path / "db")
    db = Engine(data_dir=data_dir).connect()
    rows = _create(db)
    db.engine.durability.checkpoint()
    db.execute("UPDATE t SET val = 7 WHERE id < 30")
    db.execute("DELETE FROM t WHERE id >= 270")
    for i in range(30):
        rows[i] = (i, rows[i][1], 7)
    for i in range(270, 300):
        del rows[i]
    _check(db, rows.values())
    db.engine.durability.wal.device.simulate_crash()

    restarted = Engine(data_dir=data_dir).connect()
    assert restarted.engine.recovery_stats.redo_records > 0
    _check(restarted, rows.values())
    restarted.execute("UPDATE t SET grp = 'late' WHERE id < 5")
    for i in range(5):
        rows[i] = (i, "late", 7)
    _check(restarted, rows.values())
    restarted.close()
    restarted.engine.close()


def test_slot_writes_and_restored_pages():
    """The page-level contract: the image is reused until a slot write
    (``set_slot`` included), and a page restored from its state — which
    never carries the image — starts without one."""
    page = Page(0)
    for i in range(3):
        page.insert([i, f"v{i}"], 16)
    live, columns = page.columns()
    assert list(live) == [0, 1, 2]
    assert columns == ((0, 1, 2), ("v0", "v1", "v2"))
    assert page.columns()[1] is columns
    page.set_slot(1, None)
    assert page.columns() == ([0, 2], ((0, 2), ("v0", "v2")))
    page.set_slot(4, [4, "v4"])
    assert page.columns() == ([0, 2, 4], ((0, 2, 4), ("v0", "v2", "v4")))
    state = page.state()
    assert set(state) == {"page_no", "slots", "used", "lsn"}
    restored = Page.from_state(state)
    assert restored.columns() == page.columns()
    assert restored.columns()[1] is not page.columns()[1]
