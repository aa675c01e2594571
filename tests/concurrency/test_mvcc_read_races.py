"""Snapshot reads racing an unmapping, made deterministic.

A snapshot read is "read the slot, then ask the version store".  A
store that unmaps a rowid in between — ``pop`` of a first insert that
rolls back, or a prune pass that forgets a settled chain — answers "the
slot is the truth" about a slot value read while it was not.  Each test
parks the reader between its slot read and its first chain lookup (a
hook on ``VersionStore.resolve`` / ``resolve_batch``, no sleeps), runs
the rollback (and the prune pass) on the main thread, and releases the
reader: it must not return the rolled-back bytes.  The store's epoch
(bumped before every unmapping, compared by ``VersionStore.read`` after
the lookup) is what makes the reader look again.

The column-image tests park a thread through the page's slot list
instead: a writer just before its slot write lands, or a reader just
after it has read the slots it builds an image from.
"""

import threading

import pytest

from repro.testing import scanned
from repro.txn.mvcc import VersionStore

pytestmark = [pytest.mark.concurrency, pytest.mark.mvcc]

SENTINEL = "uncommitted"


class _Park:
    """Parks the first chain lookup made on any thread but the one that
    built it, until :meth:`release`."""

    def __init__(self, monkeypatch):
        self.parked = threading.Event()
        self._released = threading.Event()
        self._armed = True
        main = threading.current_thread()
        for name in ("resolve", "resolve_batch"):
            real = getattr(VersionStore, name)

            def hooked(store, *args, _real=real):
                if self._armed and threading.current_thread() is not main:
                    self._armed = False
                    self.parked.set()
                    assert self._released.wait(10), "never released"
                return _real(store, *args)
            monkeypatch.setattr(VersionStore, name, hooked)

    def release(self):
        self._released.set()


def _read_while(park, read, interfere):
    """Run ``read`` on a thread; once it has parked run ``interfere``
    here, release it, and return what it read."""
    out = {}

    def body():
        try:
            out["value"] = read()
        except BaseException as exc:  # surfaced below
            out["error"] = exc

    reader = threading.Thread(target=body)
    reader.start()
    try:
        assert park.parked.wait(10), "the reader never consulted the store"
        interfere()
    finally:
        park.release()
        reader.join(10)
    assert not reader.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.fixture
def heap(engine):
    session = engine.connect()
    session.execute("CREATE TABLE t (k INTEGER, v VARCHAR2(20))")
    session.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    engine.prune_versions()
    return engine.catalog.get_table("t").storage


def _scan(storage, snapshot):
    return [row for __, row in scanned(storage.scan_batches(snapshot))]


class TestRolledBackInsert:
    """``pop`` unmaps a first insert that rolls back (the window exists
    at the parent commit, whatever prune does)."""

    def test_heap_fetch_and_scan(self, engine, heap, monkeypatch):
        for read in ("fetch", "scan"):
            writer = engine.connect()
            writer.begin()
            writer.execute("INSERT INTO t VALUES (3, :1)", [SENTINEL])
            (rowid,) = [rid for rid, row in scanned(heap.scan_batches())
                        if row[1] == SENTINEL]
            snapshot = engine.mvcc.take_snapshot(None)
            park = _Park(monkeypatch)
            if read == "fetch":
                found = _read_while(
                    park, lambda: heap.fetch_batch([rowid], snapshot),
                    writer.rollback)
                assert found == ([], [])
            else:
                rows = _read_while(
                    park, lambda: _scan(heap, snapshot), writer.rollback)
                assert sorted(rows) == [[1, "one"], [2, "two"]]

    def test_iot_prefix_scan(self, engine, monkeypatch):
        session = engine.connect()
        session.execute("CREATE TABLE p (tok VARCHAR2(20), doc INTEGER,"
                        " PRIMARY KEY (tok, doc)) ORGANIZATION INDEX")
        session.execute("INSERT INTO p VALUES ('a', 1), ('b', 1)")
        engine.prune_versions()
        iot = engine.catalog.get_table("p").storage
        writer = engine.connect()
        writer.begin()
        writer.execute("INSERT INTO p VALUES ('a', 2), (:1, 1)", [SENTINEL])
        snapshot = engine.mvcc.take_snapshot(None)
        park = _Park(monkeypatch)
        rows = _read_while(
            park,
            lambda: [row for __, row in scanned(
                iot.prefix_batches(["a"], snapshot=snapshot))],
            writer.rollback)
        assert rows == [["a", 1]]
        assert iot.fetch_batch([iot.locate(("a", 1))[0]], snapshot)[1] \
            == [["a", 1]]

    def test_iot_fetch_batch(self, engine, monkeypatch):
        """The rows of a rolled-back insert, read by rowid: the reader
        reads the tree, parks, and must not return the bytes the
        rollback took away."""
        session = engine.connect()
        session.execute("CREATE TABLE p (tok VARCHAR2(20), doc INTEGER,"
                        " PRIMARY KEY (tok, doc)) ORGANIZATION INDEX")
        session.execute("INSERT INTO p VALUES ('a', 1), ('b', 1)")
        engine.prune_versions()
        iot = engine.catalog.get_table("p").storage
        writer = engine.connect()
        writer.begin()
        writer.execute("INSERT INTO p VALUES ('a', 2), (:1, 1)", [SENTINEL])
        rowids = [iot.locate(key)[0]
                  for key in (("a", 1), ("a", 2), (SENTINEL, 1))]
        snapshot = engine.mvcc.take_snapshot(None)
        park = _Park(monkeypatch)
        found, rows = _read_while(
            park, lambda: iot.fetch_batch(rowids, snapshot), writer.rollback)
        assert found == rowids[:1] and rows == [["a", 1]]
        assert engine.mvcc.stats.read_retries == 1


class TestForgottenBase:
    """PR 15's review scenario: an update in flight, the reader reads
    the slot, the update rolls back (its base stays mapped), a prune
    pass forgets the base, the reader resumes."""

    @pytest.mark.parametrize("read", ["scan", "fetch_batch"])
    def test_heap(self, engine, heap, monkeypatch, read):
        writer = engine.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = :1 WHERE k = 1", [SENTINEL])
        (rowid,) = [rid for rid, row in scanned(heap.scan_batches())
                    if row[1] == SENTINEL]
        snapshot = engine.mvcc.take_snapshot(None)
        park = _Park(monkeypatch)

        def rollback_and_prune():
            writer.rollback()
            engine.prune_versions()
            assert heap.versions.tracked_rowids() == []

        reads = {
            "scan": lambda: _scan(heap, snapshot),
            "fetch_batch": lambda: heap.fetch_batch([rowid], snapshot)[1],
        }
        rows = _read_while(park, reads[read], rollback_and_prune)
        assert (1, "one") in map(tuple, rows)
        assert not any(SENTINEL in row for row in rows)
        assert engine.mvcc.stats.read_retries == 1


class _ParkedSlots(list):
    """A page's slot list that parks the first thread but the one that
    built it, once: at ``"write"`` just before a slot write lands, at
    ``"read"`` just after the thread has read every slot."""

    def __init__(self, slots, point):
        super().__init__(slots)
        self.point = point
        self.parked = threading.Event()
        self._released = threading.Event()
        self._armed = True
        self._main = threading.current_thread()

    def _park(self, point):
        if self._armed and point == self.point \
                and threading.current_thread() is not self._main:
            self._armed = False
            self.parked.set()
            assert self._released.wait(10), "never released"

    def __setitem__(self, index, value):
        self._park("write")
        super().__setitem__(index, value)

    def __iter__(self):
        yield from super().__iter__()
        self._park("read")

    def release(self):
        self._released.set()


class TestColumnImage:
    """A page's column image against a writer that updates a row on it
    and rolls back.  An image is kept only when the page's write count
    did not move while it was built, and a write bumps that count after
    its slot lands, so no image is older than the count it carries.
    The first test fails with the bump moved before the slot write (a
    reader then tags the old slots with the new count); the second with
    an image tagged with the count read after the build, unchecked
    against the count it started from."""

    UPDATE = "UPDATE t SET v = :1 WHERE k = 1"

    @pytest.fixture
    def page(self, engine, heap):
        return engine.buffer.get_page(heap.segment_id, 0)

    @staticmethod
    def _values(storage, snapshot=None):
        return sorted(value for __, columns
                      in storage.scan_batches(snapshot)
                      for value in columns[1])

    def _snapshot_values(self, engine, storage):
        return self._values(storage, engine.mvcc.take_snapshot(None))

    def test_readers_rebuild_while_a_write_lands(self, engine, heap, page):
        writer = engine.connect()
        seen = []

        def scans():
            seen.append((self._values(heap),
                         self._snapshot_values(engine, heap)))

        # the update parks just before its slot write
        writer.begin()
        page.slots = park = _ParkedSlots(page.slots, "write")
        _read_while(park, lambda: writer.execute(self.UPDATE, [SENTINEL]),
                    scans)
        assert self._values(heap) == ["two", SENTINEL]
        assert self._snapshot_values(engine, heap) == ["one", "two"]
        # the undo parks just before it restores the slot
        page.slots = park = _ParkedSlots(page.slots, "write")
        _read_while(park, writer.rollback, scans)
        engine.prune_versions()
        assert heap.versions.tracked_rowids() == []
        assert self._values(heap) == ["one", "two"]
        assert self._snapshot_values(engine, heap) == ["one", "two"]
        assert seen == [(["one", "two"], ["one", "two"]),
                        (["two", SENTINEL], ["one", "two"])]

    def test_a_write_lands_while_a_reader_rebuilds(self, engine, heap, page):
        writer = engine.connect()

        def update_in_flight():
            writer.begin()
            writer.execute(self.UPDATE, [SENTINEL])

        def rollback_and_prune():
            writer.rollback()
            engine.prune_versions()
            assert heap.versions.tracked_rowids() == []

        # a snapshot reader builds the image from 'one' as the update lands
        page.slots = park = _ParkedSlots(page.slots, "read")
        assert _read_while(park, lambda: self._snapshot_values(engine, heap),
                           update_in_flight) == ["one", "two"]
        assert self._values(heap) == ["two", SENTINEL]
        # a second write leaves page 0 without an image: the reader builds
        # one from the uncommitted value as the rollback and a prune land
        writer.execute(self.UPDATE, [SENTINEL])
        page.slots = park = _ParkedSlots(page.slots, "read")
        assert _read_while(park, lambda: self._snapshot_values(engine, heap),
                           rollback_and_prune) == ["one", "two"]
        assert engine.mvcc.stats.read_retries == 1
        assert self._values(heap) == ["one", "two"]
        assert self._snapshot_values(engine, heap) == ["one", "two"]


class TestLoadRolledBack:
    """A load into a table that holds rows appends above its high-water
    mark, and its undo cuts the mark's page back and drops every later
    page — while snapshot readers hold no table lock.  A reader that
    read the loaded slots, or holds a page the undo drops, must neither
    fail nor return a loaded row."""

    @staticmethod
    def _load(engine, n):
        writer = engine.connect()
        writer.begin()
        writer.executemany("INSERT INTO t VALUES (:1, :2)",
                           [[k, SENTINEL] for k in range(3, 3 + n)])
        return writer

    @pytest.mark.parametrize("read", ["fetch_one", "scan", "fetch_batch"])
    def test_the_undo_drops_pages_under_a_reader(self, engine, heap,
                                                 monkeypatch, read):
        segment = heap.segment_id
        writer = self._load(engine, 2000)
        last = heap.page_count - 1
        assert last >= 2
        snapshot = engine.mvcc.take_snapshot(None)
        park = _Park(monkeypatch)
        reads = {
            "fetch_one": lambda: heap.fetch_batch([(segment, last, 0)],
                                                  snapshot)[1],
            "scan": lambda: _scan(heap, snapshot),
            "fetch_batch": lambda: heap.fetch_batch(
                [(segment, 0, 0), (segment, 0, 2), (segment, last, 0)],
                snapshot)[1],
        }
        rows = _read_while(park, reads[read], writer.rollback)
        expected = {"fetch_one": [], "scan": [[1, "one"], [2, "two"]],
                    "fetch_batch": [(1, "one")]}[read]
        assert [row and tuple(row) for row in rows] \
            == [row and tuple(row) for row in expected]
        assert engine.mvcc.stats.read_retries == 1
        assert heap.page_count == 1

    def test_the_mark_page_is_cut_under_a_reader(self, engine, heap):
        """The undo cuts the heap before it drops the fence: a reader
        whose column image holds the loaded slots and who asks the store
        between the two must judge the image by its own slots."""
        page = engine.buffer.get_page(heap.segment_id, 0)
        mark = heap.high_water_mark()
        page.slots = park = _ParkedSlots(page.slots, "read")
        writer = self._load(engine, 20)
        assert heap.page_count == 1
        snapshot = engine.mvcc.take_snapshot(None)
        rows = _read_while(park, lambda: _scan(heap, snapshot),
                           lambda: heap.cut_to(mark))
        assert sorted(rows) == [[1, "one"], [2, "two"]]
        writer.rollback()
        assert sorted(_scan(heap, snapshot)) == [[1, "one"], [2, "two"]]
        assert heap.high_water_mark() == mark


class TestIOTLoad:
    """A load into an IOT that holds rows enters its new keys, which
    interleave with the stored ones, in its transaction's fence; its
    undo takes them out of the tree and then out of the fence.  A
    snapshot reader parked between its tree read and its store lookup,
    while a load lands or while one is undone, returns only the rows
    from before the load."""

    @pytest.fixture
    def iot(self, engine):
        session = engine.connect()
        session.execute("CREATE TABLE p (tok VARCHAR2(20), doc INTEGER,"
                        " PRIMARY KEY (tok, doc)) ORGANIZATION INDEX")
        session.executemany("INSERT INTO p VALUES (:1, :2)",
                            [["a", 1], ["a", 3], ["a", 5], ["b", 1]])
        engine.prune_versions()
        return engine.catalog.get_table("p").storage

    @staticmethod
    def _reads(iot, snapshot):
        rowids = [iot.locate(key)[0] for key in (("a", 1), ("a", 2))]
        return {
            "prefix": lambda: [row for __, row in scanned(
                iot.prefix_batches(["a"], snapshot=snapshot))],
            "fetch_batch": lambda: iot.fetch_batch(rowids, snapshot)[1],
        }

    @pytest.mark.parametrize("read", ["prefix", "fetch_batch"])
    def test_a_load_lands_under_a_parked_reader(self, engine, iot,
                                                monkeypatch, read):
        writer = engine.connect()
        writer.begin()
        writer.executemany("INSERT INTO p VALUES (:1, :2)",
                           [["a", 2], [SENTINEL, 1]])
        snapshot = engine.mvcc.take_snapshot(None)
        reads = self._reads(iot, snapshot)
        park = _Park(monkeypatch)

        def load_and_commit():
            writer.executemany("INSERT INTO p VALUES (:1, :2)",
                               [["a", 4], ["a", 6], [SENTINEL, 2]])
            writer.commit()

        rows = _read_while(park, reads[read], load_and_commit)
        expected = {"prefix": [["a", 1], ["a", 3], ["a", 5]],
                    "fetch_batch": [["a", 1]]}[read]
        assert [list(row) for row in rows] == expected
        assert [list(row) for row in reads[read]()] == expected
        assert iot.row_count == 9

    @pytest.mark.parametrize("undo", ["rollback", "savepoint"])
    @pytest.mark.parametrize("read", ["prefix", "fetch_batch"])
    def test_a_load_is_undone_under_a_parked_reader(self, engine, iot,
                                                    monkeypatch, read, undo):
        """``savepoint`` undoes the load alone: the fence an earlier
        statement made stays, so only the keys' unmapping moves the
        epoch."""
        writer = engine.connect()
        writer.begin()
        writer.execute("INSERT INTO p VALUES ('c', 1)")
        writer.execute("SAVEPOINT sp")
        writer.executemany("INSERT INTO p VALUES (:1, :2)",
                           [["a", 2], ["a", 4], [SENTINEL, 1]])
        snapshot = engine.mvcc.take_snapshot(None)
        reads = self._reads(iot, snapshot)
        park = _Park(monkeypatch)
        rows = _read_while(park, reads[read], writer.rollback
                           if undo == "rollback" else lambda: writer.execute(
                               "ROLLBACK TO SAVEPOINT sp"))
        expected = {"prefix": [["a", 1], ["a", 3], ["a", 5]],
                    "fetch_batch": [["a", 1]]}[read]
        assert [list(row) for row in rows] == expected
        assert engine.mvcc.stats.read_retries == 1
        assert iot.row_count == 4 + (undo == "savepoint")
        assert iot.ghost_count == 0
