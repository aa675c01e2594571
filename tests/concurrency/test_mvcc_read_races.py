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
"""

import threading

import pytest

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
    return [row for batch in storage.scan_batches(snapshot)
            for __, row in batch]


class TestRolledBackInsert:
    """``pop`` unmaps a first insert that rolls back (the window exists
    at the parent commit, whatever prune does)."""

    def test_heap_fetch_and_scan(self, engine, heap, monkeypatch):
        for read in ("fetch", "scan"):
            writer = engine.connect()
            writer.begin()
            writer.execute("INSERT INTO t VALUES (3, :1)", [SENTINEL])
            (rowid,) = [rid for rid, row in heap.scan()
                        if row[1] == SENTINEL]
            snapshot = engine.mvcc.take_snapshot(None)
            park = _Park(monkeypatch)
            if read == "fetch":
                value = _read_while(
                    park, lambda: heap.fetch_or_none(rowid, snapshot),
                    writer.rollback)
                assert value is None
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
            lambda: [row for __, row in iot.key_prefix_scan(["a"], snapshot)],
            writer.rollback)
        assert rows == [["a", 1]]
        assert iot.fetch_or_none(iot.locate(("a", 1))[0], snapshot) \
            == ["a", 1]


class TestForgottenBase:
    """PR 15's review scenario: an update in flight, the reader reads
    the slot, the update rolls back (its base stays mapped), a prune
    pass forgets the base, the reader resumes."""

    @pytest.mark.parametrize("read", ["fetch", "scan", "fetch_batch"])
    def test_heap(self, engine, heap, monkeypatch, read):
        writer = engine.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = :1 WHERE k = 1", [SENTINEL])
        (rowid,) = [rid for rid, row in heap.scan() if row[1] == SENTINEL]
        snapshot = engine.mvcc.take_snapshot(None)
        park = _Park(monkeypatch)

        def rollback_and_prune():
            writer.rollback()
            engine.prune_versions()
            assert heap.versions.tracked_rowids() == []

        reads = {
            "fetch": lambda: [heap.fetch_or_none(rowid, snapshot)],
            "scan": lambda: _scan(heap, snapshot),
            "fetch_batch": lambda: heap.fetch_batch([rowid], snapshot)[1],
        }
        rows = _read_while(park, reads[read], rollback_and_prune)
        assert [1, "one"] in rows
        assert not any(SENTINEL in row for row in rows)
        assert engine.mvcc.stats.read_retries == 1
