"""Every table storage — heap, IOT and dictionary view — answers the
executor and the callbacks through the same two reads: one full scan,
``scan_batches(snapshot=None)``, and one read by rowid,
``fetch_batch(rowids, snapshot=None)``.  Nothing probes a storage for
another method, so each kind must have both, and a rowid of another
storage must find nothing."""

import inspect

import pytest

from repro import Engine
from repro.testing import scanned

KINDS = ["heap", "iot", "view"]


@pytest.fixture
def world():
    engine = Engine()
    db = engine.connect()
    db.execute("CREATE TABLE h (k INTEGER, v VARCHAR2(10))")
    db.execute("CREATE TABLE o (k INTEGER, v VARCHAR2(10), PRIMARY KEY (k))"
               " ORGANIZATION INDEX")
    for name in ("h", "o"):
        db.execute(f"INSERT INTO {name} VALUES (1, 'a'), (2, 'b')")
    catalog = engine.catalog
    storages = {"heap": catalog.get_table("h").storage,
                "iot": catalog.get_table("o").storage,
                "view": catalog.get_table("user_tables").storage,
                # each lookup of a view builds a new snapshot of it
                "view again": catalog.get_table("user_tables").storage}
    return engine, storages


def _parameters(method):
    return [(p.name, p.default) for p in
            inspect.signature(method).parameters.values()]


@pytest.mark.parametrize("kind", KINDS)
def test_every_storage_has_the_two_reads(world, kind):
    __, storages = world
    storage = storages[kind]
    assert _parameters(storage.scan_batches) == [("snapshot", None)]
    assert _parameters(storage.fetch_batch) \
        == [("rowids", inspect.Parameter.empty), ("snapshot", None)]


@pytest.mark.parametrize("kind", KINDS)
def test_fetch_batch_answers_the_scan_in_the_callers_order(world, kind):
    engine, storages = world
    storage = storages[kind]
    pairs = scanned(storage.scan_batches())
    assert len(pairs) >= 2
    rowids = [rowid for rowid, __ in reversed(pairs)]
    for snapshot in (None, engine.mvcc.take_snapshot(None)):
        found, rows = storage.fetch_batch(rowids, snapshot)
        assert found == rowids
        assert list(map(list, rows)) == [row for __, row in reversed(pairs)]


@pytest.mark.parametrize("kind", KINDS)
def test_another_storages_rowids_find_nothing(world, kind):
    engine, storages = world
    storage = storages[kind]
    snapshot = engine.mvcc.take_snapshot(None)
    for other, foreign in storages.items():
        if other == kind:
            continue
        rowids = [rowid for rowid, __ in scanned(foreign.scan_batches())]
        assert storage.fetch_batch(rowids) == ([], []), other
        assert storage.fetch_batch(rowids, snapshot) == ([], []), other
