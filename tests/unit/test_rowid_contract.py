"""The rowid contract: a heap rowid is the plain tuple ``(segment, page,
slot)``.

Hash, equality and order are the tuple's own, so every sort, bisect,
hash and key compare that meets a rowid stays in C, and the collector
stops tracking a rowid — and a key that holds one — at its first pass.
A heap rowid never equals an IOT's logical rowid and does not order
against one; and the log stores rowids as they are.  (A rowid pickled
by the earlier layout, an instance of a ``tuple`` subclass, loads as
the plain tuple: ``tests/integration/test_rowid_layout_upgrade.py``.)
"""

import gc
import pickle
import random
from operator import ge, gt, le, lt

import pytest

from repro import Engine
from repro.storage.heap import format_rowid, load_stored
from repro.storage.iot import LogicalRowId
from repro.storage.page import estimate_row_size, estimate_size
from repro.types.datatypes import ROWID


def _triples(n, seed=3):
    rng = random.Random(seed)
    return [(rng.randrange(4), rng.randrange(50), rng.randrange(60))
            for __ in range(n)]


def test_a_heap_rowid_is_an_exact_tuple_the_collector_drops():
    db = Engine().connect()
    db.execute("CREATE TABLE t (id INTEGER, pad VARCHAR2(400))")
    db.executemany("INSERT INTO t VALUES (:1, :2)",
                   [[i, "x" * 400] for i in range(40)])
    rowids = [rid for (rid,) in db.execute("SELECT rowid FROM t")]
    segment = db.catalog.get_table("t").storage.segment_id
    assert {type(rid) for rid in rowids} == {tuple}
    assert {rid[0] for rid in rowids} == {segment}
    assert len({rid[1] for rid in rowids}) > 1  # several pages
    assert ROWID.validate(rowids[0]) is rowids[0]
    # equality, hash and order are the address tuple's
    shuffled = random.Random(4).sample(rowids, len(rowids))
    assert sorted(shuffled) == rowids
    for rid in rowids:
        address = (rid[0], rid[1], rid[2])
        assert rid == address and hash(rid) == hash(address)
        assert db.execute("SELECT id FROM t WHERE rowid = :1",
                          [address]).fetchall() \
            == [(rowids.index(rid),)]
    key = ("token", rowids[0])
    gc.collect()
    assert not gc.is_tracked(rowids[0]) and not gc.is_tracked(key)


def test_a_rowid_displays_as_rid():
    for rid in _triples(400):
        assert format_rowid(rid) == "RID(%d.%d.%d)" % rid
    lrid = LogicalRowId(1, ("a", 2))
    assert format_rowid(lrid) == repr(lrid) == "LRID(1:('a', 2))"


def test_a_heap_rowid_never_meets_a_logical_one():
    rid = (1, 2, 3)
    for lrid in (LogicalRowId(1, (2, 3)), LogicalRowId(1, (1, 2, 3))):
        assert rid != lrid and lrid != rid
        assert not rid == lrid and not lrid == rid
        for compare in (lt, le, gt, ge):
            for a, b in ((rid, lrid), (lrid, rid)):
                with pytest.raises(TypeError):
                    compare(a, b)
        assert len({rid, lrid}) == 2
    with pytest.raises(TypeError):
        sorted([LogicalRowId(1, (5,)), (1, 2, 3)])
    # logical rowids keep their own order within a table
    assert sorted([LogicalRowId(1, ("b",)), LogicalRowId(1, ("a",))]) \
        == [LogicalRowId(1, ("a",)), LogicalRowId(1, ("b",))]


def test_pickle_round_trip():
    for rid in ((0, 0, 0), (7, 123456, 99)):
        back = load_stored(pickle.dumps(rid, protocol=5))
        assert back == rid and type(back) is tuple
    lrid = LogicalRowId(4, ("tok", (1, 2, 3)))
    back = load_stored(pickle.dumps(lrid, protocol=5))
    assert back == lrid and type(back.key[1]) is tuple


def test_a_rowid_is_charged_as_three_ints():
    assert estimate_size((1, 2, 3)) == 40
    assert estimate_row_size([(1, 2, 3), "abc", 5]) == 67
    assert estimate_row_size([(1, 2, 3)]) == 56


def test_the_log_carries_rowids_as_plain_tuples(tmp_path):
    """Row records carry ``rid``, a direct-path record ``rids``, and a
    compensation record its ``rid``, each a plain tuple."""
    db = Engine(data_dir=str(tmp_path / "data")).connect()
    db.execute("CREATE TABLE t (id INTEGER, note VARCHAR2(20))")
    db.executemany("INSERT INTO t VALUES (:1, :2)",
                   [[i, f"n{i}"] for i in range(20)])
    db.execute("UPDATE t SET note = 'x' WHERE id = 3")
    db.begin()
    db.execute("DELETE FROM t WHERE id = 5")  # its CLR is an insert
    db.rollback()
    ops = {}
    for __, record in db.engine.durability.wal.records():
        if record.get("tb") == "t":
            ops.setdefault(record["op"], []).append(record)
    assert {"bulk_insert", "update", "insert", "delete"} <= set(ops)
    bulk, = ops["bulk_insert"]
    assert len(bulk["rids"]) == 20
    assert all(type(rid) is tuple and len(rid) == 3
               for rid in bulk["rids"])
    for op in ("update", "insert", "delete"):
        for record in ops[op]:
            assert type(record["rid"]) is tuple, (op, record["rid"])
    db.close()
    db.engine.close()
