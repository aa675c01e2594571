"""The rowid contract: a heap rowid is the tuple ``(segment, page, slot)``.

Hash, equality and order are the tuple's own C slots, so every sort,
bisect, hash and key compare that meets a rowid stays in C.  A heap
rowid never equals an IOT's logical rowid and does not order against
one; the log stores rowids as plain tuples; and a row that holds a
rowid is charged the same page bytes as when a rowid was an opaque
object, so page fill does not move.
"""

import pickle
import random
from operator import ge, gt, le, lt

import pytest

from repro import Engine
from repro.storage.heap import RowId, RowIdBase
from repro.storage.iot import LogicalRowId
from repro.storage.page import estimate_row_size, estimate_size
from repro.types.datatypes import ROWID


def _triples(n, seed=3):
    rng = random.Random(seed)
    return [(rng.randrange(4), rng.randrange(50), rng.randrange(60))
            for __ in range(n)]


def test_hash_equality_and_order_are_the_address_tuples():
    triples = _triples(400)
    rids = [RowId(*t) for t in triples]
    assert sorted(rids) == [RowId(*t) for t in sorted(triples)]
    for rid, t in zip(rids, triples):
        assert rid == t and hash(rid) == hash(t)
        assert (rid.segment_id, rid.page_no, rid.slot) == t
        assert repr(rid) == "RID(%d.%d.%d)" % t
    for (a, ta), (b, tb) in zip(zip(rids, triples),
                                zip(rids[1:], triples[1:])):
        assert (a < b, a <= b, a > b, a >= b, a == b) \
            == (ta < tb, ta <= tb, ta > tb, ta >= tb, ta == tb)
    assert len(set(rids)) == len(set(triples))


def test_comparisons_are_the_tuple_slots():
    """Nobody puts the Python dunders back: each comparison and the hash
    is tuple's own C slot."""
    for name in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__",
                 "__gt__", "__ge__"):
        assert getattr(RowId, name) is getattr(tuple, name), name
    assert RowId.__slots__ == ()
    assert isinstance(RowId(1, 2, 3), RowIdBase)
    assert ROWID.validate(RowId(1, 2, 3)) == (1, 2, 3)


def test_a_heap_rowid_never_meets_a_logical_one():
    rid = RowId(1, 2, 3)
    for lrid in (LogicalRowId(1, (2, 3)), LogicalRowId(1, (1, 2, 3))):
        assert rid != lrid and lrid != rid
        assert not rid == lrid and not lrid == rid
        for compare in (lt, le, gt, ge):
            for a, b in ((rid, lrid), (lrid, rid)):
                with pytest.raises(TypeError):
                    compare(a, b)
        assert len({rid, lrid}) == 2
    with pytest.raises(TypeError):
        sorted([LogicalRowId(1, (5,)), RowId(1, 2, 3)])
    # logical rowids keep their own order within a table
    assert sorted([LogicalRowId(1, ("b",)), LogicalRowId(1, ("a",))]) \
        == [LogicalRowId(1, ("a",)), LogicalRowId(1, ("b",))]


def test_pickle_round_trip():
    for rid in (RowId(0, 0, 0), RowId(7, 123456, 99)):
        back = pickle.loads(pickle.dumps(rid, protocol=5))
        assert back == rid and type(back) is RowId
        assert pickle.loads(pickle.dumps((rid, [rid]), protocol=5)) \
            == (rid, [rid])
    lrid = LogicalRowId(4, ("tok", RowId(1, 2, 3)))
    back = pickle.loads(pickle.dumps(lrid, protocol=5))
    assert back == lrid and type(back.key[1]) is RowId


def test_page_bytes_of_a_row_holding_a_rowid_are_unchanged():
    """A rowid is one opaque 32-byte value, not a 3-int collection."""
    assert estimate_size(RowId(1, 2, 3)) == 32
    assert estimate_row_size([RowId(1, 2, 3), "abc", 5]) == 59
    assert estimate_row_size([RowId(1, 2, 3)]) == 48
    assert estimate_row_size([(1, 2, 3)]) == 56  # a plain tuple is not


def test_the_log_carries_rowids_as_plain_tuples(tmp_path):
    """Row records carry ``rid``, a direct-path record ``rids``, and a
    compensation record its ``rid``, each a plain tuple."""
    db = Engine(data_dir=str(tmp_path / "data")).connect()
    db.execute("CREATE TABLE t (id INTEGER, note VARCHAR2(20))")
    db.executemany("INSERT INTO t VALUES (:1, :2)",
                   [[i, f"n{i}"] for i in range(20)])
    db.execute("UPDATE t SET note = 'x' WHERE id = 3")
    db.begin()
    db.execute("INSERT INTO t VALUES (99, 'gone')")
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
