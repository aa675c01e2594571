"""IOT prefix scans on the columnar pipeline: parity, bounds, snapshots.

An ``IOT PREFIX SCAN`` hands its rows over as column batches built from
the tree's key and payload tuples; a projection over it gathers through
the vector kernel, and the first range sarg on the next key column
bounds the leaf walk.  The bound is a hint — its conjunct stays in the
residual — so every query here must answer exactly what the reference
interpreter answers, and what a full scan of a heap copy answers, for
any bind: NULL, of another kind than the column, bool, or none.
"""

import pytest

from repro.errors import TypeMismatchError
from repro.sql.engine import Engine
from repro.testing import interpreter_forced
from repro.types.values import NULL

pytestmark = pytest.mark.vectorized

_COLUMNS = ("(term VARCHAR2(8), pos INTEGER, doc INTEGER, freq NUMBER,"
            " note VARCHAR2(8)")


def _rows():
    return [[term, pos, doc,
             NULL if (pos + doc) % 7 == 0 else (pos * 3 + doc) % 5,
             NULL if pos % 5 == 0 else f"n{pos % 3}"]
            for term in "abcde" for pos in range(20) for doc in range(3)]


def _load(session):
    """``post`` (an IOT keyed ``(term, pos, doc)``) and ``heap``, the
    same rows in a heap table: the oracle a full scan gives."""
    session.execute(f"CREATE TABLE post {_COLUMNS},"
                    " PRIMARY KEY (term, pos, doc)) ORGANIZATION INDEX")
    session.execute(f"CREATE TABLE heap {_COLUMNS})")
    for table in ("post", "heap"):
        session.insert_rows(table, _rows())
    return session


def _both_ways(session, sql, binds=()):
    """[default, interpreter-forced] outcomes of one statement: row
    reprs in order, or the error's class and message."""
    def run():
        try:
            return [tuple(map(repr, row))
                    for row in session.execute(sql, list(binds)).fetchall()]
        except Exception as exc:  # noqa: BLE001 - parity incl. errors
            return (type(exc).__name__, str(exc))
    generated = run()
    with interpreter_forced(session):
        return generated, run()


#: (sql over ``post``, binds); every one plans an IOT PREFIX SCAN
QUERIES = [
    ("SELECT pos, doc, freq FROM post WHERE term = :1", ["b"]),
    ("SELECT pos, doc FROM post WHERE term = :1 AND freq > :2", ["c", 2]),
    # a bound on the next key column, each side and both
    ("SELECT pos, doc, note FROM post WHERE term = :1 AND pos <= :2",
     ["a", 7]),
    ("SELECT pos, freq FROM post WHERE term = :1 AND pos < :2"
     " AND note IS NULL", ["a", 11]),
    ("SELECT pos, doc FROM post WHERE term = :1 AND pos > :2", ["b", 16]),
    ("SELECT pos, doc FROM post WHERE term = :1 AND pos >= :2"
     " AND pos < :3", ["d", 4, 9]),
    ("SELECT pos * 2, note || 'x' FROM post WHERE term = :1"
     " AND pos BETWEEN :2 AND :3", ["e", 3, 6]),
    ("SELECT pos FROM post WHERE term = :1 AND pos <= 6 AND pos <= :2",
     ["e", 3]),
    ("SELECT pos FROM post WHERE term = :1 AND :2 >= pos", ["c", 2]),
    # a float bound on an integer column is of the column's kind
    ("SELECT pos, doc FROM post WHERE term = :1 AND pos <= :2", ["b", 6.5]),
    ("SELECT pos, doc FROM post WHERE term = :1 AND pos > :2", ["b", 18.5]),
    # NULL binds: the key, the bound
    ("SELECT pos FROM post WHERE term = :1 AND pos <= :2", [None, 3]),
    ("SELECT pos FROM post WHERE term = :1 AND pos <= :2", ["b", None]),
    ("SELECT pos FROM post WHERE term = :1 AND pos >= :2", ["b", NULL]),
    # a bound of another kind than the column: no bound, the residual
    # decides (here: raises, as the interpreter does)
    ("SELECT pos FROM post WHERE term = :1 AND pos <= :2", ["b", "7"]),
    ("SELECT pos FROM post WHERE term = :1 AND pos <= :2", ["b", True]),
    ("SELECT pos FROM post WHERE term = :1 AND pos <= :2", ["zz", "7"]),
    # the whole key: one descent, at most one row
    ("SELECT freq, note FROM post WHERE term = :1 AND pos = :2"
     " AND doc = :3", ["c", 4, 1]),
    ("SELECT freq FROM post WHERE doc = :3 AND pos = :2 AND term = :1",
     ["c", 4, 7]),
    # the row pipeline over the same producer
    ("SELECT doc, pos FROM post WHERE term = :1 AND pos < :2"
     " ORDER BY freq, doc, pos", ["a", 9]),
    ("SELECT doc, COUNT(*), MAX(freq) FROM post WHERE term = :1"
     " AND pos <= :2 GROUP BY doc", ["d", 12]),
    ("SELECT rowid, pos FROM post WHERE term = :1 AND pos <= :2",
     ["a", 2]),
    ("SELECT p.pos, q.doc FROM post p, heap q WHERE p.term = :1"
     " AND p.pos <= :2 AND q.term = p.term AND q.pos = p.pos"
     " AND q.doc = 2", ["b", 5]),
    ("SELECT pos FROM post WHERE term = :1 AND pos >= :2 LIMIT 4",
     ["c", 6]),
    # an error mid-batch re-runs the batch on the interpreter
    ("SELECT pos FROM post WHERE term = :1 AND freq / (pos - 5) > 0",
     ["a"]),
]


#: (sql over ``post``, binds); every one plans a TABLE SCAN of the IOT
#: (its full scan: the prefix walk with an empty prefix), so kernels,
#: the fused projection, sort and grouped fold run over the tree's rows
FULL_SCANS = [
    ("SELECT term, pos, doc, freq FROM post WHERE freq > :1", [2]),
    ("SELECT term, doc, note FROM post WHERE note IS NULL AND pos < :1",
     [4]),
    ("SELECT term, pos, freq, note FROM post", []),
    ("SELECT term FROM post WHERE freq > :1", [None]),
    ("SELECT term, pos, doc FROM post WHERE freq < :1"
     " ORDER BY freq, note, term DESC, pos, doc", [3]),
    ("SELECT term, COUNT(*), SUM(freq), MAX(note) FROM post GROUP BY term",
     []),
    ("SELECT note, COUNT(freq), MIN(freq) FROM post WHERE doc = :1"
     " GROUP BY note", [1]),
    ("SELECT term, pos FROM post WHERE freq IS NULL LIMIT 5", []),
    ("SELECT term, pos, doc FROM post LIMIT 4 OFFSET 58", []),
    ("SELECT rowid, term FROM post WHERE pos = 19 AND doc = 2", []),
    ("SELECT term FROM post WHERE freq / (pos - 5) > 0", []),
]


class TestTwoWay:
    @pytest.fixture(scope="class")
    def data(self):
        return _load(Engine().connect())

    @pytest.mark.parametrize("sql,binds", QUERIES + FULL_SCANS)
    def test_agrees_with_interpreter_and_full_scan(self, data, sql, binds):
        scan = "TABLE SCAN post" if (sql, binds) in FULL_SCANS \
            else "IOT PREFIX SCAN"
        assert any(scan in line for line in data.explain(sql, binds))
        generated, interpreted = _both_ways(data, sql, binds)
        assert generated == interpreted, sql
        oracle, __ = _both_ways(data, sql.replace("post", "heap"), binds)
        if isinstance(oracle, list) and "ORDER BY" not in sql \
                and "LIMIT" not in sql:
            generated, oracle = sorted(generated), sorted(oracle)
        if "rowid" not in sql:  # heap and IOT rowids differ
            assert generated == oracle, sql

    def test_projection_runs_vector_batches(self, data):
        before = data.engine.executor_stats.snapshot()
        rows = data.execute("SELECT pos, freq FROM post WHERE term = :1"
                            " AND pos <= :2 AND doc = 1", ["c", 8]).fetchall()
        after = data.engine.executor_stats.snapshot()
        assert [pos for pos, __ in rows] == list(range(9))
        assert after["vector_batches"] == before["vector_batches"] + 1
        assert after["vector_rows"] == before["vector_rows"] + 27


class TestExplain:
    def test_bound_and_vectorized_markers(self, db):
        _load(db)
        lines = db.explain("SELECT pos, freq FROM post WHERE term = :1"
                           " AND pos <= :2", ["a", 5])
        scan = next(line for line in lines if "IOT PREFIX SCAN" in line)
        assert "key=1/3 pos<=" in scan
        assert "[COMPILED]" in scan and "[VECTORIZED]" in scan
        assert lines[0].startswith("PROJECT") and "[VECTORIZED]" in lines[0]

    def test_each_side_and_a_full_key(self, db):
        _load(db)

        def scan(sql):
            return next(line for line in db.explain(sql)
                        if "IOT PREFIX SCAN" in line)
        assert "key=1/3 pos>= pos<= " in scan(
            "SELECT doc FROM post WHERE term = 'a' AND pos BETWEEN 2 AND 4")
        assert "key=1/3 pos> (" in scan(
            "SELECT doc FROM post WHERE term = 'a' AND pos > 2 AND doc < 9")
        # only the column after the prefix bounds the walk
        assert "key=1/3 (" in scan(
            "SELECT doc FROM post WHERE term = 'a' AND doc < 2")
        assert "key=2/3 doc< (" in scan(
            "SELECT doc FROM post WHERE term = 'a' AND doc < 2 AND pos = 3")
        assert "key=3/3 (" in scan(
            "SELECT freq FROM post WHERE term = 'a' AND pos = 1 AND doc = 2")

    def test_bound_keeps_its_conjunct_in_the_filter(self, db):
        """Filterless otherwise, the scan still runs the bound's
        conjunct as its residual: the walk's stop is only a hint."""
        _load(db)
        sql = "SELECT pos, doc FROM post WHERE term = 'a' AND pos < 3"
        scan = next(line for line in db.explain(sql)
                    if "IOT PREFIX SCAN" in line)
        assert "key=1/3 pos<" in scan and "[COMPILED]" in scan
        assert db.execute(sql).fetchall() == [
            (pos, doc) for pos in range(3) for doc in range(3)]


class TestWalkStopsAtTheBound:
    def test_rows_handed_over_are_those_in_bounds(self, db, monkeypatch):
        _load(db)
        storage = db.catalog.get_table("post").storage
        handed = []
        real = storage.prefix_batches

        def spy(prefix, low=None, high=None, snapshot=None):
            for rowids, columns in real(prefix, low, high, snapshot):
                handed.append((low, high, list(columns[1])))
                yield rowids, columns
        monkeypatch.setattr(storage, "prefix_batches", spy)
        sql = "SELECT doc FROM post WHERE term = :1 AND pos BETWEEN :2 AND :3"
        assert len(db.execute(sql, ["b", 4, 6]).fetchall()) == 9
        assert handed == [(4, 6, [4] * 3 + [5] * 3 + [6] * 3)]
        # NULL, or a bind of another kind than the column, walks the
        # whole prefix: the residual alone decides (nothing passes a
        # NULL comparison; a string against a number raises)
        sql = "SELECT doc FROM post WHERE term = :1 AND pos <= :2"
        del handed[:]
        assert db.execute(sql, ["b", None]).fetchall() == []
        with pytest.raises(TypeMismatchError):
            db.execute(sql, ["b", "7"]).fetchall()
        assert [(low, high, len(pos)) for low, high, pos in handed] == [
            (None, None, 60)] * 2


class TestPinnedSnapshot:
    """A snapshot that predates deletes, key moves and inserts under the
    prefix: the store is unsettled and ghosts lie in bounds."""

    SQL = [("SELECT pos, doc, freq FROM post WHERE term = :1", ["b"]),
           ("SELECT pos, doc, freq FROM post WHERE term = :1 AND pos <= :2",
            ["b", 5]),
           ("SELECT pos, doc FROM post WHERE term = :1 AND pos >= :2"
            " AND pos < :3", ["b", 3, 8]),
           ("SELECT freq FROM post WHERE term = :1 AND pos = :2"
            " AND doc = :3", ["b", 3, 1]),
           ("SELECT doc, COUNT(*) FROM post WHERE term = :1 AND pos < :2"
            " GROUP BY doc", ["b", 6]),
           *FULL_SCANS]

    def test_reader_sees_its_snapshot_both_ways(self):
        engine = Engine()
        writer, reader = engine.connect(), engine.connect()
        _load(writer)
        writer.execute("COMMIT")
        reader.execute("SET TRANSACTION READ ONLY")
        before = [_both_ways(reader, sql, binds) for sql, binds in self.SQL]
        writer.execute("DELETE FROM post WHERE term = 'b' AND pos = 3")
        writer.execute("UPDATE post SET pos = 40 WHERE term = 'b'"
                       " AND pos = 4 AND doc = 0")
        writer.execute("UPDATE post SET term = 'f' WHERE term = 'b'"
                       " AND pos = 5 AND doc = 2")
        writer.execute("UPDATE post SET freq = 99 WHERE term = 'b'"
                       " AND pos = 2")
        writer.execute("INSERT INTO post VALUES ('b', 2, 9, 1, 'late')")
        writer.execute("COMMIT")
        storage = engine.catalog.get_table("post").storage
        assert storage.ghost_count > 0
        assert storage.versions.tracked_rowids()
        for (sql, binds), (generated, interpreted) in zip(self.SQL, before):
            assert generated == interpreted, sql
            assert _both_ways(reader, sql, binds) == (generated, generated)
        reader.execute("COMMIT")
        after = dict(reader.execute(
            "SELECT pos * 10 + doc, freq FROM post WHERE term = :1"
            " AND pos <= :2", ["b", 5]).fetchall())
        assert 30 not in after and 40 not in after and 52 not in after
        assert after[20] == 99 and after[29] == 1 and after[21] == 99
        for sql, binds in self.SQL:
            generated, interpreted = _both_ways(reader, sql, binds)
            assert generated == interpreted, sql

    def test_an_uncommitted_delete_stays_visible_both_ways(self):
        """The deleted rows' keys are ghosts: a full scan's snapshot
        overlays them until the delete commits."""
        engine = Engine()
        writer, reader = engine.connect(), engine.connect()
        _load(writer)
        writer.execute("COMMIT")
        before = [_both_ways(reader, sql, binds) for sql, binds in self.SQL]
        writer.begin()
        writer.execute("DELETE FROM post WHERE pos = 4 OR freq IS NULL")
        storage = engine.catalog.get_table("post").storage
        assert storage.ghost_count > 0
        for (sql, binds), outcome in zip(self.SQL, before):
            assert outcome[0] == outcome[1], sql
            assert _both_ways(reader, sql, binds) == outcome, sql
        writer.execute("COMMIT")
        kept = [(repr(sum(1 for row in _rows()
                          if row[1] != 4 and row[3] is not NULL)),)]
        assert _both_ways(reader, "SELECT COUNT(*) FROM post") == (
            kept, kept)
