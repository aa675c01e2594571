"""A dropped table's or domain index's storage is freed by the DROP
itself: nothing the engine keeps (a cached plan, a tree's hook, a
compiled plan's closures) holds it until a later collection.  A closed
engine, and everything it held, is freed by the close the same way."""

import gc
import weakref

import pytest

from repro import Engine, dbapi
from repro.errors import ExecutionError


@pytest.fixture
def collector_off():
    """Reference counting alone: whatever a cycle holds stays alive."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _storage_refs(db, table):
    storage = db.catalog.get_table(table).storage
    return weakref.ref(storage), weakref.ref(storage._tree)


class TestDropIndexFreesItsTables:
    def test_text_terms_iot(self, collector_off):
        from repro.cartridges.text import install
        db = Engine().connect()
        install(db)
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
        db.executemany("INSERT INTO docs VALUES (:1, :2)",
                       [[i, f"oracle text {i}"] for i in range(40)])
        db.execute("CREATE INDEX docs_text ON docs(body)"
                   " INDEXTYPE IS TextIndexType")
        # maintenance and both scan styles: cached callback SQL on the
        # terms table
        db.execute("INSERT INTO docs VALUES (:1, :2)", [99, "oracle again"])
        db.execute("UPDATE docs SET body = :1 WHERE id = :2", ["new", 3])
        db.execute("DELETE FROM docs WHERE id = :1", [4])
        assert db.execute("SELECT id FROM docs WHERE Contains(body,"
                          " 'oracle AND text')").fetchall()
        assert db.execute("SELECT id FROM docs WHERE Contains(body,"
                          " 'oracle')").fetchall()
        table, tree = _storage_refs(db, "docs_text_terms")
        db.execute("DROP INDEX docs_text")
        assert table() is None
        assert tree() is None

    def test_spatial_tiles_iot(self, collector_off):
        from repro.cartridges.spatial import install
        db = Engine().connect()
        install(db)
        db.execute("CREATE TABLE parks (id INTEGER, shape SDO_GEOMETRY)")
        db.executemany("INSERT INTO parks VALUES"
                       " (:1, sdo_rect(:2, :2, :3, :3))",
                       [[i, 10.0 * i, 10.0 * i + 5] for i in range(40)])
        db.execute("CREATE INDEX parks_sidx ON parks(shape)"
                   " INDEXTYPE IS SpatialIndexType")
        db.execute("DELETE FROM parks WHERE id = :1", [7])
        assert db.execute(
            "SELECT id FROM parks WHERE Sdo_Relate(shape,"
            " sdo_rect(0, 0, 100, 100), 'mask=ANYINTERACT')").fetchall()
        table, tree = _storage_refs(db, "parks_sidx_tiles")
        db.execute("DROP INDEX parks_sidx")
        assert table() is None
        assert tree() is None


class TestDropTableForgetsItsCachedPlans:
    @pytest.mark.parametrize("organization", ["", " ORGANIZATION INDEX"])
    def test_dropped_table_is_freed(self, organization):
        db = Engine().connect()
        db.execute("CREATE TABLE h (a INTEGER, b INTEGER,"
                   f" PRIMARY KEY (a)){organization}")
        db.execute("CREATE TABLE keep (a INTEGER)")
        for i in range(3):
            db.execute("INSERT INTO h VALUES (:1, :2)", [i, i])
        assert db.execute("SELECT b FROM h WHERE a = :1",
                          [1]).fetchall() == [(1,)]
        db.execute("INSERT INTO keep VALUES (:1)", [1])
        storage = weakref.ref(db.catalog.get_table("h").storage)
        cached = len(db.plan_cache)
        db.execute("DROP TABLE h")
        gc.collect()
        assert storage() is None
        # only the entries naming h went; the one on keep is still there
        assert len(db.plan_cache) == cached - 2
        db.execute("INSERT INTO keep VALUES (:1)", [2])
        assert db.execute("SELECT COUNT(*) FROM keep").fetchall() == [(2,)]


class TestCloseFreesTheEngine:
    """``close()`` leaves no reference cycle through the engine or the
    session, so the last outside reference frees them and their data."""

    def _use(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE TABLE t (id INTEGER, v VARCHAR2(10))")
        cur.executemany("INSERT INTO t VALUES (?, ?)",
                        [[i, "x"] for i in range(100)])
        cur.execute("CREATE INDEX t_id ON t(id)")
        assert cur.execute("SELECT v FROM t WHERE id < 3").fetchall() \
            == [("x",)] * 3
        assert cur.execute("SELECT COUNT(*) FROM user_tables").fetchall()
        conn.commit()

    def test_a_closed_connection_frees_its_engine(self, collector_off):
        conn = dbapi.connect()
        self._use(conn)
        engine = weakref.ref(conn.engine)
        table = weakref.ref(conn.engine.catalog.get_table("t").storage)
        conn.close()
        del conn
        assert engine() is None
        assert table() is None

    def test_a_closed_session_and_engine_are_freed(self, collector_off):
        from repro.cartridges.text import install
        engine = Engine()
        session = engine.connect()
        install(session)
        session.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(99))")
        session.executemany("INSERT INTO docs VALUES (:1, :2)",
                            [[i, f"oracle text {i}"] for i in range(20)])
        session.execute("CREATE INDEX docs_text ON docs(body)"
                        " INDEXTYPE IS TextIndexType")
        assert session.execute("SELECT id FROM docs WHERE"
                               " Contains(body, 'oracle')").fetchall()
        refs = [weakref.ref(engine), weakref.ref(session)]
        session.close()
        engine.close()
        with pytest.raises(ExecutionError, match="session is closed"):
            session.execute("SELECT 1 FROM dual")
        del engine, session
        assert [ref() for ref in refs] == [None, None]
