"""An IOT row's rowid is its key, so it names the same row after a restart.

Index-organized tables hand out logical rowids built from the primary
key, as Oracle8i does.  A rowid read before the engine restarts must
find the same row after it: after a clean close, after a crash (the log
device drops every byte it never fsynced), and over ``repro://``, where
the rowid comes back from the server as a value and goes to it as a
bind.  The rows are inserted out of key order, so a rowid numbered in
insert order and renumbered in key order on restart would name another
row.
"""

import pytest

from repro import dbapi
from repro.server import Server

pytestmark = pytest.mark.crash

_QUERY = "SELECT k FROM kv WHERE rowid = :1"


def _load(conn):
    """Create ``kv`` out of key order; returns the rowid of ``k = 1``."""
    conn.execute("CREATE TABLE kv (k INTEGER, v VARCHAR2(10),"
                 " PRIMARY KEY (k)) ORGANIZATION INDEX")
    for k in (3, 1, 2):
        conn.execute("INSERT INTO kv VALUES (:1, :2)", [k, f"v{k}"])
    conn.commit()
    (rid,) = conn.execute("SELECT rowid FROM kv WHERE k = 1").fetchone()
    assert conn.execute(_QUERY, [rid]).fetchall() == [(1,)]
    return rid


def _crash(conn):
    """Power-cut: drop unfsynced log bytes, abandon the instance."""
    conn.engine.durability.wal.device.simulate_crash()


def test_rowid_survives_a_clean_restart(tmp_path):
    dsn = f"file:{tmp_path / 'db'}"
    conn = dbapi.connect(dsn)
    rid = _load(conn)
    conn.close()
    conn.engine.close()

    reopened = dbapi.connect(dsn)
    assert reopened.engine.recovery_stats.clean
    assert reopened.execute(_QUERY, [rid]).fetchall() == [(1,)]
    reopened.close()
    reopened.engine.close()


def test_rowid_survives_a_crash(tmp_path):
    dsn = f"file:{tmp_path / 'db'}"
    conn = dbapi.connect(dsn)
    rid = _load(conn)
    conn.execute("UPDATE kv SET v = 'new' WHERE k = 1")
    conn.commit()
    _crash(conn)

    reopened = dbapi.connect(dsn)
    assert not reopened.engine.recovery_stats.clean
    assert reopened.execute(_QUERY, [rid]).fetchall() == [(1,)]
    assert reopened.execute("SELECT v FROM kv WHERE rowid = :1",
                            [rid]).fetchall() == [("new",)]
    reopened.close()
    reopened.engine.close()


@pytest.mark.server
def test_rowid_survives_a_server_restart_as_a_bind(tmp_path):
    data_dir = str(tmp_path / "db")
    server = Server(data_dir=data_dir).start()
    conn = dbapi.connect(server.url, timeout=10.0)
    rid = _load(conn)
    conn.close()
    server.shutdown()

    server = Server(data_dir=data_dir).start()
    try:
        conn = dbapi.connect(server.url, timeout=10.0)
        assert conn.execute(_QUERY, [rid]).fetchall() == [(1,)]
        conn.close()
    finally:
        server.shutdown()


def test_a_key_change_moves_the_row_to_a_new_rowid():
    conn = dbapi.connect()
    rid = _load(conn)
    conn.execute("UPDATE kv SET k = 9 WHERE k = 1")
    conn.commit()
    assert conn.execute(_QUERY, [rid]).fetchall() == []
    (moved,) = conn.execute("SELECT rowid FROM kv WHERE k = 9").fetchone()
    assert moved != rid and moved.key == (9,)
    assert conn.execute("SELECT k, v FROM kv").fetchall() == [
        (2, "v2"), (3, "v3"), (9, "v1")]
    conn.close()
