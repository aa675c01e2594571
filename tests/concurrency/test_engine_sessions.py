"""Engine/Session split: shared state, per-session state, blocking locks."""

import threading
import time

import pytest

from repro import DeadlockError  # noqa: F401 (re-export check)
from repro.errors import LockTimeoutError
from repro.sql.engine import Engine
from repro.sql.session import Session

pytestmark = pytest.mark.concurrency


class TestSharedEngineState:
    def test_sessions_share_catalog_and_data(self, engine):
        s1 = engine.connect()
        s2 = engine.connect()
        s1.execute("CREATE TABLE t (id INTEGER, name VARCHAR2(20))")
        s1.execute("INSERT INTO t VALUES (1, 'ada')")
        rows = s2.execute("SELECT name FROM t WHERE id = 1").fetchall()
        assert rows == [("ada",)]

    def test_plan_cache_shared_across_sessions(self, engine):
        s1 = engine.connect()
        s2 = engine.connect()
        s1.execute("CREATE TABLE t (id INTEGER)")
        s1.execute("INSERT INTO t VALUES (1)")
        s1.execute("SELECT id FROM t WHERE id = :1", [1]).fetchall()
        hits_before = engine.plan_cache.stats.hits
        s2.execute("SELECT id FROM t WHERE id = :1", [2]).fetchall()
        assert engine.plan_cache.stats.hits == hits_before + 1
        assert s1.plan_cache is engine.plan_cache
        assert s2.plan_cache is engine.plan_cache

    def test_txn_ids_engine_global(self, engine):
        s1 = engine.connect()
        s2 = engine.connect()
        s1.begin()
        id1 = s1.txns.current.txn_id
        s1.commit()
        s2.begin()
        id2 = s2.txns.current.txn_id
        s2.commit()
        assert id2 > id1  # one allocator, monotone across sessions

    def test_session_ids_distinct(self, engine):
        assert engine.connect().session_id != engine.connect().session_id


class TestPerSessionState:
    def test_tracing_is_per_session(self, engine):
        from repro.cartridges.text import install
        s1 = engine.connect()
        s2 = engine.connect()
        install(s1)
        s1.execute("CREATE TABLE t (id INTEGER, note VARCHAR2(40))")
        s1.execute("CREATE INDEX t_tidx ON t(note)"
                   " INDEXTYPE IS TextIndexType")
        s1.enable_tracing()
        s2.enable_tracing()
        s1.execute("INSERT INTO t VALUES (1, 'alpha beta')")
        # the shared dispatcher resolved the *bound* session's trace log
        assert any("ODCIIndexInsert" in line for line in s1.trace_log)
        assert s2.trace_log == []

    def test_transactions_are_per_session(self, engine):
        s1 = engine.connect()
        s2 = engine.connect()
        s1.begin()
        assert s1.in_transaction
        assert not s2.in_transaction
        s1.rollback()

    def test_session_users_independent(self, engine):
        s1 = engine.connect(user="alice")
        s2 = engine.connect(user="bob")
        assert (s1.session_user, s2.session_user) == ("alice", "bob")


class TestPrivateEngines:
    def test_each_engine_is_private_to_its_sessions(self):
        db = Engine().connect()
        assert isinstance(db, Session)
        assert isinstance(db.engine, Engine)
        db2 = Engine().connect()
        assert db.engine is not db2.engine

    def test_engine_connect_opens_sibling_session(self):
        db = Engine().connect()
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (7)")
        sibling = db.engine.connect()
        assert sibling.engine is db.engine
        assert sibling.execute("SELECT id FROM t").fetchall() == [(7,)]


class TestBlockingLocks:
    def test_writer_blocks_then_proceeds_after_commit(self, engine):
        s1 = engine.connect()
        s2 = engine.connect()
        s1.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        s1.execute("INSERT INTO t VALUES (1, 0)")
        s1.begin()
        s1.execute("UPDATE t SET v = 1 WHERE id = 1")

        done = threading.Event()

        def blocked_writer():
            s2.execute("UPDATE t SET v = 2 WHERE id = 1")  # autocommit
            done.set()

        t = threading.Thread(target=blocked_writer)
        t.start()
        time.sleep(0.15)
        assert not done.is_set()  # still waiting on the X lock
        s1.commit()
        t.join(timeout=10)
        assert done.is_set()
        assert engine.locks.stats.waits >= 1
        assert sum(engine.locks.stats.wait_histogram.values()) >= 1
        rows = s1.execute("SELECT v FROM t WHERE id = 1").fetchall()
        assert rows == [(2,)]

    def test_timeout_reports_wait_time(self):
        engine = Engine(lock_timeout=0.2)
        s1 = engine.connect()
        s2 = engine.connect()
        s1.execute("CREATE TABLE t (id INTEGER)")
        s1.begin()
        s1.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(LockTimeoutError, match="after waiting"):
            s2.execute("INSERT INTO t VALUES (2)")
        assert engine.locks.stats.timeouts == 1
        s1.rollback()
