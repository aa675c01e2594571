"""Fault semantics of the ODCI scan loop, and where it runs.

``Executor._odci_scan`` is one loop on the statement's thread — Start,
Fetch until the null terminator or the ``LIMIT`` budget, Close.  What
the dispatcher contract observes through it: wall-clock budgets, the
fault taxonomy, bounded retry, ``skip_unusable_indexes``
degrade-and-retry on the statement's snapshot, and ``ODCIIndexClose``
exactly once per opened scan, also for an abandoned cursor.  Every
fault test here spies on the real dispatcher seam with
:class:`~repro.testing.FaultPlan`; the thread tests record
``threading.get_ident()`` inside the cartridge.  (Async prefetch, the
engine worker pool and their three knobs were removed: DESIGN.md §14.)
"""

import threading

import pytest

from repro import (
    Engine, IndexMethods, IndexState, IndexTable, PrecomputedScan)
from repro.errors import CallbackTimeoutError, ODCIError
from repro.testing import FaultPlan, interpreter_forced

pytestmark = pytest.mark.faults


class EqScanMethods(IndexMethods):
    """Minimal equality indextype (index table + precomputed scan)."""

    index_tables = (IndexTable("data", "v VARCHAR2(100), rid ROWID"),)

    def _table(self, ia):
        return self.index_tables[0].name(ia)

    def index_insert(self, ia, rowid, new_values, env):
        env.callback.insert_row(self._table(ia), [new_values[0], rowid])

    def index_delete(self, ia, rowid, old_values, env):
        env.callback.execute(
            f"DELETE FROM {self._table(ia)} WHERE rid = :1", [rowid])

    def index_start(self, ia, op_info, query_info, env):
        rows = env.callback.query(
            f"SELECT rid FROM {self._table(ia)} WHERE v = :1",
            [op_info.operator_args[0]])
        return PrecomputedScan(sorted(r[0] for r in rows))


QUERY = "SELECT v FROM t WHERE Eq_Val(v, :1) = 1"


@pytest.fixture
def db():
    db = Engine().connect()
    db.create_function("EqValFunc",
                       lambda v, probe: 1 if v == probe else 0, cost=5.0)
    db.register_methods("EqScanMethods", EqScanMethods)
    db.execute("CREATE OPERATOR Eq_Val BINDING (VARCHAR2, VARCHAR2)"
               " RETURN NUMBER USING EqValFunc")
    db.execute("CREATE INDEXTYPE EqScanType"
               " FOR Eq_Val(VARCHAR2, VARCHAR2) USING EqScanMethods")
    db.execute("CREATE TABLE t (id INTEGER, v VARCHAR2(100))")
    for i in range(40):
        db.execute("INSERT INTO t VALUES (:1, :2)",
                   [i, "match" if i % 2 == 0 else "other"])
    db.execute("CREATE INDEX t_idx ON t(v) INDEXTYPE IS EqScanType")
    db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
    db.fetch_batch_size = 10  # 20 matches -> two full fetch batches
    yield db
    db.close()


class TestLimitEarlyStop:
    """Satellite: LIMIT stops the fetch loop at the batch boundary."""

    def test_serial_limit_issues_no_extra_fetch(self, db):
        with FaultPlan(db) as plan:
            rows = db.execute(QUERY + " LIMIT 10", ["match"]).fetchall()
        assert len(rows) == 10
        # 10 matches at batch size 10: exactly one fetch satisfies the
        # limit, and yield-then-check must not pull a second batch
        assert plan.calls("ODCIIndexFetch") == 1
        assert plan.calls("ODCIIndexClose") == 1

    def test_limit_with_offset_budgets_both(self, db):
        with FaultPlan(db) as plan:
            rows = db.execute(QUERY + " LIMIT 5 OFFSET 5",
                              ["match"]).fetchall()
        assert len(rows) == 5
        assert plan.calls("ODCIIndexFetch") == 1
        assert plan.calls("ODCIIndexClose") == 1


class TestScanFaults:
    """The dispatcher taxonomy as the scan loop surfaces it."""

    def test_transient_fetch_retried(self, db):
        expected = db.execute(QUERY, ["match"]).fetchall()
        with FaultPlan(db) as plan:
            plan.fail_transient("ODCIIndexFetch", times=1)
            rows = db.execute(QUERY, ["match"]).fetchall()
        assert rows == expected
        assert plan.outcomes("ODCIIndexFetch")[0] == "transient"

    def test_budget_timeout_surfaces_typed(self, db):
        db.skip_unusable_indexes = False
        db.dispatcher.set_timeout("ODCIIndexFetch", 0.050)
        with FaultPlan(db) as plan:
            plan.delay("ODCIIndexFetch", ms=200)
            with pytest.raises(CallbackTimeoutError):
                db.execute(QUERY, ["match"]).fetchall()
            assert plan.calls("ODCIIndexClose") == 1

    def test_hard_fetch_failure_degrades_and_retries(self, db):
        expected = db.execute(QUERY, ["match"]).fetchall()
        with FaultPlan(db) as plan:
            plan.fail_on_call("ODCIIndexFetch", nth=1)
            rows = db.execute(QUERY, ["match"]).fetchall()
        # degrade-and-retry: index UNUSABLE, functional fallback answers
        assert sorted(rows) == sorted(expected)
        assert db.catalog.get_index(
            "t_idx").domain.state is IndexState.UNUSABLE
        # the failed scan was opened once and closed exactly once; the
        # functional retry never opened a domain scan
        assert plan.calls("ODCIIndexStart") == 1
        assert plan.calls("ODCIIndexClose") == 1

    def test_degrade_retry_reads_statement_snapshot(self, db):
        """The replanned retry runs against the *pinned* snapshot."""
        other = db.engine.connect()
        with FaultPlan(db) as plan:
            plan.fail_on_call("ODCIIndexFetch", nth=1)
            cursor = db.execute(QUERY, ["match"])  # snapshot pinned here
            # a concurrent commit lands after the snapshot but before
            # the scan faults and the statement replans
            other.execute("INSERT INTO t VALUES (999, 'match')")
            other.execute("COMMIT")
            rows = cursor.fetchall()
        assert rows == [("match",)] * 20  # 20 pre-snapshot matches only
        # a fresh statement (fresh snapshot) sees the concurrent row
        assert len(db.execute(QUERY, ["match"]).fetchall()) == 21

    def test_fetch_failure_propagates_with_skip_off(self, db):
        db.skip_unusable_indexes = False
        with FaultPlan(db) as plan:
            plan.fail_on_call("ODCIIndexFetch", nth=1)
            with pytest.raises(ODCIError):
                db.execute(QUERY, ["match"]).fetchall()
            assert plan.calls("ODCIIndexClose") == 1
        assert db.catalog.get_index(
            "t_idx").domain.state is IndexState.VALID


class TestAbandonedCursor:
    def test_abandoned_cursor_closes_once(self, db):
        with FaultPlan(db) as plan:
            cursor = db.execute(QUERY, ["match"])
            assert cursor.fetchone() is not None
            cursor.close()
            assert plan.calls("ODCIIndexClose") == 1
        # engine still healthy afterwards
        assert len(db.execute(QUERY, ["match"]).fetchall()) == 20


class TestParallelScanFaults:
    """Heap scans run on the calling thread; the morsel knobs are gone."""

    @pytest.fixture
    def scan_db(self):
        db = Engine().connect()
        db.execute("CREATE TABLE big (id INTEGER, val NUMBER)")
        db.insert_rows("big", [[i, i / 1000.0] for i in range(5000)])
        db.execute("ANALYZE TABLE big COMPUTE STATISTICS")
        yield db
        db.close()

    def test_filtered_scan_is_vectorized_not_parallel(self, scan_db):
        text = "\n".join(scan_db.explain(
            "SELECT id FROM big WHERE val < 0.5"))
        assert "[VECTORIZED]" in text
        assert "[PARALLEL" not in text

    @pytest.mark.parametrize("knob", [{"max_dop": 4},
                                      {"parallel_min_pages": 1},
                                      {"parallel_pool_size": 4},
                                      {"compile_expressions": False},
                                      {"vectorized_execution": False},
                                      {"prefetch_depth": 2},
                                      {"prefetch_min_rows": 64}])
    def test_removed_knobs_raise_type_error(self, knob):
        with pytest.raises(TypeError):
            Engine(**knob)

    @pytest.mark.parametrize("setting", [{"max_dop": 2},
                                         {"compile_expressions": False},
                                         {"vectorized_execution": False},
                                         {"prefetch_depth": 0},
                                         {"prefetch_min_rows": 1},
                                         {"parallel_execution": False},
                                         {"deferred_index_maintenance":
                                          True},
                                         {"bulk_index_build": True},
                                         {"batch_index_maintenance":
                                          False}])
    def test_handshake_refuses_removed_settings(self, setting):
        from repro import dbapi
        from repro.server import Server
        with Server() as server:
            with pytest.raises(dbapi.Error, match=next(iter(setting))):
                dbapi.connect(server.url, timeout=10.0, settings=setting)
            assert server.stats.handshake_failures == 1

    def test_every_handshake_setting_is_a_session_attribute(self):
        """The handshake ``setattr``s whitelisted names blindly: a knob
        deleted from ``Session`` but left in the whitelist would be
        accepted and silently ignored."""
        from repro.server.server import SESSION_SETTINGS
        session = Engine().connect()
        assert [name for name in SESSION_SETTINGS
                if name not in vars(session)] == []
        for removed in ("deferred_index_maintenance", "bulk_index_build",
                        "batch_index_maintenance"):
            assert not hasattr(session, removed)

    @pytest.mark.parametrize("setting", [
        {"lock_timeout": "soon"}, {"lock_timeout": -1.0},
        {"lock_timeout": float("nan")}, {"lock_timeout": True},
        {"fetch_batch_size": 0}, {"fetch_batch_size": 2.5},
        {"fetch_batch_size": "32"}, {"skip_unusable_indexes": "no"}])
    def test_handshake_refuses_invalid_setting_values(self, setting):
        """A value the engine would crash on statements later is refused
        where an unknown name is: typed, at the handshake, counted."""
        from repro import dbapi
        from repro.server import Server
        with Server() as server:
            with pytest.raises(dbapi.Error, match=next(iter(setting))):
                dbapi.connect(server.url, timeout=10.0, settings=setting)
            assert server.stats.handshake_failures == 1
            good = dbapi.connect(server.url, timeout=10.0, settings={
                "lock_timeout": 0, "fetch_batch_size": 1,
                "skip_unusable_indexes": False})
            good.close()
            assert server.stats.handshake_failures == 1

    def test_order_by_over_many_pages_matches_interpreter(self, scan_db):
        sql = ("SELECT id, val FROM big WHERE NOT (id = :1)"
               " ORDER BY val DESC, id")
        assert scan_db.catalog.get_table("big").storage.page_count > 8
        ordered = scan_db.execute(sql, [17]).fetchall()
        with interpreter_forced(scan_db):
            assert ordered == scan_db.execute(sql, [17]).fetchall()
        assert len(ordered) == 4999


class ThreadSpyMethods(EqScanMethods):
    """Records the thread each scan routine — and callback SQL issued
    from inside Fetch — runs on."""

    seen = []

    def index_start(self, ia, op_info, query_info, env):
        self.seen.append(("start", threading.get_ident()))
        context = super().index_start(ia, op_info, query_info, env)
        context.table = self._table(ia)
        return context

    def index_fetch(self, context, nrows, env):
        self.seen.append(("fetch", threading.get_ident()))
        # SpyThread runs inside the executor of the callback SELECT
        env.callback.query(
            f"SELECT COUNT(*) FROM {context.table} WHERE SpyThread(v) = 1")
        return super().index_fetch(context, nrows, env)

    def index_close(self, context, env):
        self.seen.append(("close", threading.get_ident()))
        super().index_close(context, env)


class TestScanRunsOnTheCallersThread:
    @pytest.fixture
    def spy_db(self, db):
        ThreadSpyMethods.seen = seen = []
        db.create_function(
            "SpyThread",
            lambda v: seen.append(("callback", threading.get_ident())) or 1)
        db.register_methods("ThreadSpyMethods", ThreadSpyMethods)
        db.execute("CREATE INDEXTYPE SpyType"
                   " FOR Eq_Val(VARCHAR2, VARCHAR2) USING ThreadSpyMethods")
        db.execute("DROP INDEX t_idx")
        db.execute("CREATE INDEX t_spy ON t(v) INDEXTYPE IS SpyType")
        db.execute("CREATE TABLE probes (word VARCHAR2(100))")
        db.execute("INSERT INTO probes VALUES ('match')")
        db.execute("INSERT INTO probes VALUES ('other')")
        db.execute("COMMIT")
        del seen[:]
        return db

    @pytest.mark.parametrize("sql, binds, node", [
        (QUERY, ["match"], "DOMAIN INDEX SCAN"),
        ("SELECT t.id FROM probes p, t WHERE Eq_Val(t.v, p.word) = 1", [],
         "DOMAIN NL JOIN")])
    def test_every_routine_and_callback_on_the_calling_thread(
            self, spy_db, sql, binds, node):
        assert any(node in line for line in spy_db.explain(sql, binds))
        rows = spy_db.execute(sql, binds).fetchall()
        assert len(rows) == (20 if binds else 40)
        seen = ThreadSpyMethods.seen
        assert {kind for kind, __ in seen} == {"start", "fetch", "close",
                                               "callback"}
        assert {ident for __, ident in seen} == {threading.get_ident()}

    def test_domain_scans_start_no_threads(self, spy_db):
        before = threading.active_count()
        failures = []

        def worker():
            try:
                session = spy_db.engine.connect()
                for __ in range(13):  # 8 sessions x 13 > 100 scans
                    assert len(session.execute(
                        QUERY, ["match"]).fetchall()) == 20
                    assert threading.active_count() <= before + 8
                session.close()
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=worker) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures[:1]
        assert threading.active_count() == before
        # every routine ran on one of the eight session threads
        idents = {thread.ident for thread in threads}
        assert {ident for __, ident in ThreadSpyMethods.seen} <= idents
        assert sum(kind == "start"
                   for kind, __ in ThreadSpyMethods.seen) == 8 * 13


def test_thread_inventory():
    """The engine starts no thread: a commit is made durable on the
    committing session's own thread.  The only threads repro starts are
    the server's accept loop and its handlers.  Starting one anywhere
    else in ``src/repro`` is a reviewed decision: extend this set in the
    same change."""
    import pathlib
    import re
    import repro
    starts_thread = re.compile(
        r"Thread\(|ThreadPoolExecutor|start_new_thread")
    root = pathlib.Path(repro.__file__).parent
    found = {path.relative_to(root).as_posix()
             for path in root.rglob("*.py")
             if starts_thread.search(path.read_text("utf-8"))}
    found = {name for name in found if not name.startswith("testing/")}
    assert found == {"server/server.py"}


def test_durable_engine_leaves_the_thread_set_alone(tmp_path):
    """Opening a durable engine, committing on it and closing it starts
    no thread and leaves none behind."""
    before = set(threading.enumerate())
    engine = Engine(data_dir=str(tmp_path / "data"))
    assert set(threading.enumerate()) == before
    session = engine.connect()
    session.execute("CREATE TABLE t (id NUMBER, v VARCHAR2(10))")
    for i in range(20):
        session.execute("INSERT INTO t VALUES (:1, 'a')", [i])
    session.begin()
    session.execute("UPDATE t SET v = 'b' WHERE id < 10")
    session.execute("DELETE FROM t WHERE id >= 15")
    session.commit()
    assert set(threading.enumerate()) == before
    session.close()
    engine.close()
    assert set(threading.enumerate()) == before
