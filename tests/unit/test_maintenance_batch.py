"""Array maintenance: dispatcher batches, queues, executemany, rollback.

Covers the statement-scoped maintenance queue end to end at unit
granularity: ``CallbackDispatcher.call_batch`` (native array routine vs
the scalar compatibility shim), the per-index maintenance counters and
batch-size histogram, ``executemany`` rowcounts, the one-entry-per-rowid
contract of an update batch, and index state after ``ROLLBACK``.
"""

import pytest

from repro import Database
from repro.core.dispatch import CallbackDispatcher, _batch_size_bucket
from repro.core.odci import FetchResult, IndexMethods
from repro.errors import CallbackError, ODCIError


class _FakeIA:
    index_name = "fake_idx"


class _FakeEnv:
    trace_enabled = False

    def trace(self, message):
        pass


class TestCallBatch:
    def _dispatcher(self):
        return CallbackDispatcher(db=None)

    def test_native_invokes_once_with_whole_batch(self):
        dispatcher = self._dispatcher()
        calls = []
        entries = [("rid1", ["a"]), ("rid2", ["b"]), ("rid3", ["c"])]
        n = dispatcher.call_batch(
            "ODCIIndexInsertBatch", "ODCIIndexInsert",
            lambda ia, batch, env: calls.append(batch),
            _FakeIA(), entries, _FakeEnv(), native=True,
            index_name="fake_idx")
        assert n == 3
        assert calls == [entries]
        stats = dispatcher.maintenance_for("fake_idx").snapshot()
        assert stats["entries_flushed"] == 3
        assert stats["batches_flushed"] == 1
        assert stats["native_batches"] == 1
        assert stats["shim_batches"] == 0
        assert stats["max_batch"] == 3
        assert stats["histogram"] == {"2-3": 1}
        # the array routine is what got invoked, exactly once
        assert dispatcher.metrics["ODCIIndexInsertBatch"].invocations == 1
        assert "ODCIIndexInsert" not in dispatcher.metrics

    def test_shim_loops_scalar_routine_per_entry(self):
        dispatcher = self._dispatcher()
        calls = []
        entries = [("rid1", ["a"]), ("rid2", ["b"])]
        n = dispatcher.call_batch(
            "ODCIIndexInsertBatch", "ODCIIndexInsert",
            lambda ia, rowid, vals, env: calls.append((rowid, vals)),
            _FakeIA(), entries, _FakeEnv(), native=False,
            index_name="fake_idx")
        assert n == 2
        assert calls == [("rid1", ["a"]), ("rid2", ["b"])]
        stats = dispatcher.maintenance_for("fake_idx").snapshot()
        assert stats["shim_batches"] == 1
        assert stats["native_batches"] == 0
        # per-entry scalar invocations, no array-routine invocation
        assert dispatcher.metrics["ODCIIndexInsert"].invocations == 2
        assert "ODCIIndexInsertBatch" not in dispatcher.metrics

    def test_empty_batch_is_a_no_op(self):
        dispatcher = self._dispatcher()
        n = dispatcher.call_batch(
            "ODCIIndexInsertBatch", "ODCIIndexInsert",
            lambda *a: pytest.fail("must not be invoked"),
            _FakeIA(), [], _FakeEnv(), native=True, index_name="fake_idx")
        assert n == 0
        assert dispatcher.maintenance == {}
        assert dispatcher.metrics == {}

    def test_shim_failure_classified_per_entry(self):
        dispatcher = self._dispatcher()
        applied = []

        def scalar(ia, rowid, vals, env):
            if rowid == "rid2":
                raise ODCIError("boom")
            applied.append(rowid)

        with pytest.raises(CallbackError) as info:
            dispatcher.call_batch(
                "ODCIIndexInsertBatch", "ODCIIndexInsert", scalar,
                _FakeIA(), [("rid1", ["a"]), ("rid2", ["b"]),
                            ("rid3", ["c"])],
                _FakeEnv(), native=False, index_name="fake_idx")
        assert info.value.index_name == "fake_idx"
        # entries before the fault were genuinely applied (shim mode)
        assert applied == ["rid1"]
        # the failed batch never reaches the maintenance counters
        assert "fake_idx" not in dispatcher.maintenance

    def test_histogram_buckets_are_powers_of_two(self):
        assert [_batch_size_bucket(s) for s in (1, 2, 3, 4, 7, 8, 100)] \
            == ["1", "2-3", "2-3", "4-7", "4-7", "8-15", "64-127"]


@pytest.fixture
def docs_db(text_db):
    text_db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
    text_db.execute("CREATE INDEX docs_text ON docs(body)"
                    " INDEXTYPE IS TextIndexType")
    return text_db


class TestQueueCounters:
    def test_one_statement_one_flush(self, docs_db):
        docs_db.insert_rows("docs", [[i, f"alpha beta w{i}"]
                                     for i in range(8)])
        stats = docs_db.dispatcher.maintenance_snapshot()["docs_text"]
        assert stats["entries_queued"] == 8
        assert stats["entries_flushed"] == 8
        assert stats["batches_flushed"] == 1
        assert stats["max_batch"] == 8
        # the text cartridge implements the array routine
        assert stats["native_batches"] == 1

    def test_per_row_seed_path_bypasses_queue(self, docs_db):
        docs_db.batch_index_maintenance = False
        docs_db.insert_rows("docs", [[i, f"alpha w{i}"] for i in range(4)])
        assert "docs_text" not in docs_db.dispatcher.maintenance_snapshot()
        metrics = docs_db.dispatcher.snapshot()
        assert metrics["ODCIIndexInsert"]["invocations"] == 4

    def test_dictionary_view_reports_counters(self, docs_db):
        docs_db.insert_rows("docs", [[i, f"alpha w{i}"] for i in range(5)])
        rows = docs_db.execute(
            "SELECT index_name, entries_queued, entries_flushed,"
            " batches_flushed, native_batches"
            " FROM user_index_maintenance").fetchall()
        assert ("docs_text", 5, 5, 1, 1) in rows

    def test_counters_die_with_the_index(self, docs_db):
        view = ("SELECT index_name, entries_queued"
                " FROM user_index_maintenance")
        docs_db.insert_rows("docs", [[i, f"alpha w{i}"] for i in range(5)])
        assert ("docs_text", 5) in docs_db.execute(view).fetchall()
        docs_db.execute("DROP INDEX docs_text")
        assert docs_db.execute(view).fetchall() == []
        # a recreated index starts from zero, not from the dead one's sum
        docs_db.execute("CREATE INDEX docs_text ON docs(body)"
                        " INDEXTYPE IS TextIndexType")
        docs_db.insert_rows("docs", [[9, "alpha w9"]])
        assert docs_db.execute(view).fetchall() == [("docs_text", 1)]
        # DROP TABLE takes its indexes' records with it
        docs_db.execute("DROP TABLE docs")
        assert docs_db.execute(view).fetchall() == []


class TestExecutemanyRowcounts:
    def test_insert_rowcount_exact(self, docs_db):
        cursor = docs_db.executemany(
            "INSERT INTO docs VALUES (:1, :2)",
            [[i, f"alpha w{i}"] for i in range(7)])
        assert cursor.rowcount == 7
        assert docs_db.execute(
            "SELECT COUNT(*) FROM docs").fetchall() == [(7,)]
        stats = docs_db.dispatcher.maintenance_snapshot()["docs_text"]
        assert stats["batches_flushed"] == 1
        assert stats["max_batch"] == 7

    def test_empty_sequence(self, docs_db):
        cursor = docs_db.executemany("INSERT INTO docs VALUES (:1, :2)", [])
        assert cursor.rowcount == 0
        assert docs_db.execute(
            "SELECT COUNT(*) FROM docs").fetchall() == [(0,)]

    def test_update_and_delete_rowcounts_sum(self, docs_db):
        docs_db.executemany("INSERT INTO docs VALUES (:1, :2)",
                            [[i, f"alpha w{i}"] for i in range(6)])
        cursor = docs_db.executemany(
            "UPDATE docs SET body = :1 WHERE id = :2",
            [[f"beta w{i}", i] for i in range(4)])
        assert cursor.rowcount == 4
        cursor = docs_db.executemany(
            "DELETE FROM docs WHERE id = :1", [[0], [1], [99]])
        assert cursor.rowcount == 2  # id 99 matches nothing
        assert docs_db.execute(
            "SELECT COUNT(*) FROM docs").fetchall() == [(4,)]

    def test_batched_results_match_looped(self, text_db):
        text_db.execute(
            "CREATE TABLE d2 (id INTEGER, body VARCHAR2(200))")
        text_db.execute("CREATE INDEX d2_text ON d2(body)"
                        " INDEXTYPE IS TextIndexType")
        sets = [[i, f"omega gamma w{i}"] for i in range(5)]
        text_db.executemany("INSERT INTO d2 VALUES (:1, :2)", sets)
        batched = sorted(text_db.execute(
            "SELECT id FROM d2 WHERE Contains(body, 'omega')").fetchall())
        text_db.execute("DELETE FROM d2")
        text_db.batch_index_maintenance = False
        for params in sets:
            text_db.execute("INSERT INTO d2 VALUES (:1, :2)", params)
        looped = sorted(text_db.execute(
            "SELECT id FROM d2 WHERE Contains(body, 'omega')").fetchall())
        assert batched == looped == [(i,) for i in range(5)]


class TestRollback:
    def test_rollback_discards_entries(self, docs_db):
        docs_db.begin()
        docs_db.insert_rows("docs", [[1, "quixotic alpha"]])
        # the statement flushed its own entries: the index already
        # answers for the uncommitted row
        stats = docs_db.dispatcher.maintenance_snapshot()["docs_text"]
        assert stats["entries_queued"] == stats["entries_flushed"] == 1
        assert docs_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'quixotic')"
        ).fetchall() == [(1,)]
        docs_db.rollback()
        # the index answers consistently with the (empty) base table
        assert docs_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'quixotic')"
        ).fetchall() == []
        # and a later committed write still works
        docs_db.insert_rows("docs", [[2, "quixotic beta"]])
        assert docs_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'quixotic')"
        ).fetchall() == [(2,)]


class RecordingMethods(IndexMethods):
    """Indexes nothing; records the rowids of every update batch.  An
    update batch on ``docs`` issues callback DML against ``audit``,
    which carries an index of the same type."""

    calls = []

    def index_create(self, ia, parameters, env):
        pass

    def index_drop(self, ia, env):
        pass

    def index_insert(self, ia, rowid, new_values, env):
        pass

    def index_delete(self, ia, rowid, old_values, env):
        pass

    def index_update_batch(self, ia, entries, env):
        self.calls.append(
            (ia.index_name.lower(), [rowid for rowid, __, __ in entries]))
        if ia.table_name.lower() == "docs":
            env.callback.execute("UPDATE audit SET note = note || '!'")

    def index_start(self, ia, op_info, query_info, env):
        return None

    def index_fetch(self, context, nrows, env):
        return FetchResult(done=True)

    def index_close(self, context, env):
        pass


class TestUpdateBatchContract:
    @pytest.fixture
    def rec_db(self, db):
        RecordingMethods.calls = []
        db.create_function("RecFunc", lambda v, probe: 0)
        db.register_methods("RecordingMethods", RecordingMethods)
        db.execute("CREATE OPERATOR Rec BINDING (VARCHAR2, VARCHAR2)"
                   " RETURN NUMBER USING RecFunc")
        db.execute("CREATE INDEXTYPE RecType"
                   " FOR Rec(VARCHAR2, VARCHAR2) USING RecordingMethods")
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(100))")
        db.execute("CREATE TABLE audit (id INTEGER, note VARCHAR2(100))")
        db.insert_rows("docs", [[i, f"doc {i}"] for i in range(6)])
        db.insert_rows("audit", [[i, f"note {i}"] for i in range(3)])
        db.execute("CREATE INDEX docs_rec ON docs(body)"
                   " INDEXTYPE IS RecType")
        db.execute("CREATE INDEX audit_rec ON audit(note)"
                   " INDEXTYPE IS RecType")
        return db

    def test_each_rowid_once_per_call_in_row_order(self, rec_db):
        """One queue per statement: an array routine may delete for the
        whole batch before it inserts for the whole batch."""
        rowid_of = dict(rec_db.execute(
            "SELECT id, rowid FROM docs").fetchall())
        rec_db.execute("UPDATE docs SET body = body || ' x' WHERE id < 4")
        rec_db.executemany("UPDATE docs SET body = :1 WHERE id <= :2",
                           [["first", 2], ["second", 2], ["third", 1]])
        calls = RecordingMethods.calls
        docs_calls = [rowids for name, rowids in calls if name == "docs_rec"]
        # one call per statement execution (executemany runs per set)
        assert docs_calls == [[rowid_of[i] for i in range(4)],
                              [rowid_of[i] for i in range(3)],
                              [rowid_of[i] for i in range(3)],
                              [rowid_of[i] for i in range(2)]]
        # the callback UPDATE flushed at its own level, once per outer
        # call, and never saw the outer statement's entries
        audit_calls = [rowids for name, rowids in calls
                       if name == "audit_rec"]
        assert len(audit_calls) == len(docs_calls)
        for __, rowids in calls:
            assert len(set(rowids)) == len(rowids)
        assert {len(rowids) for rowids in audit_calls} == {3}
