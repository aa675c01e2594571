"""Sessions sharing one cached *compiled* plan must not cross-contaminate.

Generated factories attached to a cached plan take the execution's
bind set as an argument (bind-slot hoisting) — so two sessions
soft-parsing the same statement concurrently, with different bind
values, must each see exactly their own results even though every
factory object is shared.
"""

import threading

import pytest

from repro.testing import interpreter_forced

pytestmark = pytest.mark.concurrency

ROWS = 200
SQL = "SELECT id FROM nums WHERE id < :1 AND id >= :2 ORDER BY id"


@pytest.fixture
def loaded_engine(engine):
    setup = engine.connect()
    setup.execute("CREATE TABLE nums (id NUMBER)")
    for i in range(ROWS):
        setup.execute("INSERT INTO nums VALUES (:1)", [i])
    return engine


class TestSharedCompiledPlan:
    def test_sessions_share_one_compiled_plan(self, loaded_engine):
        s1 = loaded_engine.connect()
        s2 = loaded_engine.connect()
        s1.execute(SQL, [10, 0]).fetchall()
        hits_before = loaded_engine.plan_cache.stats.hits
        assert s2.execute(SQL, [5, 0]).fetchall() == [(i,) for i in range(5)]
        assert loaded_engine.plan_cache.stats.hits == hits_before + 1

    def test_concurrent_binds_do_not_cross_contaminate(self, loaded_engine):
        """Many threads hammer the same cached compiled plan, each with
        its own bind values; every result must match its own binds."""
        sessions = [loaded_engine.connect() for __ in range(6)]
        sessions[0].execute(SQL, [1, 0]).fetchall()  # warm the cache
        errors = []
        barrier = threading.Barrier(len(sessions))

        def worker(session, lane):
            try:
                barrier.wait(timeout=30)
                for round_no in range(40):
                    high = lane * 20 + (round_no % 7) + 2
                    low = lane * 3
                    rows = session.execute(SQL, [high, low]).fetchall()
                    expected = [(i,) for i in range(low, min(high, ROWS))]
                    if rows != expected:
                        errors.append(
                            (lane, round_no, rows[:5], expected[:5]))
                        return
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((lane, repr(exc)))

        threads = [threading.Thread(target=worker, args=(s, lane))
                   for lane, s in enumerate(sessions)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        stats = loaded_engine.plan_cache.stats
        assert stats.hits >= len(sessions) * 40 - 1  # one shared entry

    def test_interpreter_seam_is_per_session(self, loaded_engine):
        """A session forced onto the interpreter still executes a shared
        plan that carries generated functions — ignoring them — and gets
        identical rows; its neighbour is unaffected."""
        fast = loaded_engine.connect()
        slow = loaded_engine.connect()
        expected = [(i,) for i in range(3, 9)]
        with interpreter_forced(slow):
            assert fast.execute(SQL, [9, 3]).fetchall() == expected
            assert slow.execute(SQL, [9, 3]).fetchall() == expected

    def test_racing_first_calls_each_get_the_factory(self):
        """Two sessions making the first call of one shared factory both
        byte-compile and run its source.  The source here holds both
        threads right after ``_factory`` is defined, the widest form of
        that race: each call must still get a working function."""
        from repro.sql.compile import _exec_factory, _KernelCodegen
        gen = _KernelCodegen({})
        barrier = threading.Barrier(2)
        gen.env["_both_defined"] = lambda: barrier.wait(timeout=10)
        factory = _exec_factory(gen, [
            "def _factory(binds):", "    return len(binds)",
            "_both_defined()"], "<race>")
        results = []

        def first_call():
            try:
                results.append(factory([1, 2]))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                results.append(repr(exc))

        threads = [threading.Thread(target=first_call) for __ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert results == [2, 2]
