"""MVCC stress: 8 writer threads vs concurrent readers, zero reader locks.

Writers run explicit transactions that must look atomic: a two-row
balance transfer (total is invariant), note rewrites that always contain
the word 'alpha', and shape moves that always stay inside a fixed
window.  Readers — plain sessions on the same engine — continuously run
aggregate and domain-index queries and assert the invariants on every
single result: a reader can never observe a half-committed transfer, a
note mid-rewrite, or a row count in motion.

The non-blocking claim is checked structurally: the engine's
LockManager.acquire is wrapped, and no reader thread may call it at all
(writers keep locking exactly as before).
"""

import gc
import random
import sys
import threading

import pytest

from repro.cartridges.spatial import install as install_spatial
from repro.cartridges.spatial import make_rect
from repro.cartridges.text import install as install_text
from repro.txn.mvcc import VersionStore

pytestmark = [pytest.mark.concurrency, pytest.mark.mvcc]

N_WRITERS = 8
N_READERS = 4
WRITER_TXNS = 40
READER_QUERIES = 60
N_ACCOUNTS = 16
TOTAL = N_ACCOUNTS * 100


def _note(rng):
    return "alpha " + " ".join(
        rng.sample(["bravo", "carbon", "delta", "ember", "falcon"], 2))


def _shape(rng, gt):
    # always strictly inside the (0,0)-(900,900) reader window
    x, y = rng.uniform(50, 700), rng.uniform(50, 700)
    return make_rect(gt, x, y, x + 50, y + 50)


@pytest.fixture
def stress_engine(engine):
    setup = engine.connect()
    install_text(setup)
    install_spatial(setup)
    setup.execute("CREATE TABLE accounts (id INTEGER, amount INTEGER,"
                  " note VARCHAR2(120), shape SDO_GEOMETRY)")
    gt = setup.catalog.get_object_type("SDO_GEOMETRY")
    rng = random.Random(42)
    for i in range(N_ACCOUNTS):
        setup.insert_row("accounts", [i, 100, _note(rng), _shape(rng, gt)])
    setup.execute("CREATE INDEX acc_tidx ON accounts(note)"
                  " INDEXTYPE IS TextIndexType")
    setup.execute("CREATE INDEX acc_sidx ON accounts(shape)"
                  " INDEXTYPE IS SpatialIndexType")
    return engine


class _Writer:
    def __init__(self, engine, tid):
        self.session = engine.connect()
        self.gt = self.session.catalog.get_object_type("SDO_GEOMETRY")
        self.rng = random.Random(5000 + tid)
        self.error = None

    def run(self):
        try:
            for __ in range(WRITER_TXNS):
                self._one_txn()
        except BaseException as exc:
            self.error = exc

    def _one_txn(self):
        rng, s = self.rng, self.session
        a, b = rng.sample(range(N_ACCOUNTS), 2)
        delta = rng.randrange(1, 50)
        s.begin()
        s.execute("UPDATE accounts SET amount = amount - :1 WHERE id = :2",
                  [delta, a])
        if rng.random() < 0.4:
            s.execute("UPDATE accounts SET note = :1 WHERE id = :2",
                      [_note(rng), a])
        if rng.random() < 0.3:
            s.execute("UPDATE accounts SET shape = :1 WHERE id = :2",
                      [_shape(rng, self.gt), b])
        s.execute("UPDATE accounts SET amount = amount + :1 WHERE id = :2",
                  [delta, b])
        s.commit()


class _Reader:
    def __init__(self, engine, tid, window):
        self.session = engine.connect()
        self.rng = random.Random(7000 + tid)
        self.window = window
        self.error = None
        self.queries = 0

    def run(self):
        try:
            for __ in range(READER_QUERIES):
                self._one_query()
                self.queries += 1
        except BaseException as exc:
            self.error = exc

    def _one_query(self):
        s, r = self.session, self.rng.random()
        if r < 0.4:
            total, count = s.execute(
                "SELECT SUM(amount), COUNT(*) FROM accounts").fetchall()[0]
            assert count == N_ACCOUNTS, f"row count in motion: {count}"
            assert total == TOTAL, f"saw half a transfer: {total}"
        elif r < 0.7:
            rows = s.execute("SELECT id FROM accounts WHERE"
                             " Contains(note, 'alpha')").fetchall()
            assert len(rows) == N_ACCOUNTS, \
                f"text scan saw a note mid-rewrite: {len(rows)}"
        else:
            rows = s.execute(
                "SELECT id FROM accounts WHERE Sdo_Relate(shape, :1,"
                " 'mask=ANYINTERACT')", [self.window]).fetchall()
            assert len(rows) == N_ACCOUNTS, \
                f"spatial scan saw a shape mid-move: {len(rows)}"


class TestMVCCStress:
    def test_readers_never_block_and_always_consistent(self, stress_engine):
        engine = stress_engine
        gt = engine.connect().catalog.get_object_type("SDO_GEOMETRY")
        window = make_rect(gt, 0, 0, 900, 900)

        # structural non-blocking proof: record which threads ever enter
        # the lock manager (the Thread objects: an ident is handed to
        # the next thread once its owner has finished)
        locking_threads = set()
        real_acquire = engine.locks.acquire

        def spying_acquire(*args, **kwargs):
            locking_threads.add(threading.current_thread())
            return real_acquire(*args, **kwargs)

        engine.locks.acquire = spying_acquire
        try:
            writers = [_Writer(engine, i) for i in range(N_WRITERS)]
            readers = [_Reader(engine, i, window) for i in range(N_READERS)]
            threads = (
                [threading.Thread(target=w.run) for w in writers]
                + [threading.Thread(target=r.run) for r in readers])
            reader_threads = set(threads[N_WRITERS:])
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            engine.locks.acquire = real_acquire

        for agent in writers + readers:
            if agent.error is not None:
                raise agent.error
        assert all(r.queries == READER_QUERIES for r in readers)
        # no reader thread ever touched the lock manager
        assert not (reader_threads & locking_threads), \
            "a reader thread acquired a lock"
        # writers did lock (writer-writer behaviour unchanged)
        assert locking_threads
        # and the final state is intact
        check = engine.connect()
        total, count = check.execute(
            "SELECT SUM(amount), COUNT(*) FROM accounts").fetchall()[0]
        assert (total, count) == (TOTAL, N_ACCOUNTS)
        assert engine.locks.stats.deadlocks == 0


# ---------------------------------------------------------------------------
# readers vs writers that roll back vs the pruner
# ---------------------------------------------------------------------------
#
# The store unmaps a rowid in two places — ``pop`` of a first insert that
# rolls back, and a prune pass forgetting a settled chain — and a reader
# between its slot read and its chain lookup must notice either one
# (``VersionStore.read`` compares the store's epoch).  Everything a
# transaction writes here carries SENTINEL until its last statements
# before COMMIT, and half the transactions roll back instead: a sentinel
# in any result is an uncommitted or rolled-back value that got out.

SENTINEL = "uncommitted"
CHURN_ROWS = 24
CHURN_TOTAL = CHURN_ROWS * 100
CHURN_SECONDS = 3.0
PAD = "x" * 900


@pytest.fixture
def churn_engine(engine):
    setup = engine.connect()
    install_text(setup)
    for table in ("acct", "notes"):
        # padded: a few rows a page, so the heaps span pages and the
        # planner takes the B-tree for a narrow range
        setup.execute(f"CREATE TABLE {table} (id INTEGER, amount INTEGER,"
                      f" body VARCHAR2(60), pad VARCHAR2(1000))")
        for i in range(CHURN_ROWS):
            setup.execute(f"INSERT INTO {table} VALUES (:1, 100, :2, :3)",
                          [i, f"alpha settled w{i % 5}", PAD])
    setup.execute("CREATE INDEX acct_id ON acct(id)")
    setup.execute("CREATE INDEX notes_tidx ON notes(body)"
                  " INDEXTYPE IS TextIndexType")
    return engine


class _Churner:
    """The one writer of ``table``: transfers, inserts and deletes that
    keep SUM(amount), each written with SENTINEL in ``body`` and cleaned
    just before COMMIT — or rolled back, on a coin flip."""

    def __init__(self, engine, table, seed, stop):
        self.session = engine.connect()
        self.table, self.stop = table, stop
        self.rng = random.Random(seed)
        self.amounts = {i: 100 for i in range(CHURN_ROWS)}
        self.next_id = CHURN_ROWS
        self.commits = self.rollbacks = 0
        self.error = None

    def run(self):
        try:
            while not self.stop.is_set():
                self._one_txn()
        except BaseException as exc:
            self.error = exc
            self.stop.set()

    def _one_txn(self):
        rng, s, t = self.rng, self.session, self.table
        after = dict(self.amounts)
        dirty = f"alpha {SENTINEL}"
        s.begin()
        touched = set()
        for __ in range(rng.randrange(1, 4)):
            op = rng.random()
            a = rng.choice(sorted(after))
            if op < 0.5 and len(after) > 1:
                b = rng.choice(sorted(set(after) - {a}))
                delta = rng.randrange(1, 30)
                s.execute(f"UPDATE {t} SET amount = amount - :1, body = :2"
                          f" WHERE id = :3", [delta, dirty, a])
                s.execute(f"UPDATE {t} SET amount = amount + :1, body = :2"
                          f" WHERE id = :3", [delta, dirty, b])
                after[a] -= delta
                after[b] += delta
                touched |= {a, b}
            elif op < 0.8 or len(after) <= CHURN_ROWS // 2:
                new, delta = self.next_id, rng.randrange(1, 30)
                self.next_id += 1
                s.execute(f"INSERT INTO {t} VALUES (:1, :2, :3, :4)",
                          [new, delta, dirty, PAD])
                s.execute(f"UPDATE {t} SET amount = amount - :1, body = :2"
                          f" WHERE id = :3", [delta, dirty, a])
                after[new] = delta
                after[a] -= delta
                touched |= {a, new}
            else:
                b = rng.choice(sorted(set(after) - {a}))
                s.execute(f"UPDATE {t} SET amount = amount + :1, body = :2"
                          f" WHERE id = :3", [after[a], dirty, b])
                s.execute(f"DELETE FROM {t} WHERE id = :1", [a])
                after[b] += after.pop(a)
                touched.add(b)
                touched.discard(a)
        if rng.random() < 0.5:
            s.rollback()
            self.rollbacks += 1
            return
        for ident in sorted(touched & set(after)):
            s.execute(f"UPDATE {t} SET body = :1 WHERE id = :2",
                      [f"alpha settled w{ident % 5}", ident])
        s.commit()
        self.amounts = after
        self.commits += 1


def _check(rows, what):
    """``rows`` are (amount, body) pairs of one snapshot of one table."""
    assert not any(SENTINEL in body for __, body in rows), \
        f"{what}: an uncommitted row got out"
    total = sum(amount for amount, __ in rows)
    assert total == CHURN_TOTAL, f"{what}: saw half a transaction: {total}"


class _ChurnReader:
    def __init__(self, engine, seed, stop, pinned):
        self.engine, self.stop, self.pinned = engine, stop, pinned
        self.session = engine.connect()
        self.rng = random.Random(seed)
        self.heap = engine.catalog.get_table("acct").storage
        self.reads = 0
        self.error = None

    def run(self):
        try:
            while not self.stop.is_set():
                if self.pinned:
                    self._pinned_round()
                else:
                    self._answers(self.session)
                    self._storage_fetch_batch()
                self.reads += 1
        except BaseException as exc:
            self.error = exc
            self.stop.set()

    def _answers(self, s):
        """Every read shape once; returns what a pinned snapshot must
        see again."""
        acct = s.execute("SELECT amount, body, id FROM acct").fetchall()
        _check([row[:2] for row in acct], "heap full scan")
        low = self.rng.randrange(CHURN_ROWS)
        probe = s.execute("SELECT amount, body FROM acct WHERE id BETWEEN"
                          " :1 AND :2", [low, low + 4]).fetchall()
        assert not any(SENTINEL in body for __, body in probe), \
            "B-tree range probe: an uncommitted row got out"
        notes = s.execute("SELECT amount, body, id FROM notes").fetchall()
        _check([row[:2] for row in notes], "text-indexed full scan")
        hits = s.execute("SELECT amount, body, id FROM notes WHERE"
                         " Contains(body, 'alpha')").fetchall()
        _check([row[:2] for row in hits], "Contains")
        assert s.execute("SELECT id FROM notes WHERE Contains(body, :1)",
                         [SENTINEL]).fetchall() == [], \
            "Contains found an uncommitted posting's row"
        postings = s.execute("SELECT COUNT(*) FROM notes_tidx_terms"
                             " WHERE token = :1", [SENTINEL]).fetchall()
        assert postings == [(0,)], "IOT prefix scan: an uncommitted posting"
        return sorted(acct), sorted(notes), sorted(hits)

    def _storage_fetch_batch(self):
        """``fetch_batch`` of every slot address equals the full scan:
        the sum invariant through the rowid path (a SQL index probe
        cannot carry it — native index entries are current-mode)."""
        heap = self.heap
        snapshot = self.engine.mvcc.take_snapshot(None)
        rowids = []
        for page_no in range(heap.page_count):
            # read as the scan reads: a page a rolled-back append
            # dropped meanwhile is gone, and holds no row to list
            page = heap._page(page_no)
            if page is not None:
                rowids += [(heap.segment_id, page_no, slot)
                           for slot in range(len(page.slots))]
        __, rows = heap.fetch_batch(rowids, snapshot)
        _check([(row[1], row[2]) for row in rows], "heap fetch_batch")

    def _pinned_round(self):
        s = self.session
        s.execute("SET TRANSACTION READ ONLY")
        first = self._answers(s)
        for __ in range(3):
            assert self._answers(s) == first, \
                "a pinned READ ONLY transaction changed its answer"
        s.commit()


def _churn(engine, seconds):
    """Run the whole cast for ``seconds`` (or until someone fails);
    returns (errors, agents)."""
    stop = threading.Event()
    churners = [_Churner(engine, "acct", 1, stop),
                _Churner(engine, "notes", 2, stop)]
    readers = [_ChurnReader(engine, 10 + i, stop, pinned=(i == 0))
               for i in range(3)]

    def prune():
        while not stop.is_set():
            engine.prune_versions()

    threads = [threading.Thread(target=agent.run)
               for agent in churners + readers]
    threads.append(threading.Thread(target=prune))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        stop.wait(seconds)
        stop.set()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    errors = [agent.error for agent in churners + readers
              if agent.error is not None]
    return errors, churners, readers


class TestReadersVersusRollbackAndPrune:
    def test_no_sentinel_sum_holds_pinned_answers_repeat(self, churn_engine):
        engine = churn_engine
        plan = engine.connect()
        assert "INDEX RANGE SCAN" in "".join(plan.explain(
            "SELECT amount FROM acct WHERE id BETWEEN 3 AND 7"))
        assert "IOT PREFIX SCAN" in "".join(plan.explain(
            "SELECT COUNT(*) FROM notes_tidx_terms WHERE token = 'x'"))
        errors, churners, readers = _churn(engine, CHURN_SECONDS)
        for error in errors:
            raise error
        assert all(c.commits and c.rollbacks for c in churners)
        assert all(r.reads for r in readers)
        assert engine.mvcc.stats.heads_forgotten
        # quiesced (finished statements' snapshots die with their
        # reference cycles): one pass leaves nothing mapped or ghosted
        del readers
        gc.collect()
        engine.prune_versions()
        for table in engine.catalog.tables.values():
            versions = getattr(table.storage, "versions", None)
            if versions is not None:
                assert versions.tracked_rowids() == [] and versions.clean
                assert getattr(table.storage, "ghost_count", 0) == 0
        final = engine.connect()
        for table, churner in zip(("acct", "notes"), churners):
            rows = final.execute(
                f"SELECT id, amount FROM {table}").fetchall()
            assert dict(rows) == churner.amounts

    def test_it_fails_without_the_epoch_comparison(self, churn_engine,
                                                   monkeypatch):
        """The teeth: with ``VersionStore.read`` reduced to one attempt
        — the epoch comparison always "succeeds" — a reader returns
        rolled-back data well inside the time the real run gets."""
        monkeypatch.setattr(VersionStore, "read",
                            lambda self, body, snapshot: body())
        errors, __, __ = _churn(churn_engine, 10 * CHURN_SECONDS)
        assert errors and all(isinstance(e, AssertionError)
                              for e in errors), errors
