"""Multi-session stress: mixed DML + queries over domain-indexed tables.

Eight sessions (one per thread) run 200 statements each against one
table carrying both a text index and a spatial index.  Writers
autocommit — the table X lock serializes read-modify-write statements —
while readers run short explicit transactions taking S locks.  The test
then checks the properties the Engine/Session split must guarantee:

* no lost updates: a shared counter row equals the number of successful
  increment statements across all threads;
* no lost/phantom rows: the surviving ids equal the per-thread models;
* VALIDATE-style index consistency: both domain indexes answer exactly
  like a functional recompute over the final table, and the text
  index's terms table references exactly the live rowids.
"""

import random
import sys
import threading

import pytest

from repro.cartridges.spatial import install as install_spatial
from repro.cartridges.spatial import make_rect
from repro.cartridges.spatial.indextype import sdo_relate_functional
from repro.cartridges.text import install as install_text
from repro.cartridges.text.indextype import text_contains

pytestmark = pytest.mark.concurrency

N_THREADS = 8
N_STATEMENTS = 200
WORDS = ["alpha", "bravo", "carbon", "delta", "ember",
         "falcon", "granite", "harbor"]
SEED_IDS = range(1, 25)


def _note(rng):
    return " ".join(rng.sample(WORDS, 2))


def _shape(rng, gt):
    x = rng.uniform(0, 900)
    y = rng.uniform(0, 900)
    return make_rect(gt, x, y, x + rng.uniform(10, 100),
                     y + rng.uniform(10, 100))


@pytest.fixture
def stress_engine(engine):
    setup = engine.connect()
    install_text(setup)
    install_spatial(setup)
    setup.execute("CREATE TABLE items (id INTEGER, val INTEGER,"
                  " note VARCHAR2(120), shape SDO_GEOMETRY)")
    gt = setup.catalog.get_object_type("SDO_GEOMETRY")
    rng = random.Random(7)
    setup.insert_row("items", [0, 0, "counter", _shape(rng, gt)])
    for seed_id in SEED_IDS:
        setup.insert_row("items", [seed_id, 0, _note(rng), _shape(rng, gt)])
    setup.execute("CREATE INDEX items_tidx ON items(note)"
                  " INDEXTYPE IS TextIndexType")
    setup.execute("CREATE INDEX items_sidx ON items(shape)"
                  " INDEXTYPE IS SpatialIndexType")
    return engine


class _Worker:
    """One thread: its own session, its own rows, deterministic op mix."""

    def __init__(self, engine, tid):
        self.session = engine.connect()
        self.gt = self.session.catalog.get_object_type("SDO_GEOMETRY")
        self.rng = random.Random(1000 + tid)
        self.tid = tid
        self.next_id = 1
        self.live = []          # ids of own rows still in the table
        self.increments = 0
        self.error = None

    def run(self):
        try:
            for __ in range(N_STATEMENTS):
                self._one_statement()
        except BaseException as exc:  # surfaced by the main thread
            self.error = exc

    def _one_statement(self):
        r = self.rng.random()
        if r < 0.30:
            self._increment()
        elif r < 0.55:
            self._insert()
        elif r < 0.70:
            self._update_note()
        elif r < 0.80:
            self._delete()
        else:
            self._read()

    def _increment(self):
        cur = self.session.execute(
            "UPDATE items SET val = val + 1 WHERE id = 0")
        assert cur.rowcount == 1
        self.increments += 1

    def _insert(self):
        row_id = (self.tid + 1) * 10_000 + self.next_id  # disjoint from seeds
        self.next_id += 1
        self.session.execute(
            "INSERT INTO items VALUES (:1, :2, :3, :4)",
            [row_id, 0, _note(self.rng), _shape(self.rng, self.gt)])
        self.live.append(row_id)

    def _update_note(self):
        if not self.live:
            return self._insert()
        cur = self.session.execute(
            "UPDATE items SET note = :1 WHERE id = :2",
            [_note(self.rng), self.rng.choice(self.live)])
        assert cur.rowcount == 1

    def _delete(self):
        if not self.live:
            return self._increment()
        row_id = self.live.pop(self.rng.randrange(len(self.live)))
        cur = self.session.execute(
            "DELETE FROM items WHERE id = :1", [row_id])
        assert cur.rowcount == 1

    def _read(self):
        session = self.session
        session.begin()
        try:
            if self.rng.random() < 0.5:
                session.execute(
                    "SELECT id FROM items WHERE Contains(note, :1)",
                    [self.rng.choice(WORDS)]).fetchall()
            else:
                session.execute(
                    "SELECT id FROM items WHERE"
                    " Sdo_Relate(shape, :1, 'mask=ANYINTERACT')",
                    [_shape(self.rng, self.gt)]).fetchall()
        finally:
            session.commit()


@pytest.mark.concurrency
def test_mixed_dml_stress(stress_engine):
    engine = stress_engine
    workers = [_Worker(engine, tid) for tid in range(N_THREADS)]
    threads = [threading.Thread(target=w.run, name=f"worker-{w.tid}")
               for w in workers]
    # switch threads every 0.1 ms, not every 5: a statement is preempted
    # while it holds its table lock often enough that the blocking path
    # runs in every run (hundreds of waits, where the default interval
    # gave a dozen or, at times, none)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "stress threads hung"
    errors = [w.error for w in workers if w.error is not None]
    assert not errors, f"worker failures: {errors!r}"

    check = engine.connect()

    # -- no lost updates on the shared counter row -------------------------
    total_increments = sum(w.increments for w in workers)
    assert total_increments > 0
    (val,) = check.execute(
        "SELECT val FROM items WHERE id = 0").fetchone()
    assert val == total_increments

    # -- no lost or resurrected rows ----------------------------------------
    expected_ids = {0} | set(SEED_IDS)
    for w in workers:
        expected_ids |= set(w.live)
    actual_ids = [r[0] for r in
                  check.execute("SELECT id FROM items").fetchall()]
    assert len(actual_ids) == len(set(actual_ids))  # ids stayed unique
    assert set(actual_ids) == expected_ids

    # -- VALIDATE: text index answers == functional recompute ----------------
    final = check.execute("SELECT id, note FROM items").fetchall()
    for word in WORDS:
        expected = {row_id for row_id, note in final
                    if text_contains(note, word)}
        actual = {r[0] for r in check.execute(
            "SELECT id FROM items WHERE Contains(note, :1)",
            [word]).fetchall()}
        assert actual == expected, f"text index out of sync for {word!r}"

    # -- VALIDATE: spatial index answers == functional recompute -------------
    shapes = check.execute("SELECT id, shape FROM items").fetchall()
    gt = check.catalog.get_object_type("SDO_GEOMETRY")
    for window in (make_rect(gt, 200, 200, 700, 700),
                   make_rect(gt, 0, 0, 1023, 1023),
                   make_rect(gt, 50, 600, 300, 900)):
        expected = {row_id for row_id, shape in shapes
                    if sdo_relate_functional(shape, window,
                                             "mask=ANYINTERACT")}
        actual = {r[0] for r in check.execute(
            "SELECT id FROM items WHERE"
            " Sdo_Relate(shape, :1, 'mask=ANYINTERACT')",
            [window]).fetchall()}
        assert actual == expected, "spatial index out of sync"

    # -- VALIDATE: terms table references exactly the live rowids ------------
    live_rowids = {str(r[0]) for r in
                   check.execute("SELECT rowid FROM items").fetchall()}
    term_rids = {str(r[0]) for r in
                 check.execute("SELECT rid FROM items_tidx_terms").fetchall()}
    assert term_rids == live_rowids

    # the run really exercised the blocking path
    assert engine.locks.stats.waits > 0
