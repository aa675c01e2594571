"""Differential proofs: bulk and batched paths equal the per-row seed.

Two families:

* **build differential** — ``CREATE INDEX`` / ``ALTER INDEX REBUILD``
  under ``bulk_index_build = True`` must produce an index observably
  identical to the per-row seed build (``bulk_index_build = False``):
  exact postings-table contents for text, identical operator answers
  for spatial and chemistry;
* **maintenance differential** — a deterministic mixed DML stress run
  under batched maintenance must leave the same index contents as the
  identical run under per-row maintenance
  (``batch_index_maintenance = False``).
"""

import random

import pytest

from repro import Database


def _text_contents(db, index_name="docs_text"):
    """The full inverted index, in key order (token, rid, freq)."""
    return db.execute(
        f"SELECT token, rid, freq FROM {index_name}_terms").fetchall()


@pytest.fixture
def corpus():
    from repro.bench.workloads import make_corpus
    return make_corpus(80, words_per_doc=25, vocabulary_size=120, seed=17)


class TestTextBuildDifferential:
    def _db(self, corpus):
        from repro.cartridges.text import install
        db = Database()
        install(db)
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
        db.insert_rows(
            "docs", [[i, d] for i, d in enumerate(corpus.documents)])
        return db

    def test_create_index_contents_identical(self, corpus):
        db = self._db(corpus)
        create = ("CREATE INDEX docs_text ON docs(body)"
                  " INDEXTYPE IS TextIndexType")
        db.bulk_index_build = False
        db.execute(create)
        per_row = _text_contents(db)
        db.execute("DROP INDEX docs_text")
        db.bulk_index_build = True
        db.execute(create)
        bulk = _text_contents(db)
        assert bulk == per_row
        assert len(bulk) > 100  # a real corpus, not a trivial pass

    def test_rebuild_uses_bulk_and_matches(self, corpus):
        db = self._db(corpus)
        db.execute("CREATE INDEX docs_text ON docs(body)"
                   " INDEXTYPE IS TextIndexType")
        baseline = _text_contents(db)
        word = corpus.rare_word()
        expected = sorted(
            r[0] for r in db.execute(
                "SELECT id FROM docs WHERE Contains(body, :1)",
                [word]).fetchall())
        db.execute("ALTER INDEX docs_text REBUILD")
        assert _text_contents(db) == baseline
        got = sorted(r[0] for r in db.execute(
            "SELECT id FROM docs WHERE Contains(body, :1)",
            [word]).fetchall())
        assert got == expected

    def test_direct_load_degrades_for_populated_target(self, text_db):
        """direct_load falls back to validated inserts when the target
        shape disqualifies the fast path — identical observable result."""
        text_db.execute("CREATE TABLE t (id INTEGER, v VARCHAR2(40))")
        text_db.insert_rows("t", [[1, "pre-existing"]])
        # populated table: no bulk-load plan; falls back to insert_rows
        text_db.direct_load("t", [[2, "two"], [3, "three"]])
        assert sorted(text_db.execute(
            "SELECT id, v FROM t").fetchall()) \
            == [(1, "pre-existing"), (2, "two"), (3, "three")]


class TestSpatialBuildDifferential:
    def test_rtree_str_answers_match_per_row(self):
        from repro.cartridges.spatial import install_rtree

        def build(bulk):
            db = Database()
            install_rtree(db)
            db.execute(
                "CREATE TABLE assets (id INTEGER, geom SDO_GEOMETRY)")
            rng = random.Random(41)
            sets = []
            for i in range(150):
                x, y = rng.uniform(0, 800), rng.uniform(0, 800)
                sets.append([i, x, y, x + rng.uniform(1, 30),
                             y + rng.uniform(1, 30)])
            db.executemany(
                "INSERT INTO assets VALUES"
                " (:1, sdo_rect(:2, :3, :4, :5))", sets)
            db.bulk_index_build = bulk
            db.execute("CREATE INDEX assets_ridx ON assets(geom)"
                       " INDEXTYPE IS RtreeIndexType")
            return db

        per_row, bulk = build(False), build(True)
        windows = [(0, 0, 200, 200), (300, 300, 500, 500),
                   (0, 0, 800, 800), (790, 790, 800, 800)]
        for x1, y1, x2, y2 in windows:
            q = ("SELECT id FROM assets WHERE Sdo_Relate(geom,"
                 f" sdo_rect({x1}, {y1}, {x2}, {y2}),"
                 " 'mask=ANYINTERACT')")
            assert sorted(per_row.execute(q).fetchall()) \
                == sorted(bulk.execute(q).fetchall())


class TestChemistryBuildDifferential:
    def test_fingerprint_or_answers_match_per_row(self):
        from repro.bench.workloads import make_molecule_table
        from repro.cartridges.chemistry import install

        rows = make_molecule_table(50, seed=19)

        def build(bulk):
            db = Database()
            install(db)
            db.execute(
                "CREATE TABLE molecules (mid INTEGER, mol VARCHAR2(512))")
            db.insert_rows("molecules", [list(r) for r in rows])
            db.bulk_index_build = bulk
            db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                       " INDEXTYPE IS ChemIndexType"
                       " PARAMETERS (':Storage LOB')")
            return db

        per_row, bulk = build(False), build(True)
        for __, target in rows[:8]:
            q = "SELECT mid FROM molecules WHERE Chem_Match(mol, :1)"
            assert sorted(per_row.execute(q, [target]).fetchall()) \
                == sorted(bulk.execute(q, [target]).fetchall())


class TestMaintenanceDifferential:
    def _stress(self, batched, corpus):
        from repro.cartridges.text import install
        db = Database()
        install(db)
        db.batch_index_maintenance = batched
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
        db.insert_rows(
            "docs", [[i, d] for i, d in enumerate(corpus.documents)])
        db.execute("CREATE INDEX docs_text ON docs(body)"
                   " INDEXTYPE IS TextIndexType")
        rng = random.Random(53)
        next_id = len(corpus.documents)
        live = list(range(next_id))
        for step in range(30):
            op = rng.choice(("insert", "update", "delete", "many"))
            if op == "insert" or not live:
                db.execute("INSERT INTO docs VALUES (:1, :2)",
                           [next_id, corpus.documents[next_id % 40]])
                live.append(next_id)
                next_id += 1
            elif op == "update":
                victim = rng.choice(live)
                db.execute("UPDATE docs SET body = :1 WHERE id = :2",
                           [corpus.documents[(victim + 7) % 40], victim])
            elif op == "delete":
                victim = live.pop(rng.randrange(len(live)))
                db.execute("DELETE FROM docs WHERE id = :1", [victim])
            else:
                sets = [[next_id + k, corpus.documents[(next_id + k) % 40]]
                        for k in range(4)]
                db.executemany("INSERT INTO docs VALUES (:1, :2)", sets)
                live.extend(next_id + k for k in range(4))
                next_id += 4
        return db

    def test_mixed_dml_stress_contents_identical(self, corpus):
        batched = self._stress(True, corpus)
        looped = self._stress(False, corpus)
        assert batched.execute(
            "SELECT id FROM docs ORDER BY id").fetchall() \
            == looped.execute(
                "SELECT id FROM docs ORDER BY id").fetchall()
        # exact inverted-index equality, not just query equality
        assert _text_contents(batched) == _text_contents(looped)
        word = corpus.common_word(0)
        q = "SELECT id FROM docs WHERE Contains(body, :1)"
        assert sorted(batched.execute(q, [word]).fetchall()) \
            == sorted(looped.execute(q, [word]).fetchall())

    def test_transaction_contents_identical(self, corpus):
        """One explicit transaction of single-row statements: each
        statement flushes its own queue, the per-row path has none."""
        from repro.cartridges.text import install

        def run(batched):
            db = Database()
            install(db)
            db.batch_index_maintenance = batched
            db.execute(
                "CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
            db.execute("CREATE INDEX docs_text ON docs(body)"
                       " INDEXTYPE IS TextIndexType")
            db.begin()
            for i in range(10):
                db.execute("INSERT INTO docs VALUES (:1, :2)",
                           [i, corpus.documents[i]])
            db.execute("DELETE FROM docs WHERE id = 3")
            db.execute("UPDATE docs SET body = :1 WHERE id = 5",
                       [corpus.documents[20]])
            db.commit()
            return db

        assert _text_contents(run(True)) == _text_contents(run(False))
