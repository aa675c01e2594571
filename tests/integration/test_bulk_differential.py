"""Differential proofs: the bulk build and the array routines equal a
reference that shares no code with them.

Three families:

* **build differential** — ``CREATE INDEX`` on a loaded table (the
  cartridge's bulk build: sorted inverted-list load, STR packing, one
  fingerprint append, or the default load step's one array insert) must
  produce the index that ``CREATE INDEX`` on the empty table followed
  by inserting the same rows produces (the maintenance path): exact
  index-table contents for text, VIR and collection, and for the
  R-tree and chemistry operator answers equal to each other and to
  the operator's functional evaluation on a table with no index (text
  postings also against a reference lexer: the build and the
  maintenance routines share one lexing routine);
* **update differential** — one multi-row and one ``executemany``
  UPDATE, to and from NULL, through each cartridge that takes the
  framework's default update: the maintained index tables equal a
  REBUILD's (text, tiles, VIR), or the domain scans answer as the
  functional form does (R-tree, chemistry);
* **maintenance differential** — a deterministic mixed DML stress run
  through the text cartridge's array routines must leave the same
  postings as the identical run through scalar routines, which the
  ``IndexMethods`` array defaults loop one row per call.
"""

import random

import pytest

from repro import Engine
from repro.cartridges.spatial import make_rect


def _text_contents(db, index_name="docs_text"):
    """The full inverted index, in key order (token, rid, freq)."""
    return db.execute(
        f"SELECT token, rid, freq FROM {index_name}_terms").fetchall()


def _built_and_maintained(install, create_table, load, create_index):
    """Three databases over the same rows: the index built from the
    loaded table, the index built empty and maintained as the rows
    arrive, and no index at all (functional evaluation)."""
    dbs = []
    for mode in ("built", "maintained", "functional"):
        db = Engine().connect()
        install(db)
        db.execute(create_table)
        if mode == "maintained":
            db.execute(create_index)
        load(db)
        if mode == "built":
            db.execute(create_index)
        dbs.append(db)
    return dbs


def _answers(db, sql, binds=None):
    return sorted(db.execute(sql, binds or []).fetchall())


def _index_answers(db, sql, binds=None):
    """The answer of a query that must take the domain index."""
    assert any(line.lstrip().startswith("DOMAIN INDEX SCAN")
               for line in db.explain(sql, binds or []))
    before = db.dispatcher.snapshot().get(
        "ODCIIndexStart", {}).get("invocations", 0)
    rows = _answers(db, sql, binds)
    assert db.dispatcher.snapshot()["ODCIIndexStart"]["invocations"] \
        == before + 1
    return rows


@pytest.fixture
def corpus():
    from repro.bench.workloads import make_corpus
    return make_corpus(80, words_per_doc=25, vocabulary_size=120, seed=17)


class TestTextBuildDifferential:
    def _db(self, corpus):
        from repro.cartridges.text import install
        db = Engine().connect()
        install(db)
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
        db.insert_rows(
            "docs", [[i, d] for i, d in enumerate(corpus.documents)])
        return db

    def test_create_index_contents_identical(self, corpus):
        from repro.cartridges.text import install
        built, maintained, __ = _built_and_maintained(
            install, "CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))",
            lambda db: db.insert_rows(
                "docs", [[i, d] for i, d in enumerate(corpus.documents)]),
            "CREATE INDEX docs_text ON docs(body)"
            " INDEXTYPE IS TextIndexType")
        bulk = _text_contents(built)
        assert bulk == _text_contents(maintained)
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
        """direct_load into a populated table gives the same observable
        result as validated inserts."""
        text_db.execute("CREATE TABLE t (id INTEGER, v VARCHAR2(40))")
        text_db.insert_rows("t", [[1, "pre-existing"]])
        # a populated heap still loads in bulk, above its high-water mark
        text_db.direct_load("t", [[2, "two"], [3, "three"]])
        assert sorted(text_db.execute(
            "SELECT id, v FROM t").fetchall()) \
            == [(1, "pre-existing"), (2, "two"), (3, "three")]


#: bodies that exercise the lexer: mixed case, punctuation, repeated
#: tokens and stop words, and bodies that index nothing at all
_LEXER_BODIES = [
    "Oracle ORACLE oracle, the Unix-based DB!",
    "COBOL; cobol... C++ & C# -- SQL*Plus (sql plus)",
    "the a an and of to",
    None,
    "",
    "...!?; -- ()",
    "repeat repeat REPEAT Repeat rePEAT once",
    "unix_shell 42 42 x86_64 under_score",
    "An Oracle expert and a UNIX guru: oracle, unix, oracle.",
    "Der Oracle-Experte und die UNIX-Welt",
]


def _lexer_rows():
    return [[i, body] for i, body in enumerate(_LEXER_BODIES * 3)]


def _reference_postings(db, stopwords):
    """``(token, rid, freq)`` of every live row, lexed by a reference
    that shares no code with the cartridge's lexer."""
    from collections import Counter
    import re
    postings = []
    for rid, body in db.execute("SELECT rowid, body FROM docs").fetchall():
        words = re.findall(r"[a-z0-9_]+", (body or "").lower())
        postings += [(token, rid, freq) for token, freq in Counter(
            w for w in words if w not in stopwords).items()]
    return sorted(postings)


def _create_text_index(parameters):
    clause = f" PARAMETERS ('{parameters}')" if parameters else ""
    return ("CREATE INDEX docs_text ON docs(body)"
            f" INDEXTYPE IS TextIndexType{clause}")


class TestTextLexingDifferential:
    """The built and the maintained index hold the same postings, and
    both hold what a reference lexer finds, whatever the body holds and
    whatever the stop list."""

    @pytest.mark.parametrize("parameters", [
        "", ":Ignore oracle UNIX", ":Language german :Ignore cobol"])
    def test_built_equals_maintained(self, parameters):
        from repro.cartridges.text import install
        from repro.cartridges.text.lexer import TextParameters
        built, maintained, __ = _built_and_maintained(
            install, "CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))",
            lambda db: db.executemany(
                "INSERT INTO docs VALUES (:1, :2)", _lexer_rows()),
            _create_text_index(parameters))
        stopwords = TextParameters.parse(parameters).stopwords
        contents = _text_contents(built)
        assert contents == _text_contents(maintained)
        assert sorted(contents) == _reference_postings(built, stopwords)
        tokens = {token for token, __, __ in contents}
        assert tokens.isdisjoint(stopwords)
        assert {"repeat", "plus", "42"} <= tokens
        assert ("repeat", 5) in {(t, f) for t, __, f in contents}

    def test_alter_ignore_then_rebuild_equals_maintained(self):
        """ALTER INDEX's ``:Ignore`` extends the stop list CREATE gave:
        the rebuilt index ignores both, as does one altered while empty
        and maintained as the rows arrive."""
        from repro.cartridges.text import install
        from repro.cartridges.text.lexer import TextParameters
        alter = "ALTER INDEX docs_text PARAMETERS (':Ignore unix repeat')"
        dbs = {}
        for mode in ("rebuilt", "maintained"):
            db = dbs[mode] = Engine().connect()
            install(db)
            db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
            if mode == "rebuilt":
                db.executemany("INSERT INTO docs VALUES (:1, :2)",
                               _lexer_rows())
            db.execute(_create_text_index(":Ignore oracle"))
            db.execute(alter)
            if mode == "rebuilt":
                db.execute("ALTER INDEX docs_text REBUILD")
            else:
                db.executemany("INSERT INTO docs VALUES (:1, :2)",
                               _lexer_rows())
        rebuilt = _text_contents(dbs["rebuilt"])
        assert rebuilt == _text_contents(dbs["maintained"])
        stopwords = TextParameters.parse(":Ignore oracle unix repeat") \
            .stopwords
        assert sorted(rebuilt) == _reference_postings(
            dbs["rebuilt"], stopwords)
        assert not {"oracle", "unix", "repeat"} & {t for t, __, __ in rebuilt}

    def test_language_change_rebuilds_what_maintenance_wrote(self):
        """``:Language german`` swaps English's stop list for German's:
        a row inserted after the ALTER and the REBUILD of it hold the
        same postings, and Contains answers the same before and after
        the REBUILD."""
        from repro.cartridges.text import install
        db = Engine().connect()
        install(db)
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
        db.execute(_create_text_index(""))
        db.execute("ALTER INDEX docs_text PARAMETERS (':Language german')")
        db.execute("INSERT INTO docs VALUES (1, 'the der oracle')")
        q = "SELECT id FROM docs WHERE Contains(body, 'the')"
        maintained, answer = _text_contents(db), _index_answers(db, q)
        db.execute("ALTER INDEX docs_text REBUILD")
        assert [token for token, __, __ in maintained] == ["oracle", "the"]
        assert _text_contents(db) == maintained
        assert _index_answers(db, q) == answer == [(1,)]

    def test_update_after_language_change_rebuilds_what_maintenance_wrote(
            self):
        """An UPDATE after ``:Language german`` indexes every token the
        new stop list keeps, also one the old list dropped that the row
        still holds: the maintained postings equal the REBUILD's."""
        from repro.cartridges.text import install
        db = Engine().connect()
        install(db)
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
        db.execute(_create_text_index(""))
        db.execute("INSERT INTO docs VALUES (1, 'the oracle')")
        db.execute("ALTER INDEX docs_text PARAMETERS (':Language german')")
        db.execute("UPDATE docs SET body = 'the oracle unix' WHERE id = 1")
        q = "SELECT id FROM docs WHERE Contains(body, 'the')"
        maintained, answer = _text_contents(db), _index_answers(db, q)
        db.execute("ALTER INDEX docs_text REBUILD")
        assert [token for token, __, __ in maintained] == [
            "oracle", "the", "unix"]
        assert _text_contents(db) == maintained
        assert _index_answers(db, q) == answer == [(1,)]

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 19: the functional Contains lexes with English's"
        " stop list whatever the index's PARAMETERS"))
    def test_functional_contains_answers_as_the_index(self):
        from repro.cartridges.text import install
        db = Engine().connect()
        install(db)
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
        db.execute(_create_text_index(":Language german"))
        db.execute("INSERT INTO docs VALUES (1, 'the der oracle')")
        q = "SELECT id FROM docs WHERE Contains(body, 'the')"
        indexed = _index_answers(db, q)
        db.execute("ALTER INDEX docs_text UNUSABLE")
        assert any("FUNCTIONAL" in line for line in db.explain(q))
        assert _answers(db, q) == indexed == [(1,)]


class TestSpatialBuildDifferential:
    def test_rtree_str_answers_match_per_row(self):
        """STR packing against one ``RTree.insert`` per row."""
        from repro.cartridges.spatial import install_rtree
        rng = random.Random(41)
        sets = []
        for i in range(150):
            x, y = rng.uniform(0, 800), rng.uniform(0, 800)
            sets.append([i, x, y, x + rng.uniform(1, 30),
                         y + rng.uniform(1, 30)])
        dbs = _built_and_maintained(
            install_rtree,
            "CREATE TABLE assets (id INTEGER, geom SDO_GEOMETRY)",
            lambda db: db.executemany(
                "INSERT INTO assets VALUES"
                " (:1, sdo_rect(:2, :3, :4, :5))", sets),
            "CREATE INDEX assets_ridx ON assets(geom)"
            " INDEXTYPE IS RtreeIndexType")
        built, maintained, functional = dbs
        windows = [(0, 0, 200, 200), (300, 300, 500, 500),
                   (0, 0, 800, 800), (790, 790, 800, 800)]
        answered = set()
        for x1, y1, x2, y2 in windows:
            q = ("SELECT id FROM assets WHERE Sdo_Relate(geom,"
                 f" sdo_rect({x1}, {y1}, {x2}, {y2}),"
                 " 'mask=ANYINTERACT')")
            expected = _answers(functional, q)
            assert _index_answers(built, q) == expected
            assert _index_answers(maintained, q) == expected
            answered.update(expected)
        assert len(answered) == len(sets)  # every row is some answer


def _sorted_contents(db, table):
    return sorted(db.execute(f"SELECT * FROM {table}").fetchall())


class TestDefaultLoadDifferential:
    """VIR and collection build through IndexMethods' default load step
    (one array insert of every row): the tables it fills must equal the
    ones maintenance fills row by row, whatever the row count."""

    def test_vir_coarse_table_identical(self):
        from repro.bench.workloads import make_signature_table
        from repro.cartridges.vir import install
        rows, centre = make_signature_table(150, seed=29)

        def load(db):
            image = db.catalog.get_object_type("IMAGE_T")
            db.insert_rows("images", [
                [i, None if i % 37 == 5
                 else image.new(signature=sig, width=8, height=8)]
                for i, sig in rows])

        built, maintained, functional = _built_and_maintained(
            install, "CREATE TABLE images (iid INTEGER, img IMAGE_T)", load,
            "CREATE INDEX images_vidx ON images(img)"
            " INDEXTYPE IS VirIndexType")
        coarse = _sorted_contents(built, "images_vidx_coarse")
        assert coarse == _sorted_contents(maintained, "images_vidx_coarse")
        assert len(coarse) == 150 - 4  # one row per non-null image
        q = ("SELECT iid FROM images"
             " WHERE VIRSimilar(img.signature, :1, '', 10)")
        expected = _answers(functional, q, [centre])
        assert expected
        assert _index_answers(built, q, [centre]) == expected

    def test_collection_elements_table_identical(self):
        from repro.cartridges.collection import install
        people = [[i, None if i % 41 == 3 else tuple(
            f"h{(i * k) % 13}" for k in range(i % 5))] for i in range(150)]
        built, maintained, functional = _built_and_maintained(
            install, "CREATE TABLE people (pid INTEGER,"
            " hobbies VARRAY(10) OF VARCHAR2(64))",
            lambda db: db.insert_rows("people", people),
            "CREATE INDEX people_idx ON people(hobbies)"
            " INDEXTYPE IS CollectionIndexType")
        elems = _sorted_contents(built, "people_idx_elems")
        assert elems == _sorted_contents(maintained, "people_idx_elems")
        assert len(elems) > 150
        assert {count for __, __, count in elems} > {1}  # repeats counted
        q = "SELECT pid FROM people WHERE Coll_Contains(hobbies, :1)"
        assert _answers(built, q, ["h0"]) == _answers(functional, q, ["h0"])


class TestChemistryBuildDifferential:
    def test_fingerprint_or_answers_match_per_row(self):
        """One fingerprint-file append for the table against one
        ``ODCIIndexInsert`` append per row."""
        from repro.bench.workloads import make_molecule_table
        from repro.cartridges.chemistry import install
        rows = make_molecule_table(50, seed=19)
        built, maintained, functional = _built_and_maintained(
            install,
            "CREATE TABLE molecules (mid INTEGER, mol VARCHAR2(512))",
            lambda db: db.insert_rows("molecules", [list(r) for r in rows]),
            "CREATE INDEX mol_idx ON molecules(mol)"
            " INDEXTYPE IS ChemIndexType PARAMETERS (':Storage LOB')")
        q = "SELECT mid FROM molecules WHERE Chem_Match(mol, :1)"
        # targets from both ends of the load: a build that drops a row
        # at either end loses that molecule's self-match
        for __, target in rows[:4] + rows[-4:]:
            expected = _answers(functional, q, [target])
            assert expected
            assert _index_answers(built, q, [target]) == expected
            assert _index_answers(maintained, q, [target]) == expected


_UPDATE_ROWS = 24


def _updated(install, column_type, value, create_index):
    """Two databases over table ``t (id, val, alt)`` — ``val`` indexed
    by ``create_index`` in the first, unindexed in the second — after
    the same two UPDATEs: one multi-row ``SET val = alt`` and one
    ``executemany``, each taking rows to and from NULL (the second also
    updates one row twice).  ``value(db, k)`` is the ``k``-th value."""
    dbs = []
    for indexed in (True, False):
        db = Engine().connect()
        install(db)
        db.execute(f"CREATE TABLE t (id INTEGER, val {column_type},"
                   f" alt {column_type})")
        if indexed:
            db.execute(create_index)
        db.executemany("INSERT INTO t VALUES (:1, :2, :3)", [
            [i, None if i % 5 == 2 else value(db, i),
             None if i % 4 == 1 else value(db, i + 100)]
            for i in range(_UPDATE_ROWS)])
        assert db.execute("UPDATE t SET val = alt WHERE id < 16"
                          ).rowcount == 16
        db.executemany("UPDATE t SET val = :1 WHERE id = :2", [
            [value(db, 200), 1], [None, 3], [value(db, 201), 17],
            [None, 20], [value(db, 202), 22], [value(db, 203), 18],
            [None, 18]])
        dbs.append(db)
    return dbs


def _rect(db, k):
    x, y = (k * 37) % 400, (k * 53) % 400
    return make_rect(db.catalog.get_object_type("SDO_GEOMETRY"),
                     x, y, x + 5 + k % 30, y + 5 + k % 20)


def _rebuilt_equals_maintained(db, index_name, table):
    maintained = _sorted_contents(db, table)
    db.execute(f"ALTER INDEX {index_name} REBUILD")
    assert _sorted_contents(db, table) == maintained
    return maintained


class TestUpdateDifferential:
    """The default ODCIIndexUpdate (one array delete of the old values,
    then one array insert of the new) leaves each cartridge's index as a
    REBUILD writes it, or answering as the operator's functional form
    does where the index is not kept in tables."""

    def test_text_terms_equal_rebuild(self):
        from repro.cartridges.text import install
        db, __ = _updated(
            install, "VARCHAR2(200)",
            lambda db, k: f"w{k % 7} w{k % 11} the w{k % 7} u{k}",
            "CREATE INDEX t_text ON t(val) INDEXTYPE IS TextIndexType")
        terms = _rebuilt_equals_maintained(db, "t_text", "t_text_terms")
        assert {rid for __, rid, __ in terms} == {
            rid for rid, in db.execute(
                "SELECT rowid FROM t WHERE val IS NOT NULL")}
        assert "the" not in {token for token, __, __ in terms}

    def test_tiles_equal_rebuild(self):
        from repro.cartridges.spatial import install
        db, __ = _updated(
            install, "SDO_GEOMETRY", _rect,
            "CREATE INDEX t_sidx ON t(val) INDEXTYPE IS SpatialIndexType")
        tiles = _rebuilt_equals_maintained(db, "t_sidx", "t_sidx_tiles")
        assert len(tiles) > _UPDATE_ROWS

    def test_vir_coarse_rows_equal_rebuild(self):
        from repro.bench.workloads import make_signature_table
        from repro.cartridges.vir import install
        rows, __ = make_signature_table(40, seed=31)

        def image(db, k):
            return db.catalog.get_object_type("IMAGE_T").new(
                signature=rows[k % len(rows)][1], width=8, height=8)

        db, __ = _updated(
            install, "IMAGE_T", image,
            "CREATE INDEX t_vidx ON t(val) INDEXTYPE IS VirIndexType")
        coarse = _rebuilt_equals_maintained(db, "t_vidx", "t_vidx_coarse")
        assert len(coarse) == db.execute(
            "SELECT COUNT(*) FROM t WHERE val IS NOT NULL").fetchall()[0][0]

    def test_rtree_answers_equal_functional(self):
        from repro.cartridges.spatial import install_rtree
        indexed, functional = _updated(
            install_rtree, "SDO_GEOMETRY", _rect,
            "CREATE INDEX t_ridx ON t(val) INDEXTYPE IS RtreeIndexType")
        # a grid of windows, and one over the whole space: it meets a
        # row's stale rectangle and its new one, and must answer the
        # row once
        windows = [(x, y, x + 75, y + 75) for x in range(0, 450, 75)
                   for y in range(0, 450, 75)] + [(0, 0, 450, 450)]
        for x1, y1, x2, y2 in windows:
            q = ("SELECT id FROM t WHERE Sdo_Relate(val,"
                 f" sdo_rect({x1}, {y1}, {x2}, {y2}), 'mask=ANYINTERACT')")
            expected = _answers(functional, q)
            assert _index_answers(indexed, q) == expected
        assert expected == functional.execute(
            "SELECT id FROM t WHERE val IS NOT NULL ORDER BY id").fetchall()

    def test_chemistry_lob_answers_equal_functional(self):
        from repro.bench.workloads import make_molecule_table
        from repro.cartridges.chemistry import install
        molecules = [mol for __, mol in make_molecule_table(300, seed=23)]
        indexed, functional = _updated(
            install, "VARCHAR2(512)", lambda db, k: molecules[k],
            "CREATE INDEX t_chem ON t(val)"
            " INDEXTYPE IS ChemIndexType PARAMETERS (':Storage LOB')")
        # every molecule the table ever held: a similarity scan reads
        # the fingerprints without the base row, so a record left live
        # for an old value shows in its answer
        for k in sorted({*range(_UPDATE_ROWS), 200, 201, 202, 203,
                         *(k + 100 for k in range(_UPDATE_ROWS))}):
            for q in ("SELECT id FROM t WHERE Chem_Match(val, :1)",
                      "SELECT id FROM t WHERE Chem_Similar(val, :1, 0.9)"):
                expected = _answers(functional, q, [molecules[k]])
                assert _index_answers(indexed, q, [molecules[k]]) \
                    == expected


def _batches(db, index_name="docs_text"):
    stats = db.dispatcher.maintenance.snapshot().get(index_name, {})
    return stats.get("batches_flushed", 0)


class TestMaintenanceDifferential:
    def _stress(self, corpus):
        from repro.cartridges.text import install
        db = Engine().connect()
        install(db)
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

    def test_mixed_dml_stress_contents_identical(self, corpus,
                                                 scalar_text_routines):
        batched = self._stress(corpus)
        with scalar_text_routines() as calls:
            looped = self._stress(corpus)
        # same statements, same batches; the looped run took the scalar
        # routines
        assert _batches(batched) == _batches(looped) > 0
        assert calls["insert"] > 0 and calls["delete"] > 0
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

    def test_transaction_contents_identical(self, corpus,
                                            scalar_text_routines):
        """One explicit transaction of single-row statements: each
        statement flushes its own queue, through either kind of
        routine."""
        from repro.cartridges.text import install

        def run():
            db = Engine().connect()
            install(db)
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

        batched = run()
        with scalar_text_routines() as calls:
            looped = run()
        assert _batches(looped) == 12
        # ten inserts, one delete, one update (a delete and an insert)
        assert calls == {"insert": 11, "delete": 2}
        assert _text_contents(batched) == _text_contents(looped)
