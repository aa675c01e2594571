"""Property: a domain index always agrees with functional evaluation.

Random sequences of INSERT / UPDATE / DELETE / transactional rollback
run against a text-indexed table; after each sequence, index-based
results for random queries must equal the ground truth computed by
applying the functional operator to the live rows.  This exercises the
entire maintenance protocol (ODCIIndexInsert/Update/Delete through
server callbacks with shared undo) under adversarial schedules.

One operation holds a transaction open over several statements that
touch *the same row* and checks the index **inside** it after every
statement: each statement flushes its own maintenance queue, so the
index never lags the table past a statement boundary.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.cartridges.text import install, text_contains

WORDS = ["oracle", "unix", "java", "rust", "sql", "linux"]

body_strategy = st.lists(st.sampled_from(WORDS), min_size=0,
                         max_size=5).map(" ".join)

operation = st.one_of(
    st.tuples(st.just("insert"), body_strategy),
    st.tuples(st.just("update"), st.integers(0, 30), body_strategy),
    st.tuples(st.just("delete"), st.integers(0, 30)),
    st.tuples(st.just("txn_rollback"),
              st.lists(st.tuples(st.just("insert"), body_strategy),
                       min_size=1, max_size=3)),
    # one row inserted, updated, maybe deleted, maybe restored by
    # ROLLBACK TO SAVEPOINT, updated again; then COMMIT or ROLLBACK
    st.tuples(st.just("txn_same_row"), body_strategy, body_strategy,
              body_strategy, st.booleans(), st.booleans(), st.booleans()),
)


def assert_index_matches(db, rows, words=WORDS):
    """Index answers ≡ functional truth over ``rows``, as the calling
    session sees them right now (inside a transaction included)."""
    for word in words:
        got = sorted(r[0] for r in db.query(
            "SELECT id FROM docs WHERE Contains(body, :1)", [word]))
        assert got == sorted(ident for ident, body in rows.items()
                             if text_contains(body, word)), word


def assert_every_entry_flushed(db):
    """No statement failed, so no queued entry was left undispatched."""
    stats = db.dispatcher.maintenance_snapshot().get("docs_text")
    if stats is not None:
        assert stats["entries_flushed"] == stats["entries_queued"]


def apply_operations(db, model, operations, words=WORDS):
    """Run operations against the engine and a plain-dict model.

    ``words`` are the query words the in-transaction checks may use (a
    test that extends the stop list passes the ones still indexed).
    """
    next_id = [max(model, default=-1) + 1]

    def do_insert(body):
        ident = next_id[0]
        next_id[0] += 1
        db.execute("INSERT INTO docs VALUES (:1, :2)", [ident, body])
        model[ident] = body

    for op in operations:
        kind = op[0]
        if kind == "insert":
            do_insert(op[1])
        elif kind == "update":
            __, target, body = op
            keys = sorted(model)
            if not keys:
                continue
            victim = keys[target % len(keys)]
            db.execute("UPDATE docs SET body = :1 WHERE id = :2",
                       [body, victim])
            model[victim] = body
        elif kind == "delete":
            keys = sorted(model)
            if not keys:
                continue
            victim = keys[op[1] % len(keys)]
            db.execute("DELETE FROM docs WHERE id = :1", [victim])
            del model[victim]
        elif kind == "txn_rollback":
            # run some inserts in a transaction, then undo them all
            db.begin()
            for __, body in op[1]:
                ident = next_id[0]
                next_id[0] += 1
                db.execute("INSERT INTO docs VALUES (:1, :2)",
                           [ident, body])
            db.rollback()
            # the model never sees them
        elif kind == "txn_same_row":
            __, first, second, third, delete, back, commit = op
            ident = next_id[0]
            next_id[0] += 1
            rows = dict(model)  # what the open transaction sees
            db.begin()
            db.execute("INSERT INTO docs VALUES (:1, :2)", [ident, first])
            rows[ident] = first
            assert_index_matches(db, rows, words)
            db.execute("SAVEPOINT sp")
            db.execute("UPDATE docs SET body = :1 WHERE id = :2",
                       [second, ident])
            rows[ident] = second
            assert_index_matches(db, rows, words)
            if delete:
                db.execute("DELETE FROM docs WHERE id = :1", [ident])
                del rows[ident]
                assert_index_matches(db, rows, words)
            if back:
                db.execute("ROLLBACK TO SAVEPOINT sp")
                rows[ident] = first
                assert_index_matches(db, rows, words)
            if ident in rows:
                db.execute("UPDATE docs SET body = :1 WHERE id = :2",
                           [third, ident])
                rows[ident] = third
                assert_index_matches(db, rows, words)
            if commit:
                db.commit()
                model.update(rows)  # the model plus, if it lived, the row
            else:
                db.rollback()
            assert_index_matches(db, model, words)


@given(st.lists(operation, max_size=20),
       st.sampled_from(WORDS), st.sampled_from(WORDS))
@settings(max_examples=40, deadline=None)
def test_index_results_equal_functional_truth(operations, word_a, word_b):
    db = Database()
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    model = {}
    apply_operations(db, model, operations)

    for query in (word_a, f"{word_a} AND {word_b}",
                  f"{word_a} OR {word_b}",
                  f"{word_a} AND NOT {word_b}"):
        got = sorted(r[0] for r in db.query(
            "SELECT id FROM docs WHERE Contains(body, :1)", [query]))
        expected = sorted(ident for ident, body in model.items()
                          if text_contains(body, query))
        assert got == expected, (query, got, expected)

    # the base table itself matches the model too
    live = dict(db.query("SELECT id, body FROM docs"))
    assert live == model
    assert_every_entry_flushed(db)


@given(st.lists(operation, max_size=15))
@settings(max_examples=25, deadline=None)
def test_terms_table_has_no_orphans(operations):
    """Every posting references a live row with that token, and every
    live row's tokens are present — full index/base synchronization."""
    db = Database()
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    model = {}
    apply_operations(db, model, operations)

    postings = db.query("SELECT token, rid FROM docs_text_terms")
    live = {rid: body for rid, body in db.query(
        "SELECT rowid, body FROM docs")}
    from repro.cartridges.text.lexer import TextLexer, TextParameters
    lexer = TextLexer(TextParameters.parse(""))
    # no orphaned postings
    for token, rid in postings:
        assert rid in live
        assert token in lexer.tokens(live[rid])
    # no missing postings
    posted = {(token, rid) for token, rid in postings}
    for rid, body in live.items():
        for token in set(lexer.tokens(body)):
            assert (token, rid) in posted


# ---------------------------------------------------------------------------
# keyed maintenance: no orphan and no over-deleted index entries
# ---------------------------------------------------------------------------

alter = st.tuples(st.just("ignore"), st.sampled_from(WORDS))


@given(st.lists(st.one_of(operation, alter), max_size=25))
@settings(max_examples=60, deadline=None)
def test_text_postings_equal_a_build_of_each_row_as_last_indexed(operations):
    """Maintenance finds a row's postings from its old text, so the
    terms table must hold exactly what indexing each live row — under
    the stop list in force when it was last written — produces: one
    posting more is an orphan, one fewer an over-delete.

    ``ALTER INDEX ... PARAMETERS(':Ignore w')`` only extends the stop
    list (rows indexed before keep their postings of ``w``), so the case
    a re-lex under the *current* stop list gets wrong is in here: a row
    inserted with ``w``, ``w`` ignored, the row deleted or updated.
    """
    from repro.cartridges.text.lexer import TextLexer, TextParameters
    db = Database()
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    model = {}
    indexed = {}          # id -> {token: freq} as last indexed
    params = TextParameters.parse("")

    for op in operations:
        if op[0] == "ignore":
            db.execute(f"ALTER INDEX docs_text PARAMETERS (':Ignore {op[1]}')")
            params = TextParameters.parse(f":Ignore {op[1]}", base=params)
            continue
        before = dict(model)
        apply_operations(db, model, [op], words=[
            w for w in WORDS if w not in params.stopwords])
        lexer = TextLexer(params)
        for ident in before.keys() - model.keys():
            del indexed[ident]
        for ident, body in model.items():
            if before.get(ident, object()) != body:
                indexed[ident] = dict(lexer.term_frequencies(body))

    rid_of = {ident: rid for rid, ident in db.query(
        "SELECT rowid, id FROM docs")}
    expected = sorted((token, rid_of[ident].sort_key, freq)
                      for ident, freqs in indexed.items()
                      for token, freq in freqs.items())
    got = sorted((token, rid.sort_key, freq) for token, rid, freq in
                 db.query("SELECT token, rid, freq FROM docs_text_terms"))
    assert got == expected
    assert db.query("SELECT COUNT(*) FROM docs_text_terms") == [
        (len(expected),)]

    # index ≡ functional Contains for every word still indexed; for an
    # ignored word the index answers from the rows indexed before
    for word in WORDS:
        got = sorted(r[0] for r in db.query(
            "SELECT id FROM docs WHERE Contains(body, :1)", [word]))
        assert got == sorted(i for i, freqs in indexed.items()
                             if word in freqs)
        if word not in params.stopwords:
            assert got == sorted(i for i, body in model.items()
                                 if text_contains(body, word))


def _spatial_db():
    from repro.cartridges.spatial import install as install_spatial
    db = Database()
    install_spatial(db)
    db.execute("CREATE TABLE shapes (id INTEGER, shape SDO_GEOMETRY)")
    db.execute("CREATE INDEX shapes_sidx ON shapes(shape)"
               " INDEXTYPE IS SpatialIndexType")
    return db


corner = st.integers(min_value=0, max_value=1000)
rect_strategy = st.tuples(corner, corner, st.integers(1, 300),
                          st.integers(1, 300)).map(
    lambda r: (r[0], r[1], min(1024, r[0] + r[2]), min(1024, r[1] + r[3])))
shape_value = st.one_of(st.none(), rect_strategy)

spatial_operation = st.one_of(
    st.tuples(st.just("insert"), shape_value),
    st.tuples(st.just("update"), st.integers(0, 30), shape_value),
    st.tuples(st.just("delete"), st.integers(0, 30)),
    st.tuples(st.just("delete_many"), st.integers(0, 30),
              st.integers(1, 4)),
    st.tuples(st.just("rebuild")),
)


@given(st.lists(spatial_operation, max_size=20), rect_strategy)
@settings(max_examples=40, deadline=None)
def test_spatial_tiles_equal_the_covers_of_the_live_rows(operations, window):
    """Same shape for the tile index: after any DML sequence (and an
    ``ALTER INDEX`` rebuild anywhere in it) the tiles table holds exactly
    the quadtree cover of every live geometry, and the index answers a
    window query as the functional ``Sdo_Relate`` does."""
    from repro.cartridges.spatial import make_rect
    from repro.cartridges.spatial.geometry import relate, Relation
    from repro.cartridges.spatial.tiling import tessellate
    db = _spatial_db()
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    model = {}

    def geometry(value):
        return None if value is None else make_rect(gt, *value)

    for op in operations:
        kind = op[0]
        victims = sorted(model)
        if kind == "insert":
            ident = max(model, default=-1) + 1
            db.execute("INSERT INTO shapes VALUES (:1, :2)",
                       [ident, geometry(op[1])])
            model[ident] = op[1]
        elif kind == "rebuild":
            db.execute("ALTER INDEX shapes_sidx PARAMETERS ('')")
        elif not victims:
            continue
        elif kind == "update":
            ident = victims[op[1] % len(victims)]
            db.execute("UPDATE shapes SET shape = :1 WHERE id = :2",
                       [geometry(op[2]), ident])
            model[ident] = op[2]
        elif kind == "delete":
            ident = victims[op[1] % len(victims)]
            db.execute("DELETE FROM shapes WHERE id = :1", [ident])
            del model[ident]
        else:
            low = victims[op[1] % len(victims)]
            db.execute("DELETE FROM shapes WHERE id BETWEEN :1 AND :2",
                       [low, low + op[2]])
            for ident in range(low, low + op[2] + 1):
                model.pop(ident, None)

    rid_of = {ident: rid for rid, ident in db.query(
        "SELECT rowid, id FROM shapes")}
    expected = sorted(
        (rid_of[ident].sort_key, t.grpcode, t.code, t.maxcode)
        for ident, value in model.items() if value is not None
        for t in tessellate(geometry(value)))
    got = sorted((rid.sort_key, grp, code, maxcode)
                 for rid, grp, code, maxcode in db.query(
                     "SELECT rid, grpcode, code, maxcode"
                     " FROM shapes_sidx_tiles"))
    assert got == expected

    query = geometry(window)
    got = sorted(r[0] for r in db.query(
        "SELECT id FROM shapes WHERE"
        " Sdo_Relate(shape, :1, 'mask=ANYINTERACT') = 1", [query]))
    assert got == sorted(
        ident for ident, value in model.items() if value is not None
        and relate(geometry(value), query) is not Relation.DISJOINT)
