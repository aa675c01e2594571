"""Index maintenance costs what the row costs — counted, not timed.

A domain index stored in database tables is maintained by callbacks
that know the row's *old* value, so they can address the row's index
entries instead of searching the index table for them.  These tests
count the index-table rows a statement reads (through spies on the
storage's read entry points) and the version resolutions a scan makes;
both repeat exactly, so the assertions are equalities, and every one of
them fails when maintenance scans the index table by rowid or when a
snapshot scan overlays the table's whole history.
"""

import random
from contextlib import contextmanager

import pytest

from repro import Database
from repro.cartridges.spatial import install as install_spatial
from repro.cartridges.spatial import make_rect
from repro.cartridges.spatial.tiling import tessellate
from repro.cartridges.text import install as install_text

VOCABULARY = [f"w{i:03d}" for i in range(400)]
WORDS_PER_DOC = 8


@contextmanager
def rows_read(db, table_name):
    """Count the rows a table's storage hands to whoever searches it:
    what scans yield, what rowid batches fetch, what keyed lookups find.
    ``with rows_read(db, t) as read: ...; read()`` is the count."""
    storage = db.catalog.get_table(table_name).storage
    count = [0]
    saved = {}

    def spy(name, measure):
        real = getattr(storage, name, None)
        if real is None:
            return
        saved[name] = real

        def wrapper(*args, **kwargs):
            return measure(real(*args, **kwargs))
        setattr(storage, name, wrapper)

    def each(per_item):
        def measure(iterator):
            for item in iterator:
                count[0] += per_item(item)
                yield item
        return measure

    def once(per_result):
        def measure(result):
            count[0] += per_result(result)
            return result
        return measure

    # index-organized table
    for name in ("scan", "key_prefix_scan", "key_range_scan"):
        spy(name, each(lambda pair: 1))
    spy("locate", once(lambda found: found is not None))
    # heap table
    spy("scan_batches", each(len))
    spy("scan_batches_columnar", each(lambda batch: len(batch[0])))
    spy("fetch_batch", once(lambda found: len(found[0])))
    try:
        yield lambda: count[0]
    finally:
        for name in saved:
            delattr(storage, name)


def _doc(rng):
    return " ".join(rng.sample(VOCABULARY, WORDS_PER_DOC))


def _text_db(n_rows, seed=7):
    """``n_rows`` documents; row 0 is the same at every size."""
    db = Database()
    install_text(db)
    rng = random.Random(seed)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(400))")
    rows = [[0, "w001 w002 w003 w004 w005 w006 w007 w008"],
            [1, "w001 w002 w011 w012 w013 w014 w015 w016"]]
    rows += [[i, _doc(rng)] for i in range(2, n_rows)]
    db.insert_rows("docs", rows)
    db.execute("CREATE INDEX docs_id ON docs(id)")
    db.execute("CREATE INDEX docs_tidx ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    return db


def _spatial_db(n_rows, seed=7):
    """``n_rows`` rectangles.  Rows 0 and 1 lie alone in the group-code
    tile [0, 256)^2; every other row lies at x, y >= 300."""
    db = Database()
    install_spatial(db)
    rng = random.Random(seed)
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    db.execute("CREATE TABLE shapes (id INTEGER, shape SDO_GEOMETRY)")
    rows = [[0, make_rect(gt, 40, 40, 100, 90)],
            [1, make_rect(gt, 130, 150, 170, 200)]]
    for i in range(2, n_rows):
        x, y = rng.uniform(300, 950), rng.uniform(300, 950)
        rows.append([i, make_rect(gt, x, y, x + rng.uniform(5, 60),
                                  y + rng.uniform(5, 60))])
    db.insert_rows("shapes", rows)
    db.execute("CREATE INDEX shapes_id ON shapes(id)")
    db.execute("CREATE INDEX shapes_sidx ON shapes(shape)"
               " INDEXTYPE IS SpatialIndexType")
    return db


class TestOneRowMaintenance:
    """A one-row UPDATE and a one-row DELETE read the same number of
    index-table rows at 200 and at 2 000 base rows."""

    @pytest.mark.parametrize("n_rows", [200, 2000])
    def test_text_update_and_delete(self, n_rows):
        db = _text_db(n_rows)
        terms = "docs_tidx_terms"
        postings = db.execute(f"SELECT COUNT(*) FROM {terms}").fetchall()[0][0]
        assert postings == n_rows * WORDS_PER_DOC
        with rows_read(db, terms) as read:
            # two words stay, six leave, six enter
            db.execute("UPDATE docs SET body = :1 WHERE id = 0",
                       ["w001 w002 w021 w022 w023 w024 w025 w026"])
            assert read() == 6
        with rows_read(db, terms) as read:
            db.execute("DELETE FROM docs WHERE id = 1")
            assert read() == WORDS_PER_DOC
        assert db.execute(f"SELECT COUNT(*) FROM {terms}").fetchall() == [
            (postings - WORDS_PER_DOC,)]
        assert db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'w021')"
        ).fetchall()[0] == (0,)

    @pytest.mark.parametrize("n_rows", [200, 2000])
    def test_spatial_update_and_delete(self, n_rows):
        db = _spatial_db(n_rows)
        tiles = "shapes_sidx_tiles"
        gt = db.catalog.get_object_type("SDO_GEOMETRY")
        own = {i: len(tessellate(make_rect(gt, *box))) for i, box in
               ((0, (40, 40, 100, 90)), (1, (130, 150, 170, 200)))}
        # the two rows' tiles are all there is in group code 0
        assert db.execute(f"SELECT COUNT(*) FROM {tiles} WHERE grpcode = 0"
                          ).fetchall() == [(own[0] + own[1],)]
        with rows_read(db, tiles) as read:
            db.execute("UPDATE shapes SET shape = :1 WHERE id = 0",
                       [make_rect(gt, 50, 60, 90, 120)])
            # one probe of the grpcode B-tree: the group's tiles
            assert read() == own[0] + own[1]
        moved = len(tessellate(make_rect(gt, 50, 60, 90, 120)))
        with rows_read(db, tiles) as read:
            db.execute("DELETE FROM shapes WHERE id = 1")
            assert read() == moved + own[1]
        assert db.execute(f"SELECT COUNT(*) FROM {tiles} WHERE grpcode = 0"
                          ).fetchall() == [(moved,)]

    def test_spatial_delete_reads_the_groups_of_the_old_cover_only(self):
        """Within a group code the probe is linear in that group's
        tiles: the B-tree is on ``grpcode`` alone.  What it never reads
        is a tile of any other group."""
        db = _spatial_db(600)
        tiles = "shapes_sidx_tiles"
        rid, shape = db.execute(
            "SELECT rowid, shape FROM shapes WHERE id = 300").fetchall()[0]
        groups = sorted({t.grpcode for t in tessellate(shape)})
        in_groups = sum(
            db.execute(f"SELECT COUNT(*) FROM {tiles} WHERE grpcode = :1",
                       [g]).fetchall()[0][0] for g in groups)
        total = db.execute(f"SELECT COUNT(*) FROM {tiles}").fetchall()[0][0]
        with rows_read(db, tiles) as read:
            db.execute("DELETE FROM shapes WHERE id = 300")
            assert read() == in_groups
        assert in_groups < total / 3
        assert db.execute(f"SELECT COUNT(*) FROM {tiles} WHERE rid = :1",
                          [rid]).fetchall() == [(0,)]


class TestBatchDelete:
    def test_hundred_document_delete_reads_their_postings(self):
        """The 100-row DELETE that took 20.6 s as 100 scans of the
        postings table reads the 100 documents' postings."""
        db = _text_db(2000)
        terms = "docs_tidx_terms"
        doomed = db.execute(
            "SELECT body FROM docs WHERE id BETWEEN 500 AND 599").fetchall()
        assert len(doomed) == 100
        own = sum(len(set(body.split())) for (body,) in doomed)
        before = db.execute(f"SELECT COUNT(*) FROM {terms}").fetchall()[0][0]
        with rows_read(db, terms) as read:
            db.execute("DELETE FROM docs WHERE id BETWEEN 500 AND 599")
            assert read() == own
        assert db.execute(f"SELECT COUNT(*) FROM {terms}").fetchall() == [
            (before - own,)]


class TestScanAfterMaintenance:
    def test_contains_resolves_the_same_rows_after_500_inserts(self):
        """A snapshot prefix scan resolves at most the postings in
        bounds, and none once the table has settled: an index grown by
        500 committed one-row inserts costs a single-term Contains what
        a fresh build of the same rows costs — no resolution at all."""
        rng = random.Random(11)
        base = [[i, _doc(rng)] for i in range(300)]
        extra = [[i, _doc(rng)] for i in range(300, 800)]

        def build(loaded, inserted):
            db = Database()
            install_text(db)
            db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(400))")
            db.insert_rows("docs", loaded)
            db.execute("CREATE INDEX docs_tidx ON docs(body)"
                       " INDEXTYPE IS TextIndexType")
            for row in inserted:
                db.execute("INSERT INTO docs VALUES (:1, :2)", row)
            return db

        def resolutions(db, word):
            versions = db.catalog.get_table("docs_tidx_terms").storage.versions
            calls = [0]
            real = versions.resolve

            def counting(rowid, current, snapshot):
                calls[0] += 1
                return real(rowid, current, snapshot)
            versions.resolve = counting
            try:
                rows = db.execute(
                    "SELECT id FROM docs WHERE Contains(body, :1)", [word]
                ).fetchall()
            finally:
                del versions.resolve
            return calls[0], sorted(rows)

        grown = build(base, extra)
        fresh = build(base + extra, [])
        for db in (grown, fresh):
            # plan the statement: ODCIStatsIndexCost reads a posting
            # list of its own, once, before the plan is cached
            resolutions(db, "w000")
        # the last inserts' postings are still mapped (no pass since):
        # the scan resolves the entries in bounds, whatever the history
        calls, rows = resolutions(grown, "w007")
        assert rows and calls <= len(rows)
        for db in (grown, fresh):
            db.engine.prune_versions()
            storage = db.catalog.get_table("docs_tidx_terms").storage
            assert storage.versions.tracked_rowids() == []
            assert storage.ghost_count == 0
        for word in ("w007", "w123", "w399"):
            grown_calls, grown_rows = resolutions(grown, word)
            fresh_calls, fresh_rows = resolutions(fresh, word)
            assert grown_rows == fresh_rows and grown_rows
            assert grown_calls == fresh_calls == 0
