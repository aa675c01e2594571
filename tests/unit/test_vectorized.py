"""Vectorized columnar execution: kernels, fallbacks, knobs, stats.

The vectorized pipeline (:mod:`repro.sql.columnar` plus the vector
kernels in :mod:`repro.sql.compile`) is only allowed to be *faster*
than the reference interpreter — never different.  These tests pin the
EXPLAIN annotation, the per-batch fallback contract (kernel errors
re-run the batch on the interpreter and surface the same error
classes), the
``user_executor_stats`` dictionary view, and the ColumnBatch /
selection-vector plumbing itself.
"""

import math
import random

import pytest

from repro.errors import ExecutionError
from repro.sql.columnar import ColumnBatch, ExecutorStats
from repro.sql.engine import Engine
from repro.sql.executor import _FOLD_CHUNK_ROWS
from repro.storage.heap import PageRowIds
from repro.storage.page import Page
from repro.testing import interpreter_forced, scanned
from repro.types.values import NULL

pytestmark = pytest.mark.vectorized


def _populate(db, n=300, seed=7):
    db.execute("CREATE TABLE t (id INTEGER, grp VARCHAR2(8), val NUMBER)")
    rng = random.Random(seed)
    for i in range(n):
        val = NULL if rng.random() < 0.25 else round(rng.uniform(-5, 5), 3)
        db.execute("INSERT INTO t VALUES (:1, :2, :3)",
                   [i, f"g{i % 5}", val])
    return db


# ---------------------------------------------------------------------------
# ColumnBatch plumbing
# ---------------------------------------------------------------------------

class TestColumnBatch:
    def test_from_rows_round_trips_through_iter_rows(self):
        rows = [(rid, [rid * 2, f"s{rid}"]) for rid in range(5)]
        batch = ColumnBatch.from_rows([rid for rid, __ in rows],
                                      [r for __, r in rows])
        assert batch.n == 5
        assert batch.selected_count() == 5
        assert [(rid, list(row)) for rid, row in batch.iter_rows()] \
            == [(rid, row) for rid, row in rows]
        assert [type(col) for col in batch.columns] == [tuple, tuple]

    def test_selection_vector_restricts_iteration(self):
        batch = ColumnBatch.from_rows(list(range(10)),
                                      [[i] for i in range(10)])
        batch.sel = [1, 4, 7]
        assert batch.selected_count() == 3
        assert [row[0] for __, row in batch.iter_rows()] == [1, 4, 7]

    def test_page_rowids_build_rowids_on_access(self):
        rowids = PageRowIds(3, 9, [0, 2, 5])
        assert len(rowids) == 3
        assert rowids[1] == (3, 9, 2)
        assert rowids[1] is not rowids[1]  # built per read: compare by ==
        assert list(rowids) == [(3, 9, s) for s in (0, 2, 5)]
        batch = ColumnBatch(PageRowIds(3, 9, range(2)), [["a", "b"]])
        batch.sel = [1]
        assert list(batch.iter_rows()) == [((3, 9, 1), ["b"])]

    def test_executor_stats_snapshot_and_histogram(self):
        stats = ExecutorStats()
        stats.record_vector_batch(10)
        stats.record_vector_batch(500)
        stats.record_fallback_batch()
        stats.record_factory_decline()
        stats.record_materialize_boundary()
        stats.record_vector_batch(16)
        snap = stats.snapshot()
        assert snap == {
            "vector_batches": 3, "vector_rows": 526, "fallback_batches": 1,
            "factory_declines": 1, "materialize_boundaries": 1,
            # only buckets that saw a batch, in bucket order
            "batch_size_histogram": {"<=16": 2, "<=1024": 1}}
        assert list(snap["batch_size_histogram"]) == ["<=16", "<=1024"]
        stats.reset()
        assert stats.snapshot() == ExecutorStats().snapshot()


# ---------------------------------------------------------------------------
# EXPLAIN annotation
# ---------------------------------------------------------------------------

class TestExplain:
    def test_vectorized_marker_on_eligible_scan(self, db):
        _populate(db, n=40)
        lines = db.explain("SELECT id, val FROM t WHERE id > 3")
        assert any("TABLE SCAN" in ln and "[VECTORIZED]" in ln
                   for ln in lines)
        assert any(ln.strip().startswith("PROJECT")
                   and "[VECTORIZED]" in ln for ln in lines)

    def test_row_fallback_marker_on_pseudo_column_filter(self, db):
        """rowid is not a packable column vector: the scan still runs
        compiled, but on the row path — mirroring [INTERPRETED]."""
        _populate(db, n=40)
        lines = db.explain("SELECT id FROM t WHERE rowid = :1")
        scan = next(ln for ln in lines if "TABLE SCAN" in ln)
        assert "[ROW]" in scan and "[COMPILED]" in scan

    def test_forced_interpreter_runs_no_vector_batches(self, db):
        """The interpreter seam leaves the plan (and its markers)
        alone and ignores every generated artifact on it."""
        _populate(db)
        sql = "SELECT id FROM t WHERE id > 3"
        expected = db.execute(sql).fetchall()
        before = db.engine.executor_stats.snapshot()["vector_batches"]
        with interpreter_forced(db):
            assert any("[VECTORIZED]" in ln for ln in db.explain(sql))
            assert db.execute(sql).fetchall() == expected
        assert db.engine.executor_stats.snapshot()[
            "vector_batches"] == before
        assert len(expected) == 296


class TestExplainTruth:
    """A scan EXPLAIN marks ``[VECTORIZED]`` runs vector batches, and one
    it marks ``[ROW]`` runs none, whatever the table's storage."""

    #: (the scan line's start, sql); ``rowid = :1`` has no kernel
    CASES = [
        ("TABLE SCAN h", "SELECT k FROM h WHERE v = 3"),
        ("TABLE SCAN h", "SELECT k FROM h"),
        ("TABLE SCAN h", "SELECT k FROM h WHERE rowid = :1"),
        ("TABLE SCAN kv", "SELECT k FROM kv WHERE v = 3"),
        ("TABLE SCAN kv", "SELECT k, v FROM kv WHERE v > 1 ORDER BY v, k"),
        ("TABLE SCAN kv", "SELECT v, COUNT(*) FROM kv WHERE k > 9"
                          " GROUP BY v"),
        ("TABLE SCAN kv", "SELECT k FROM kv WHERE rowid = :1"),
        ("IOT PREFIX SCAN kv", "SELECT v FROM kv WHERE k = 5"),
        ("IOT PREFIX SCAN kv", "SELECT v FROM kv WHERE k = 5"
                               " AND rowid = :1"),
        ("INDEX RANGE SCAN h_k", "SELECT v FROM h WHERE k = 5"),
        ("INDEX RANGE SCAN h_k", "SELECT v FROM h WHERE k BETWEEN 3 AND 9"
                                 " AND v > 1"),
        ("INDEX RANGE SCAN h_k", "SELECT v FROM h WHERE k >= 995"
                                 " ORDER BY v"),
        ("TABLE SCAN user_tables", "SELECT table_name FROM user_tables"
                                   " WHERE table_name = 'H'"),
        ("TABLE SCAN user_tables", "SELECT table_name, num_rows"
                                   " FROM user_tables WHERE num_rows > 1"
                                   " ORDER BY num_rows"),
        ("TABLE SCAN user_tables", "SELECT table_name FROM user_tables"
                                   " WHERE rowid = :1"),
    ]

    @pytest.mark.parametrize("kind,sql", CASES)
    def test_a_scan_runs_as_explain_marks_it(self, db, kind, sql):
        db.execute("CREATE TABLE h (k INTEGER, v INTEGER)")
        db.execute("CREATE TABLE kv (k INTEGER, v INTEGER, PRIMARY KEY (k))"
                   " ORGANIZATION INDEX")
        for table in ("h", "kv"):
            db.insert_rows(table, [[i, i % 7] for i in range(1000)])
        db.execute("CREATE INDEX h_k ON h(k)")
        binds = [None] if ":1" in sql else []
        (scan,) = [ln.strip() for ln in db.explain(sql, binds)
                   if "SCAN" in ln]
        assert scan.startswith(kind), scan
        marker = "[VECTORIZED]" if "[VECTORIZED]" in scan else "[ROW]"
        assert marker in scan
        before = db.engine.executor_stats.snapshot()["vector_batches"]
        rows = db.execute(sql, binds).fetchall()
        ran = db.engine.executor_stats.snapshot()["vector_batches"] - before
        assert (ran > 0) == (marker == "[VECTORIZED]"), (scan, ran)
        with interpreter_forced(db):
            assert db.execute(sql, binds).fetchall() == rows


# ---------------------------------------------------------------------------
# fallback contract
# ---------------------------------------------------------------------------

class TestFallbackContract:
    def test_kernel_decline_bind_falls_back_whole_statement(self, db):
        """A NULL bind declines the kernel factory; results and stats
        must show the row path served the statement."""
        _populate(db)
        before = db.engine.executor_stats.snapshot()["factory_declines"]
        rows = db.execute("SELECT id FROM t WHERE val < :1",
                          [None]).fetchall()
        assert rows == []  # NULL comparison is never TRUE
        after = db.engine.executor_stats.snapshot()["factory_declines"]
        assert after > before

    def test_mid_batch_error_reruns_batch_on_the_interpreter(self, db):
        """A kernel exception must surface the interpreter's error
        class, not a raw Python traceback, via the per-batch re-run."""
        _populate(db)
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("SELECT id FROM t WHERE val / (id - 5) > 1"
                       " AND id < 50").fetchall()
        snap = db.engine.executor_stats.snapshot()
        assert snap["fallback_batches"] >= 1

    def test_fused_projection_error_matches_the_interpreter(self, db):
        _populate(db)
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("SELECT val / (id - 7) FROM t"
                       " WHERE id < 50").fetchall()

    def test_executor_stats_view_reports_activity(self, db):
        _populate(db)
        db.execute("SELECT id FROM t WHERE id > 100").fetchall()
        rows = db.execute("SELECT vector_batches, vector_rows,"
                          " batch_size_histogram"
                          " FROM user_executor_stats").fetchall()
        assert len(rows) == 1
        batches, vrows, histogram = rows[0]
        assert batches >= 1 and vrows >= 1
        assert ":" in histogram  # "bucket:count" pairs


# ---------------------------------------------------------------------------
# two-way differential: default execution == interpreter-forced
# ---------------------------------------------------------------------------

TWO_WAY_QUERIES = [
    ("SELECT id, val FROM t WHERE val < :1 AND id > :2", [1.5, 10]),
    ("SELECT id FROM t WHERE val IS NULL", []),
    ("SELECT id FROM t WHERE val IS NOT NULL AND grp = 'g2'", []),
    ("SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val)"
     " FROM t GROUP BY grp", []),
    ("SELECT grp, COUNT(val) FROM t GROUP BY grp"
     " HAVING COUNT(*) > 10", []),
    ("SELECT id FROM t WHERE id < 60 ORDER BY val DESC, id", []),
    ("SELECT id * 2 + 1, val FROM t WHERE id BETWEEN 5 AND 25", []),
    ("SELECT grp FROM t WHERE grp LIKE 'g%' AND id < 9", []),
    ("SELECT id FROM t WHERE grp IN ('g1', 'g3') AND val > 0", []),
    ("SELECT COUNT(*) FROM t", []),
    ("SELECT id FROM t WHERE NOT (val > 0 OR id < 100)", []),
    ("SELECT id FROM t WHERE val < :1", [None]),  # kernel-decline bind
    ("SELECT id, val FROM t WHERE id >= 0 LIMIT 17", []),
]


def _both_ways(db, sql, binds=()):
    """[default, interpreter-forced] outcomes of one statement: row
    reprs in order, or the error's class and message."""
    def run():
        try:
            return [tuple(map(repr, r))
                    for r in db.execute(sql, list(binds)).fetchall()]
        except Exception as exc:  # noqa: BLE001 - parity incl. errors
            return (type(exc).__name__, str(exc))
    generated = run()
    with interpreter_forced(db):
        return generated, run()


@pytest.mark.vectorized
class TestTwoWayDifferential:
    @pytest.fixture(scope="class")
    def data(self):
        """One dataset, NULL-heavy so validity handling is exercised on
        every query."""
        return _populate(Engine().connect(), n=400, seed=23)

    @pytest.mark.parametrize("sql,binds", TWO_WAY_QUERIES)
    def test_rows_agree(self, data, sql, binds):
        generated, interpreted = _both_ways(data, sql, binds)
        assert generated == interpreted, sql

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_predicates_agree(self, data, seed):
        rng = random.Random(seed)
        cols = ["id", "val"]
        comparisons = ["<", "<=", ">", ">=", "=", "!="]
        for __ in range(6):
            left = rng.choice(cols)
            op = rng.choice(comparisons)
            bound = round(rng.uniform(-4, 4), 2)
            conj = rng.choice(["AND", "OR"])
            null_side = rng.choice(["val IS NULL", "val IS NOT NULL",
                                    "grp LIKE 'g%'"])
            sql = (f"SELECT id, grp, val FROM t WHERE {left} {op} :1"
                   f" {conj} {null_side}")
            generated, interpreted = _both_ways(data, sql, [bound])
            assert generated == interpreted, sql

    def test_error_classes_agree_mid_batch(self, data):
        generated, interpreted = _both_ways(
            data, "SELECT id FROM t WHERE val / (id - 11) > 0 AND id < 40")
        assert generated == interpreted
        assert generated[0] == "ExecutionError"


# ---------------------------------------------------------------------------
# the grouped fold: many pages, more rows than one fold chunk
# ---------------------------------------------------------------------------

#: group keys in rotation: both nulls, ``1`` and ``1.0``; every 500th
#: row's key is an unhashable list instead (grouped by its repr)
_FOLD_KEYS = [1, 1.0, None, NULL, "1", 2.5]


def _fold_rows(n=_FOLD_CHUNK_ROWS + 900):
    return [[i, [1, 2] if i % 500 == 7 else _FOLD_KEYS[i % len(_FOLD_KEYS)],
             NULL if i % 11 == 0 else i % 7,
             NULL if i % 13 == 0 else (1e16, 1.0, -1e16)[i % 3],
             NULL if i % 5 == 0 else f"s{i * 7919 % 97:02d}"]
            for i in range(n)]


FOLD_QUERIES = [
    # null keys, 1 / 1.0, a key by repr; MIN / MAX over strings
    "SELECT k, COUNT(*), COUNT(x), SUM(x), MIN(s), MAX(s) FROM f"
    " GROUP BY k",
    # float sums whose value depends on the order of the additions
    "SELECT g, SUM(x), AVG(x), COUNT(DISTINCT s), COUNT(DISTINCT k)"
    " FROM f GROUP BY g",
    "SELECT k, g, COUNT(*), MAX(x) FROM f WHERE id BETWEEN 100 AND 4900"
    " GROUP BY k, g",
    # HAVING and the projection read each group's first row
    "SELECT g, id, COUNT(*) FROM f GROUP BY g HAVING id < 5",
    "SELECT SUM(x), MIN(id), MAX(s), COUNT(*) FROM f WHERE id > 10",
    # a filter that selects nothing
    "SELECT COUNT(*), SUM(x) FROM f WHERE id < 0",
    # SUM over strings raises the interpreter's error
    "SELECT g, SUM(s) FROM f GROUP BY g",
]


@pytest.mark.vectorized
class TestGroupedFoldTwoWay:
    @pytest.fixture(scope="class")
    def data(self):
        db = Engine().connect()
        db.execute("CREATE TABLE f (id INTEGER, k ANYDATA, g INTEGER,"
                   " x NUMBER, s VARCHAR2(8))")
        db.executemany("INSERT INTO f VALUES (:1, :2, :3, :4, :5)",
                       _fold_rows())
        assert db.catalog.get_table("f").storage.page_count > 10
        return db

    @pytest.mark.parametrize("sql", FOLD_QUERIES)
    def test_rows_and_order_agree(self, data, sql):
        assert any("GROUP BY" in ln and "[VECTORIZED]" in ln
                   for ln in data.explain(sql))
        generated, interpreted = _both_ways(data, sql)
        assert generated == interpreted, sql

    def test_the_corpus_reaches_each_case(self, data):
        keys = data.execute(FOLD_QUERIES[0]).fetchall()
        assert [repr(row[0]) for row in keys] \
            == ["1", "None", "'1'", "2.5", "[1, 2]"]
        assert data.execute(FOLD_QUERIES[-2]).fetchall() == [(0, NULL)]
        with pytest.raises(TypeError):
            data.execute(FOLD_QUERIES[-1]).fetchall()
        in_scan_order = {}
        for __, __, g, x, __ in _fold_rows():
            if g is not NULL and x is not NULL:
                in_scan_order.setdefault(g, []).append(x)
        naive = {}
        for g, xs in in_scan_order.items():
            naive[g] = 0
            for x in xs:
                naive[g] += x
        sums = dict(data.execute("SELECT g, SUM(x) FROM f"
                                 " WHERE g IS NOT NULL GROUP BY g").fetchall())
        assert sums == naive
        assert any(naive[g] != math.fsum(xs)
                   for g, xs in in_scan_order.items())


@pytest.mark.vectorized
class TestNullGroupKey:
    """Every null shares one group key, and no stored value equals it:
    a string that spells out a null marker is a group of its own.  (An
    ANYDATA column stores ``None`` as given; a VARCHAR2 reads NULL.)"""

    @pytest.fixture
    def data(self, db):
        db.execute("CREATE TABLE n (s VARCHAR2(8), k ANYDATA, x INTEGER)")
        db.executemany("INSERT INTO n VALUES (:1, :2, :3)", [
            [None, None, 1], ["\x00NULL", "\x00NULL", 2], ["a", [1], 3],
            [NULL, NULL, 4], ["\x00NULL", "\x00NULL", 5]])
        return db

    @pytest.mark.parametrize("sql, expected", [
        ("SELECT s, COUNT(*), SUM(x) FROM n GROUP BY s",
         [(NULL, 2, 5), ("\x00NULL", 2, 7), ("a", 1, 3)]),
        # the list is unhashable: its key goes by repr
        ("SELECT k, COUNT(*) FROM n GROUP BY k",
         [(None, 2), ("\x00NULL", 2), ([1], 1)]),
        ("SELECT s, k, COUNT(*) FROM n GROUP BY s, k",
         [(NULL, None, 2), ("\x00NULL", "\x00NULL", 2), ("a", [1], 1)]),
        ("SELECT DISTINCT s FROM n", [(NULL,), ("\x00NULL",), ("a",)]),
        ("SELECT DISTINCT s, k FROM n",
         [(NULL, None), ("\x00NULL", "\x00NULL"), ("a", [1])]),
    ])
    def test_both_paths_keep_the_string_apart(self, data, sql, expected):
        if "GROUP BY" in sql:
            assert any("GROUP BY" in ln and "[VECTORIZED]" in ln
                       for ln in data.explain(sql))
        generated, interpreted = _both_ways(data, sql)
        assert generated == interpreted
        assert generated == [tuple(map(repr, row)) for row in expected]


class TestLazyPageRowIds:
    """A heap page batch builds a rowid only for a row whose address a
    consumer reads; snapshot reads and page counts are unchanged."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts the rowids read out of heap page batches."""
        count = [0]
        getitem, iterate = PageRowIds.__getitem__, PageRowIds.__iter__

        def counting_getitem(rowids, i):
            count[0] += 1
            return getitem(rowids, i)

        def counting_iter(rowids):
            for rowid in iterate(rowids):
                count[0] += 1
                yield rowid
        monkeypatch.setattr(PageRowIds, "__getitem__", counting_getitem)
        monkeypatch.setattr(PageRowIds, "__iter__", counting_iter)
        return lambda: count[0]

    def test_a_fold_builds_one_per_group_and_a_filter_none(self, db, built):
        """Only a group's first row has its rowid read — ``SELECT rowid,
        COUNT(*)`` returns it, so a global aggregate builds one."""
        _populate(db)
        db.engine.prune_versions()
        storage = db.catalog.get_table("t").storage
        assert storage.page_count > 1
        assert storage.versions.tracked_rowids() == []
        count = "SELECT COUNT(*) FROM t WHERE val < 1"
        grouped = "SELECT grp, COUNT(*) FROM t WHERE id > 3 GROUP BY grp"
        projected = "SELECT id, val FROM t WHERE val < 1"
        for sql in (count, grouped, projected):
            assert any("[VECTORIZED]" in ln for ln in db.explain(sql)
                       if "TABLE SCAN" in ln)
        before = built()
        assert db.execute(count).fetchall()[0][0] > 100
        assert built() == before + 1
        assert len(db.execute(grouped).fetchall()) == 5
        assert built() == before + 6
        assert len(db.execute(projected).fetchall()) > 100
        assert built() == before + 6

    def test_a_pinned_snapshot_reads_past_an_in_flight_update(self):
        engine = Engine()
        writer, reader = engine.connect(), engine.connect()
        _populate(writer)
        engine.prune_versions()
        storage = engine.catalog.get_table("t").storage
        fold = "SELECT grp, COUNT(*), SUM(id), MAX(val) FROM t GROUP BY grp"
        scan = "SELECT id, grp, val FROM t WHERE id >= 0"
        assert any("GROUP BY" in ln and "[VECTORIZED]" in ln
                   for ln in reader.explain(fold))
        reader.execute("SET TRANSACTION READ ONLY")
        pinned = [reader.execute(fold).fetchall(),
                  reader.execute(scan).fetchall()]
        writer.begin()
        writer.execute("UPDATE t SET grp = 'moved', id = id + 1000"
                       " WHERE id < 9")
        assert storage.versions.tracked_rowids()  # heads on page 0
        assert [reader.execute(fold).fetchall(),
                reader.execute(scan).fetchall()] == pinned
        # rowids out of a vectorized filter address the rows they came with
        rows = reader.execute("SELECT rowid, id FROM t WHERE id < 50"
                              ).fetchall()
        assert any("TABLE SCAN" in ln and "[VECTORIZED]" in ln
                   for ln in reader.explain("SELECT rowid, id FROM t"
                                            " WHERE id < 50"))
        snapshot = engine.mvcc.take_snapshot(None)
        assert [row[0] for row in storage.fetch_batch(
                [rowid for rowid, __ in rows], snapshot)[1]] \
            == [i for __, i in rows] == list(range(50))
        assert [rowid for rowid, __ in rows] \
            == [rowid for rowid, __ in scanned(storage.scan_batches())][:50]
        writer.commit()
        assert [reader.execute(fold).fetchall(),
                reader.execute(scan).fetchall()] == pinned
        reader.commit()
        assert reader.execute(fold).fetchall() != pinned[0]

    def test_a_full_scan_reads_each_page_once(self, db):
        """On the column-image path, and on the slot-by-slot path a
        snapshot takes while a write on the table is in flight."""
        _populate(db)
        storage = db.catalog.get_table("t").storage
        pages = storage.page_count
        writer = db.engine.connect()
        for in_flight in (False, True):
            if in_flight:
                writer.begin()
                writer.execute("UPDATE t SET val = 0 WHERE id < 9")
                assert storage.versions.tracked_rowids()
            for sql in ("SELECT COUNT(*) FROM t WHERE val < 1",
                        "SELECT grp, SUM(val) FROM t GROUP BY grp",
                        "SELECT id FROM t WHERE val > 0 ORDER BY val",
                        "SELECT id, val FROM t WHERE grp = 'g2'"):
                db.execute(sql).fetchall()
                before = db.stats.logical_reads
                db.execute(sql).fetchall()
                assert db.stats.logical_reads - before == pages, sql
        writer.rollback()


class TestSharedColumnImage:
    """A full scan hands its consumers each page's column image itself:
    tuples, built once per page until the page is written, and written
    by no kernel, fused projection, ORDER BY or GROUP BY fold."""

    QUERIES = (
        "SELECT COUNT(*) FROM t WHERE val < 1",
        "SELECT id, val * 2 FROM t WHERE grp = 'g2' AND val > -4",
        "SELECT id FROM t WHERE val > 0 ORDER BY val DESC, id",
        "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val) FROM t"
        " GROUP BY grp")

    @pytest.fixture
    def images(self, monkeypatch):
        """Every column image a scan was handed, by identity, with a
        copy of its values as first handed out."""
        seen = {}
        columns_of = Page.columns

        def spy(page):
            live, columns = columns_of(page)
            seen.setdefault(id(columns),
                            (columns, [list(col) for col in columns]))
            return live, columns
        monkeypatch.setattr(Page, "columns", spy)
        return seen

    def test_consumers_share_the_image_and_never_write_it(self, db, images):
        _populate(db)
        db.engine.prune_versions()
        pages = db.catalog.get_table("t").storage.page_count
        xstats = db.engine.executor_stats
        for sql in self.QUERIES:
            lines = db.explain(sql)
            scan = next(i for i, ln in enumerate(lines) if "TABLE SCAN" in ln)
            # the scan and the consumer above it run on the columns
            assert all("[VECTORIZED]" in ln
                       for ln in lines[scan - 1:scan + 1]), sql
            with interpreter_forced(db):
                expected = db.execute(sql).fetchall()
            fallbacks = xstats.fallback_batches
            for __ in range(2):
                assert db.execute(sql).fetchall() == expected, sql
            assert xstats.fallback_batches == fallbacks, sql
        assert len(images) == pages
        for columns, copy in images.values():
            assert all(type(col) is tuple for col in columns)
            assert [list(col) for col in columns] == copy

    def test_a_write_rebuilds_the_image_of_its_page_only(self, db, images):
        _populate(db)
        db.engine.prune_versions()
        storage = db.catalog.get_table("t").storage
        count = self.QUERIES[0]
        db.execute(count).fetchall()
        assert len(images) == storage.page_count
        db.execute("UPDATE t SET val = 0 WHERE id = 0")
        with interpreter_forced(db):
            expected = db.execute(count).fetchall()
        assert db.execute(count).fetchall() == expected
        assert len(images) == storage.page_count + 1


# ---------------------------------------------------------------------------
# index-driven plans: rowid batches as a second ColumnBatch source
# ---------------------------------------------------------------------------

def _populate_indexed(db, n=400, seed=23):
    _populate(db, n=n, seed=seed)
    db.execute("CREATE INDEX t_id ON t(id)")
    db.execute("CREATE INDEX t_grp ON t(grp)")
    return db


class TestIndexDrivenMarkers:
    def test_index_scan_with_residual_is_vectorized(self, db):
        _populate_indexed(db)
        lines = db.explain("SELECT id, val FROM t WHERE id >= 350"
                           " AND val < 1")
        scan = next(ln for ln in lines if "INDEX RANGE SCAN" in ln)
        assert "[COMPILED]" in scan and "[VECTORIZED]" in scan
        assert any(ln.strip().startswith("PROJECT")
                   and "[VECTORIZED]" in ln for ln in lines)

    def test_filterless_index_scan_fuses_under_projection_only(self, db):
        _populate_indexed(db)
        fused = db.explain("SELECT val FROM t WHERE id = 7")
        assert "[VECTORIZED]" in next(
            ln for ln in fused if "INDEX RANGE SCAN" in ln)
        sorted_rows = db.explain("SELECT val FROM t WHERE id >= 390"
                                 " ORDER BY val")
        assert "[ROW]" in next(
            ln for ln in sorted_rows if "INDEX RANGE SCAN" in ln)

    def test_pseudo_column_residual_stays_on_row_path(self, db):
        _populate_indexed(db)
        lines = db.explain("SELECT id FROM t WHERE id >= 390"
                           " AND rowid = :1")
        scan = next(ln for ln in lines if "INDEX RANGE SCAN" in ln)
        assert "[ROW]" in scan and "[COMPILED]" in scan


class TestIndexDrivenFallbacks:
    def test_declined_kernel_sends_statement_to_row_path(self, db):
        _populate_indexed(db)
        before = db.engine.executor_stats.snapshot()
        rows = db.execute("SELECT id FROM t WHERE id >= 300 AND val < :1",
                          [None]).fetchall()
        assert rows == []
        after = db.engine.executor_stats.snapshot()
        assert after["factory_declines"] > before["factory_declines"]
        assert after["vector_batches"] == before["vector_batches"]

    def test_mid_batch_error_reruns_that_batch_on_the_interpreter(self, db):
        _populate_indexed(db)
        before = db.engine.executor_stats.snapshot()["fallback_batches"]
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("SELECT id FROM t WHERE id BETWEEN 300 AND 390"
                       " AND val / (id - 350) > 0").fetchall()
        assert db.engine.executor_stats.snapshot()[
            "fallback_batches"] > before

    def test_rowids_are_fetched_a_chunk_at_a_time(self, db):
        """fetchone()-then-close and LIMIT stop after the first
        ``fetch_batch_size`` chunk of the probe."""
        _populate_indexed(db)
        storage = db.catalog.get_table("t").storage
        calls = []
        original = storage.fetch_batch

        def spy(rowids, *args):
            calls.append(len(rowids))
            return original(rowids, *args)

        storage.fetch_batch = spy
        try:
            cursor = db.execute("SELECT id FROM t WHERE id >= 0")
            assert cursor.fetchone() == (0,)
            cursor.close()
            assert calls == [db.fetch_batch_size]
            del calls[:]
            rows = db.execute("SELECT id FROM t WHERE id >= 10"
                              " AND val IS NOT NULL LIMIT 3").fetchall()
            assert len(rows) == 3
            assert calls == [db.fetch_batch_size]
            del calls[:]
            # no residual: every fetched row is an output row, so the
            # LIMIT's row budget sizes the chunk
            rows = db.execute("SELECT id FROM t WHERE id >= 10"
                              " LIMIT 3").fetchall()
            assert rows == [(10,), (11,), (12,)]
            assert calls == [3]
            del calls[:]
            # a drained probe doubles its chunk (up to 8x) so a long
            # range shares pages and kernel entries across fewer batches
            assert len(db.execute("SELECT id FROM t WHERE id >= 0"
                                  ).fetchall()) == 400
            assert calls == [32, 64, 128, 176]
        finally:
            del storage.fetch_batch


INDEXED_TWO_WAY_QUERIES = [
    ("SELECT id, val FROM t WHERE id = :1", [123]),
    ("SELECT id, val FROM t WHERE id >= :1 AND val < :2", [250, 0.5]),
    ("SELECT id, grp FROM t WHERE id > :1 AND id <= :2", [17, 140]),
    ("SELECT id, val FROM t WHERE id BETWEEN :1 AND :2 AND val IS NULL",
     [40, 300]),
    ("SELECT id * 2, val FROM t WHERE id BETWEEN 5 AND 95"
     " AND NOT (val > 0 OR grp LIKE 'g1%')", []),
    ("SELECT id, val FROM t WHERE grp = :1 AND val > :2", ["g3", -1]),
    ("SELECT id FROM t WHERE id BETWEEN :1 AND :2 AND val < :3"
     " ORDER BY val DESC, id", [100, 300, 2.0]),
    ("SELECT grp, COUNT(*), MIN(val) FROM t WHERE id >= :1 AND id < :2"
     " GROUP BY grp", [50, 350]),
    ("SELECT id FROM t WHERE id >= :1 AND val < :2", [100, None]),
    ("SELECT id FROM t WHERE id BETWEEN :1 AND :2", [None, 99]),
    ("SELECT id FROM t WHERE id >= :1 AND val IS NOT NULL LIMIT 9", [200]),
]


@pytest.mark.vectorized
class TestIndexDrivenTwoWay:
    @pytest.fixture(scope="class")
    def data(self):
        return _populate_indexed(Engine().connect())

    @pytest.mark.parametrize("sql,binds", INDEXED_TWO_WAY_QUERIES)
    def test_rows_and_order_agree(self, data, sql, binds):
        assert any("INDEX" in ln for ln in data.explain(sql, list(binds)))
        generated, interpreted = _both_ways(data, sql, binds)
        assert generated == interpreted, sql
