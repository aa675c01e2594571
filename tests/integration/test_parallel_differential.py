"""Differential proof: generated == interpreter.

Identically-seeded databases run the same randomized workload over a
two-way matrix — default execution (vector kernels, generated row
functions) and the tree-walking interpreter forced through
:func:`repro.testing.interpreter_forced`.  Every query result must be
identical, across heap tables, IOTs, native indexes and all four
cartridges' domain scans: generated code must never be observable in
results.

A final stress test runs mixed DML, scans and domain scans from eight
threads against one shared engine, holding the invariants that survive
arbitrary interleavings (counts, commit atomicity).
"""

import random
import threading

import pytest

from repro import Database
from repro.testing import interpreter_forced


def _fleet(installer=None):
    """Two fresh databases spanning the execution matrix: default
    (generated code) and the tree-walking interpreter; ``installer``
    installs a cartridge in both.  Every query result must be identical
    across them."""
    dbs = []
    for interpreted in (False, True):
        db = Database()
        if interpreted:
            # never exited: the member is interpreted for its lifetime
            interpreter_forced(db).__enter__()
        if installer is not None:
            installer(db)
        dbs.append(db)
    return dbs


def _outcome(db, sql, binds=()):
    """Rows in output order, or the error's class and message — the
    unit of parity for statements that may fail."""
    try:
        return db.execute(sql, list(binds)).fetchall()
    except Exception as exc:  # noqa: BLE001 - parity incl. errors
        return (type(exc).__name__, str(exc))


def _run_all(dbs, fn):
    results = [fn(db) for db in dbs]
    for other in results[1:]:
        assert results[0] == other
    return results[0]


@pytest.mark.vectorized
class TestHeapAndIOT:
    def test_heap_randomized_predicates(self):
        dbs = _fleet()

        def workload(db):
            rng = random.Random(23)
            out = []
            db.execute("CREATE TABLE t (k INTEGER, grp VARCHAR2(10),"
                       " val NUMBER)")
            for i in range(600):
                db.execute("INSERT INTO t VALUES (:1, :2, :3)", [
                    i,
                    None if i % 17 == 0 else f"g{i % 6}",
                    None if i % 13 == 0 else rng.random()])
            predicates = [
                ("val < :1", lambda: [rng.random()]),
                ("val >= :1 AND grp = :2",
                 lambda: [rng.random(), f"g{rng.randrange(6)}"]),
                ("NOT (val < :1 OR grp LIKE 'g1%')", lambda: [rng.random()]),
                ("k BETWEEN :1 AND :2",
                 lambda: sorted([rng.randrange(600), rng.randrange(600)])),
                ("NOT (k BETWEEN :1 AND :2)",
                 lambda: sorted([rng.randrange(600), rng.randrange(600)])),
                ("grp IN ('g0', 'g3', :1)", lambda: [f"g{rng.randrange(6)}"]),
                ("grp NOT IN ('g2', :1)", lambda: [f"g{rng.randrange(6)}"]),
                ("val IS NULL OR grp IS NULL", lambda: []),
                ("val * 2 - :1 > 0.5", lambda: [rng.random()]),
                ("val < :1", lambda: [None]),  # NULL bind declines codegen
            ]
            for __ in range(40):
                pred, make_binds = rng.choice(predicates)
                out.append(db.execute(
                    f"SELECT k, grp, val FROM t WHERE {pred}",
                    make_binds()).fetchall())
            # sort, group, fold and limit downstream of the scan
            out.append(db.execute(
                "SELECT k, val FROM t WHERE val < 0.8"
                " ORDER BY val DESC, k").fetchall())
            out.append(db.execute(
                "SELECT grp, COUNT(*), SUM(k) FROM t WHERE val < 0.9"
                " GROUP BY grp ORDER BY grp").fetchall())
            out.append(db.execute(
                "SELECT COUNT(*), SUM(val) FROM t WHERE k < 400"
            ).fetchall())
            out.append(db.execute(
                "SELECT k FROM t WHERE val < 0.7 ORDER BY k LIMIT 25"
            ).fetchall())
            return out

        _run_all(dbs, workload)
        # the leading database really did vectorize
        assert dbs[0].engine.executor_stats.snapshot()["vector_batches"] > 0

    def test_mid_batch_fallback_parity(self):
        """A kernel that raises mid-batch re-runs that batch on the
        interpreter: same rows before the error, same error class, on
        every configuration."""
        dbs = _fleet()

        def workload(db):
            db.execute("CREATE TABLE t (k INTEGER, val NUMBER)")
            for i in range(300):
                db.execute("INSERT INTO t VALUES (:1, :2)",
                           [i, None if i % 11 == 0 else float(i)])
            try:
                db.execute("SELECT k FROM t"
                           " WHERE val / (k - 150) > 0").fetchall()
                return ("ok",)
            except Exception as exc:  # noqa: BLE001 - parity incl. errors
                return (type(exc).__name__, str(exc))

        outcome = _run_all(dbs, workload)
        assert outcome[0] == "ExecutionError"
        assert dbs[0].engine.executor_stats.snapshot()[
            "fallback_batches"] >= 1

    def test_heap_scans_interleaved_with_dml(self):
        dbs = _fleet()

        def workload(db):
            rng = random.Random(31)
            out = []
            db.execute("CREATE TABLE t (k INTEGER, val NUMBER)")
            for i in range(400):
                db.execute("INSERT INTO t VALUES (:1, :2)",
                           [i, rng.random()])
            for __ in range(30):
                op = rng.random()
                k = rng.randrange(400)
                if op < 0.35:
                    db.execute("UPDATE t SET val = :1 WHERE k = :2",
                               [rng.random(), k])
                elif op < 0.5:
                    db.execute("DELETE FROM t WHERE k = :1", [k])
                else:
                    out.append(db.execute(
                        "SELECT k, val FROM t WHERE val < :1 AND k >= :2",
                        [rng.random(), k // 2]).fetchall())
            out.append(db.execute("SELECT COUNT(*) FROM t").fetchall())
            return out

        _run_all(dbs, workload)

    def test_iot_scans_identical(self):
        # IOTs expose no columnar scan; the execution settings must be
        # a no-op for them, not an error
        dbs = _fleet()

        def workload(db):
            out = []
            db.execute("CREATE TABLE p (k INTEGER, v VARCHAR2(20),"
                       " PRIMARY KEY (k)) ORGANIZATION INDEX")
            for i in range(200):
                db.execute("INSERT INTO p VALUES (:1, :2)",
                           [i, f"v{i % 11}"])
            out.append(db.execute(
                "SELECT k, v FROM p WHERE k >= 40 AND k < 160").fetchall())
            out.append(db.execute(
                "SELECT v, COUNT(*) FROM p GROUP BY v ORDER BY v"
            ).fetchall())
            return out

        _run_all(dbs, workload)


@pytest.mark.vectorized
class TestIndexDrivenPlans:
    """Index-returned rowids go through one batched base-table fetch;
    the residual filter runs as a vector kernel over the fetched batch
    or as a row function.  Neither may be observable: rows, their order
    (probe order), and error classes agree across the matrix."""

    @staticmethod
    def _load(db):
        rng = random.Random(41)
        db.execute("CREATE TABLE t (k INTEGER, grp VARCHAR2(10),"
                   " tag VARCHAR2(4), val NUMBER)")
        db.insert_rows("t", [
            [i,
             None if i % 17 == 0 else f"g{i % 40}",
             None if i % 9 == 0 else f"t{i % 25}",
             None if i % 5 == 0 else round(rng.uniform(-3, 3), 3)]
            for i in range(1200)])
        db.execute("CREATE TABLE dims (id INTEGER, name VARCHAR2(10))")
        db.insert_rows("dims", [[i, f"d{i}"] for i in range(0, 1200, 7)])
        db.execute("CREATE INDEX t_k ON t(k)")
        db.execute("CREATE HASH INDEX t_grp ON t(grp)")
        db.execute("CREATE BITMAP INDEX t_tag ON t(tag)")
        db.execute("COMMIT")

    def test_native_index_scans_agree(self):
        dbs = _fleet()
        cases = [
            # (sql, binds, plan line that must appear)
            ("SELECT k, val FROM t WHERE k = :1", [77], "INDEX RANGE SCAN"),
            ("SELECT k, grp, val FROM t WHERE k >= :1 AND val < :2",
             [1100, 0.5], "INDEX RANGE SCAN"),
            ("SELECT k, val FROM t WHERE k > :1 AND k <= :2 AND val IS NULL",
             [200, 420], "INDEX RANGE SCAN"),
            ("SELECT k, tag FROM t WHERE k BETWEEN :1 AND :2"
             " AND NOT (val > 0 OR tag LIKE 't1%')", [300, 700],
             "INDEX RANGE SCAN"),
            ("SELECT k, val FROM t WHERE grp = :1 AND val < :2",
             ["g7", 1.0], "HASH INDEX SCAN"),
            ("SELECT k, grp FROM t WHERE tag = :1 AND val IS NOT NULL"
             " AND k < :2", ["t3", 900], "BITMAP INDEX SCAN"),
            # row consumers above the scan: sort, group, limit
            ("SELECT k, val FROM t WHERE k BETWEEN :1 AND :2 AND val < :3"
             " ORDER BY val DESC, k", [100, 600, 1.5], "INDEX RANGE SCAN"),
            ("SELECT grp, COUNT(*), SUM(val) FROM t WHERE k >= :1"
             " AND k < :2 GROUP BY grp ORDER BY grp", [50, 450],
             "INDEX RANGE SCAN"),
            ("SELECT k FROM t WHERE k >= :1 AND val > :2 LIMIT 7",
             [900, 0.0], "INDEX RANGE SCAN"),
            # kernel-decline binds: NULL, bool, non-str LIKE pattern
            ("SELECT k FROM t WHERE k >= :1 AND val < :2", [1000, None],
             "INDEX RANGE SCAN"),
            ("SELECT k FROM t WHERE k BETWEEN :1 AND :2 AND val < :3",
             [10, 90, True], "INDEX RANGE SCAN"),
            ("SELECT k FROM t WHERE k BETWEEN :1 AND :2 AND grp LIKE :3",
             [10, 90, 5], "INDEX RANGE SCAN"),
            # NULL probe keys: unknown, never an open range
            ("SELECT k FROM t WHERE k = :1", [None], "INDEX RANGE SCAN"),
            ("SELECT k FROM t WHERE k BETWEEN :1 AND :2", [None, 50],
             "INDEX RANGE SCAN"),
            ("SELECT k FROM t WHERE grp = :1 AND val < 0", [None],
             "HASH INDEX SCAN"),
            # forced mid-batch kernel error
            ("SELECT k FROM t WHERE k BETWEEN :1 AND :2"
             " AND val / (k - 151) > 0", [100, 200], "INDEX RANGE SCAN"),
        ]

        def workload(db):
            self._load(db)
            out = []
            for sql, binds, marker in cases:
                assert any(marker in line
                           for line in db.explain(sql, binds)), sql
                out.append(_outcome(db, sql, binds))
            return out

        results = _run_all(dbs, workload)
        assert results[-1][0] == "ExecutionError"
        assert results[0] and results[1]  # the suite is not vacuous
        stats = dbs[0].engine.executor_stats.snapshot()
        assert stats["vector_batches"] > 0
        assert stats["fallback_batches"] >= 1
        assert stats["factory_declines"] >= 1

    def test_indexed_nl_join_agrees(self):
        dbs = _fleet()
        sql = ("SELECT d.name, t.k, t.val FROM dims d, t"
               " WHERE t.k = d.id AND d.id < :1 AND t.val IS NOT NULL")

        def workload(db):
            self._load(db)
            assert any("INDEXED NL JOIN" in line
                       for line in db.explain(sql, [200]))
            return _outcome(db, sql, [200])

        rows = _run_all(dbs, workload)
        assert len(rows) > 10

    def test_index_scans_interleaved_with_dml(self):
        """Updated, deleted and key-changed rows: the batch fetch sees
        exactly what the row-at-a-time fetch saw."""
        dbs = _fleet()

        def workload(db):
            self._load(db)
            rng = random.Random(5)
            out = []
            for __ in range(40):
                op = rng.random()
                k = rng.randrange(1200)
                if op < 0.25:
                    db.execute("UPDATE t SET val = :1 WHERE k = :2",
                               [round(rng.uniform(-3, 3), 3), k])
                elif op < 0.4:
                    db.execute("DELETE FROM t WHERE k BETWEEN :1 AND :2",
                               [k, k + 3])
                elif op < 0.5:
                    db.execute("UPDATE t SET k = k + 5000 WHERE k = :1",
                               [k])
                else:
                    out.append(db.execute(
                        "SELECT k, val FROM t WHERE k BETWEEN :1 AND :2"
                        " AND val < :3",
                        [k, k + 150, rng.uniform(-1, 3)]).fetchall())
            out.append(db.execute(
                "SELECT COUNT(*) FROM t WHERE k >= 0").fetchall())
            return out

        _run_all(dbs, workload)


@pytest.mark.vectorized
class TestCartridges:
    def test_text(self):
        from repro.cartridges.text import install
        dbs = _fleet(install)
        words = ["oracle", "unix", "java", "linux", "cobol", "lisp"]

        def workload(db):
            rng = random.Random(7)
            out = []
            db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(400))")
            for i in range(120):
                db.execute("INSERT INTO docs VALUES (:1, :2)",
                           [i, " ".join(rng.sample(words, 3))])
            db.execute("CREATE INDEX docs_text ON docs(body)"
                       " INDEXTYPE IS TextIndexType")
            for __ in range(15):
                i = rng.randrange(120)
                db.execute("UPDATE docs SET body = :1 WHERE id = :2",
                           [" ".join(rng.sample(words, 2)), i])
                out.append(sorted(db.execute(
                    "SELECT id FROM docs WHERE Contains(body, :1)",
                    [rng.choice(words)]).fetchall()))
            return out

        _run_all(dbs, workload)

    def test_spatial(self):
        from repro.cartridges.spatial import install, make_rect
        dbs = _fleet(install)

        def workload(db):
            rng = random.Random(13)
            gt = db.catalog.get_object_type("SDO_GEOMETRY")
            out = []
            db.execute("CREATE TABLE parks (gid INTEGER,"
                       " geometry SDO_GEOMETRY)")
            for gid in range(80):
                x, y = rng.uniform(0, 800), rng.uniform(0, 800)
                db.insert_row("parks", [gid, make_rect(
                    gt, x, y, x + rng.uniform(20, 120),
                    y + rng.uniform(20, 120))])
            db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
                       " INDEXTYPE IS SpatialIndexType")
            for __ in range(8):
                x, y = rng.uniform(0, 600), rng.uniform(0, 600)
                window = make_rect(gt, x, y, x + 250, y + 250)
                out.append(sorted(db.execute(
                    "SELECT gid FROM parks WHERE Sdo_Relate(geometry, :1,"
                    " 'mask=ANYINTERACT')", [window]).fetchall()))
            return out

        _run_all(dbs, workload)

    def test_chemistry(self):
        from repro.cartridges.chemistry import install
        dbs = _fleet(install)
        mols = ["CCO", "CC(=O)O", "CCCC", "C1CCCCC1", "CCN"]

        def workload(db):
            rng = random.Random(19)
            out = []
            db.execute("CREATE TABLE molecules (mid INTEGER,"
                       " mol VARCHAR2(256))")
            for mid in range(60):
                db.execute("INSERT INTO molecules VALUES (:1, :2)",
                           [mid, rng.choice(mols)])
            db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                       " INDEXTYPE IS ChemIndexType")
            for __ in range(8):
                out.append(sorted(db.execute(
                    "SELECT mid FROM molecules WHERE Chem_Match(mol, :1)",
                    [rng.choice(mols)]).fetchall()))
            return out

        _run_all(dbs, workload)

    def test_vir(self):
        from repro.bench.workloads import make_signature_table
        from repro.cartridges.vir import install
        dbs = _fleet(install)
        rows, centre = make_signature_table(120, cluster_every=8, seed=4)
        weights = ("globalcolor=0.5,localcolor=0.2,"
                   "texture=0.2,structure=0.1")

        def workload(db):
            image_type = db.catalog.get_object_type("IMAGE_T")
            out = []
            db.execute("CREATE TABLE images (iid INTEGER, img IMAGE_T)")
            db.insert_rows("images", [
                [i, image_type.new(signature=sig, width=64, height=64)]
                for i, sig in rows])
            db.execute("CREATE INDEX images_vidx ON images(img)"
                       " INDEXTYPE IS VirIndexType")
            for threshold in (8, 12, 20):
                out.append(sorted(db.execute(
                    "SELECT iid FROM images WHERE"
                    " VIRSimilar(img.signature, :1, :2, :3)",
                    [centre, weights, threshold]).fetchall()))
            return out

        _run_all(dbs, workload)


@pytest.mark.vectorized
class TestDomainScans:
    """ODCI-returned rowids through the batched fetch: a residual
    filter on the base table (vector kernel or row function) and the
    ancillary value each rowid came with must line up in every mode —
    unsorted, so fetch order is part of the contract."""

    def test_text_residual_and_score(self):
        from repro.cartridges.text import install
        dbs = _fleet(install)
        words = ["oracle", "unix", "java", "linux", "cobol", "lisp"]

        def workload(db):
            rng = random.Random(7)
            out = []
            db.execute("CREATE TABLE docs (id INTEGER, n NUMBER,"
                       " body VARCHAR2(400))")
            for i in range(150):
                db.execute("INSERT INTO docs VALUES (:1, :2, :3)", [
                    i, None if i % 4 == 0 else i % 10,
                    " ".join(rng.choice(words) for __ in range(5))])
            db.execute("CREATE INDEX docs_text ON docs(body)"
                       " INDEXTYPE IS TextIndexType")
            for i in range(0, 150, 9):  # stale rowids in the postings
                db.execute("DELETE FROM docs WHERE id = :1", [i])
            for word in words[:4]:
                out.append(_outcome(
                    db, "SELECT id, n FROM docs WHERE Contains(body, :1)"
                    " AND n < :2 AND id BETWEEN :3 AND :4",
                    [word, 6, 10, 120]))
                out.append(_outcome(
                    db, "SELECT id, Score(1) FROM docs"
                    " WHERE Contains(body, :1, 1) AND n >= :2",
                    [word, 3]))
                out.append(_outcome(
                    db, "SELECT id FROM docs WHERE Contains(body, :1, 1)"
                    " AND Score(1) > 1 AND n IS NOT NULL", [word]))
            # kernel-decline bind and a mid-batch kernel error
            out.append(_outcome(
                db, "SELECT id FROM docs WHERE Contains(body, 'unix')"
                " AND n < :1", [None]))
            out.append(_outcome(
                db, "SELECT id FROM docs WHERE Contains(body, 'unix')"
                " AND n / (id - 50) > 0"))
            return out

        results = _run_all(dbs, workload)
        assert any(rows for rows in results[:-2])
        assert results[-1][0] == "ExecutionError"
        assert dbs[0].engine.executor_stats.snapshot()[
            "vector_batches"] > 0

    def test_spatial_residual(self):
        from repro.cartridges.spatial import install, make_rect
        dbs = _fleet(install)

        def workload(db):
            rng = random.Random(13)
            gt = db.catalog.get_object_type("SDO_GEOMETRY")
            out = []
            db.execute("CREATE TABLE parks (gid INTEGER, kind VARCHAR2(4),"
                       " geometry SDO_GEOMETRY)")
            for gid in range(90):
                x, y = rng.uniform(0, 800), rng.uniform(0, 800)
                db.insert_row("parks", [
                    gid, None if gid % 6 == 0 else f"k{gid % 3}",
                    make_rect(gt, x, y, x + rng.uniform(20, 120),
                              y + rng.uniform(20, 120))])
            db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
                       " INDEXTYPE IS SpatialIndexType")
            for __ in range(6):
                x, y = rng.uniform(0, 500), rng.uniform(0, 500)
                window = make_rect(gt, x, y, x + 300, y + 300)
                out.append(_outcome(
                    db, "SELECT gid, kind FROM parks"
                    " WHERE Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')"
                    " AND kind = :2 AND gid >= :3", [window, "k1", 10]))
            return out

        assert any(_run_all(dbs, workload))

    def test_chemistry_residual_and_score(self):
        from repro.cartridges.chemistry import install
        dbs = _fleet(install)
        mols = ["CCO", "CC(=O)O", "CCCC", "C1CCCCC1", "CCN", "CCCO"]

        def workload(db):
            rng = random.Random(19)
            out = []
            db.execute("CREATE TABLE molecules (mid INTEGER, w NUMBER,"
                       " mol VARCHAR2(256))")
            for mid in range(70):
                db.execute("INSERT INTO molecules VALUES (:1, :2, :3)", [
                    mid, None if mid % 5 == 0 else mid % 8,
                    rng.choice(mols)])
            db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                       " INDEXTYPE IS ChemIndexType")
            for target in mols[:4]:
                out.append(_outcome(
                    db, "SELECT mid, w FROM molecules"
                    " WHERE Chem_Match(mol, :1) AND w < :2", [target, 5]))
                out.append(_outcome(
                    db, "SELECT mid, Chem_Score(1) FROM molecules"
                    " WHERE Chem_Similar(mol, :1, 0.3, 1) AND w >= :2",
                    [target, 2]))
            return out

        assert any(_run_all(dbs, workload))

    def test_vir_residual(self):
        from repro.bench.workloads import make_signature_table
        from repro.cartridges.vir import install
        dbs = _fleet(install)
        rows, centre = make_signature_table(120, cluster_every=8, seed=4)
        weights = ("globalcolor=0.5,localcolor=0.2,"
                   "texture=0.2,structure=0.1")

        def workload(db):
            image_type = db.catalog.get_object_type("IMAGE_T")
            out = []
            db.execute("CREATE TABLE images (iid INTEGER, shard NUMBER,"
                       " img IMAGE_T)")
            db.insert_rows("images", [
                [i, None if i % 7 == 0 else i % 4,
                 image_type.new(signature=sig, width=64, height=64)]
                for i, sig in rows])
            db.execute("CREATE INDEX images_vidx ON images(img)"
                       " INDEXTYPE IS VirIndexType")
            for threshold in (8, 12, 20):
                out.append(_outcome(
                    db, "SELECT iid, shard FROM images WHERE"
                    " VIRSimilar(img.signature, :1, :2, :3)"
                    " AND shard <> :4 AND iid < :5",
                    [centre, weights, threshold, 2, 100]))
            return out

        assert any(_run_all(dbs, workload))


@pytest.mark.concurrency
class TestSharedEngineStress:
    def test_eight_threads_mixed_dml_scans_and_domain_scans(self):
        from repro.cartridges.text import install
        db = Database()
        install(db)
        db.execute("CREATE TABLE ledger (slot INTEGER, k INTEGER,"
                   " val NUMBER)")
        for slot in range(8):
            for i in range(200):
                db.execute("INSERT INTO ledger VALUES (:1, :2, :3)",
                           [slot, i, float(i)])
        db.execute("CREATE TABLE notes (id INTEGER, body VARCHAR2(100))")
        db.insert_rows("notes", [[i, f"slot{i % 8} shared"]
                                 for i in range(160)])
        db.execute("CREATE INDEX notes_text ON notes(body)"
                   " INDEXTYPE IS TextIndexType")
        db.execute("COMMIT")
        errors = []
        done = threading.Barrier(8, timeout=60)

        def worker(slot):
            try:
                session = db.connect()
                session.lock_timeout = 30.0
                rng = random.Random(slot)
                for round_no in range(12):
                    rows = session.execute(
                        "SELECT k, val FROM ledger WHERE slot = :1"
                        " AND NOT (val < :2)",
                        [slot, float(rng.randrange(200))]).fetchall()
                    assert len(rows) <= 200
                    count = session.execute(
                        "SELECT COUNT(*) FROM ledger WHERE slot = :1",
                        [slot]).fetchall()[0][0]
                    assert count == 200  # own partition stays intact
                    # a domain scan per round, on this thread
                    hits = session.execute(
                        "SELECT id FROM notes WHERE Contains(body, :1)",
                        [f"slot{slot}"]).fetchall()
                    assert len(hits) == 20
                    # mixed DML on the thread's own slot, committed
                    session.execute(
                        "UPDATE ledger SET val = val + 1"
                        " WHERE slot = :1 AND k < :2",
                        [slot, rng.randrange(50)])
                    session.execute("COMMIT")
                done.wait()
            except BaseException as exc:  # noqa: BLE001 — collected below
                errors.append((slot, exc))
                try:
                    done.abort()
                except Exception:
                    pass

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[:2]
        assert db.execute(
            "SELECT COUNT(*) FROM ledger").fetchall() == [(1600,)]
        db.close()
