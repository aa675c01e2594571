"""Differential proof: snapshot reads == locked (current-mode) reads.

Two identically-seeded databases run the same single-session workload —
one with ``snapshot_reads`` on (the default MVCC read path), one with it
off (the pre-MVCC current-mode read path).  Every query result must be
identical, across heap tables, IOTs, and all four cartridges.  In a
single-session workload the two paths are observationally equivalent by
construction; this suite pins that equivalence down so the MVCC resolve
logic can never silently drop or duplicate rows.
"""

import random

import pytest

from repro import Engine

pytestmark = pytest.mark.mvcc


def _pair(installer=None):
    """Two fresh databases, snapshot reads on/off, same cartridges."""
    dbs = []
    for snapshot_reads in (True, False):
        db = Engine().connect()
        if installer is not None:
            installer(db)
        db.snapshot_reads = snapshot_reads
        dbs.append(db)
    return dbs


def _run_both(dbs, fn):
    """Run ``fn(db)`` on both databases, assert equal return values."""
    results = [fn(db) for db in dbs]
    assert results[0] == results[1]
    return results[0]


class TestHeapAndIOT:
    def test_heap_dml_and_scans(self):
        dbs = _pair()
        rng_seed = 11

        def workload(db):
            rng = random.Random(rng_seed)
            out = []
            db.execute("CREATE TABLE t (k INTEGER, v VARCHAR2(30))")
            db.execute("CREATE INDEX t_k ON t(k)")
            for i in range(80):
                db.execute("INSERT INTO t VALUES (:1, :2)",
                           [i, f"v{i % 7}"])
            for __ in range(60):
                op = rng.random()
                k = rng.randrange(80)
                if op < 0.4:
                    db.execute("UPDATE t SET v = :1 WHERE k = :2",
                               [f"u{rng.randrange(9)}", k])
                elif op < 0.6:
                    db.execute("DELETE FROM t WHERE k = :1", [k])
                else:
                    out.append(sorted(db.execute(
                        "SELECT k, v FROM t WHERE k >= :1 AND k < :2",
                        [k, k + 17]).fetchall()))
            out.append(sorted(db.execute("SELECT k, v FROM t").fetchall()))
            out.append(db.execute("SELECT COUNT(*) FROM t").fetchall())
            return out

        _run_both(dbs, workload)

    def test_iot_dml_and_range_scans(self):
        dbs = _pair()

        def workload(db):
            out = []
            db.execute("CREATE TABLE p (k INTEGER, v VARCHAR2(30),"
                       " PRIMARY KEY (k)) ORGANIZATION INDEX")
            for i in range(50):
                db.execute("INSERT INTO p VALUES (:1, :2)", [i, f"v{i}"])
            db.execute("DELETE FROM p WHERE k >= 40")
            db.execute("UPDATE p SET v = 'mid' WHERE k >= 20 AND k < 30")
            out.append(db.execute(
                "SELECT k, v FROM p WHERE k >= 15 AND k <= 35").fetchall())
            out.append(db.execute("SELECT COUNT(*) FROM p").fetchall())
            # explicit txn with savepoint unwind
            db.begin()
            db.execute("UPDATE p SET v = 'x' WHERE k = 0")
            db.execute("SAVEPOINT s1")
            db.execute("DELETE FROM p WHERE k = 1")
            db.execute("ROLLBACK TO SAVEPOINT s1")
            db.commit()
            out.append(db.execute(
                "SELECT k, v FROM p WHERE k <= 2").fetchall())
            return out

        _run_both(dbs, workload)


class TestCartridges:
    def test_text(self):
        from repro.cartridges.text import install
        dbs = _pair(install)
        words = ["oracle", "unix", "java", "linux", "cobol"]

        def workload(db):
            rng = random.Random(3)
            out = []
            db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(400))")
            for i in range(40):
                body = " ".join(rng.sample(words, 3))
                db.execute("INSERT INTO docs VALUES (:1, :2)", [i, body])
            db.execute("CREATE INDEX docs_text ON docs(body)"
                       " INDEXTYPE IS TextIndexType")
            for __ in range(20):
                i = rng.randrange(40)
                db.execute("UPDATE docs SET body = :1 WHERE id = :2",
                           [" ".join(rng.sample(words, 2)), i])
                word = rng.choice(words)
                out.append(sorted(db.execute(
                    "SELECT id FROM docs WHERE Contains(body, :1)",
                    [word]).fetchall()))
            return out

        _run_both(dbs, workload)

    def test_spatial(self):
        from repro.cartridges.spatial import install, make_rect
        dbs = _pair(install)

        def workload(db):
            rng = random.Random(5)
            gt = db.catalog.get_object_type("SDO_GEOMETRY")
            out = []
            db.execute("CREATE TABLE parks (gid INTEGER,"
                       " geometry SDO_GEOMETRY)")
            for gid in range(30):
                x, y = rng.uniform(0, 800), rng.uniform(0, 800)
                db.insert_row("parks", [gid, make_rect(
                    gt, x, y, x + rng.uniform(20, 120),
                    y + rng.uniform(20, 120))])
            db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
                       " INDEXTYPE IS SpatialIndexType")
            window = make_rect(gt, 200, 200, 600, 600)
            for __ in range(8):
                gid = rng.randrange(30)
                x, y = rng.uniform(0, 800), rng.uniform(0, 800)
                db.execute("UPDATE parks SET geometry = :1 WHERE gid = :2",
                           [make_rect(gt, x, y, x + 60, y + 60), gid])
                out.append(sorted(db.execute(
                    "SELECT gid FROM parks WHERE Sdo_Relate(geometry, :1,"
                    " 'mask=ANYINTERACT')", [window]).fetchall()))
            return out

        _run_both(dbs, workload)

    def test_chemistry(self):
        from repro.cartridges.chemistry import install
        dbs = _pair(install)
        mols = ["CCO", "CC(=O)O", "CCCC", "C1CCCCC1", "CCN"]

        def workload(db):
            rng = random.Random(9)
            out = []
            db.execute("CREATE TABLE molecules (mid INTEGER,"
                       " mol VARCHAR2(256))")
            for mid in range(25):
                db.execute("INSERT INTO molecules VALUES (:1, :2)",
                           [mid, rng.choice(mols)])
            db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                       " INDEXTYPE IS ChemIndexType")
            for __ in range(10):
                mid = rng.randrange(25)
                db.execute("UPDATE molecules SET mol = :1 WHERE mid = :2",
                           [rng.choice(mols), mid])
                probe = rng.choice(mols)
                out.append(sorted(db.execute(
                    "SELECT mid FROM molecules WHERE Chem_Match(mol, :1)",
                    [probe]).fetchall()))
                out.append(sorted(db.execute(
                    "SELECT mid FROM molecules WHERE"
                    " Chem_Substructure(mol, 'CC')").fetchall()))
            return out

        _run_both(dbs, workload)

    def test_vir(self):
        from repro.bench.workloads import make_signature_table
        from repro.cartridges.vir import install
        dbs = _pair(install)
        rows, centre = make_signature_table(120, cluster_every=8, seed=2)
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
            out.append(sorted(db.execute(
                "SELECT iid FROM images WHERE"
                " VIRSimilar(img.signature, :1, :2, 8)",
                [centre, weights]).fetchall()))
            db.execute("DELETE FROM images WHERE iid < 10")
            out.append(sorted(db.execute(
                "SELECT iid FROM images WHERE"
                " VIRSimilar(img.signature, :1, :2, 12)",
                [centre, weights]).fetchall()))
            return out

        _run_both(dbs, workload)
