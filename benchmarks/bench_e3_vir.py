"""E3 — §3.2.3: VIR multi-level filtering vs per-row signature comparison.

"In releases prior to Oracle8i, the image cartridge had no indexing
support.  Hence, the operator was evaluated as a filter predicate for
every row. ... the first two passes of filtering are very selective and
greatly reduce the data set on which the image signature comparisons
need to be performed.  In Oracle8i, it is now possible to do
content-based image queries on tables with millions of rows."
"""

import pytest

from repro import Engine
from repro.bench.harness import ReportTable, io_delta, time_call
from repro.bench.workloads import make_signature_table
from repro.cartridges.vir import install

REPORT_FILE = "e3_vir.txt"
SIZES = (1000, 5000, 20000)
WEIGHTS = "globalcolor=0.5,localcolor=0.2,texture=0.2,structure=0.1"
THRESHOLD = 8


def build_database(count):
    rows, centre = make_signature_table(count, cluster_every=50, noise=0.03,
                                        seed=31)
    db = Engine(buffer_capacity=4096).connect()
    install(db)
    image_type = db.catalog.get_object_type("IMAGE_T")
    db.execute("CREATE TABLE images (iid INTEGER, img IMAGE_T)")
    db.insert_rows("images", [
        [i, image_type.new(signature=sig, width=64, height=64)]
        for i, sig in rows])
    db.execute("CREATE INDEX images_vidx ON images(img)"
               " INDEXTYPE IS VirIndexType")
    # an unindexed twin exposes the pre-8i full-scan evaluation
    db.execute("CREATE TABLE images_noidx (iid INTEGER, img IMAGE_T)")
    db.insert_rows("images_noidx", [
        [i, image_type.new(signature=sig, width=64, height=64)]
        for i, sig in rows])
    return db, centre


@pytest.fixture(scope="module")
def workloads():
    return {n: build_database(n) for n in SIZES[:2]}


@pytest.fixture(scope="module")
def big_workload():
    return build_database(SIZES[2])


INDEXED_SQL = ("SELECT iid FROM images WHERE "
               "VIRSimilar(img.signature, :1, :2, %d)" % THRESHOLD)
FULLSCAN_SQL = ("SELECT iid FROM images_noidx WHERE "
                "VIRSimilar(img.signature, :1, :2, %d)" % THRESHOLD)


@pytest.mark.parametrize("count", SIZES[:2])
def test_e3_indexed_similarity(benchmark, workloads, count):
    db, centre = workloads[count]
    rows = benchmark(lambda: db.execute(
        INDEXED_SQL, [centre, WEIGHTS]).fetchall())
    assert rows


@pytest.mark.parametrize("count", SIZES[:2])
def test_e3_fullscan_similarity(benchmark, workloads, count):
    db, centre = workloads[count]
    rows = benchmark(lambda: db.execute(
        FULLSCAN_SQL, [centre, WEIGHTS]).fetchall())
    assert rows


def test_e3_large_table_feasibility(benchmark, big_workload):
    """The 'millions of rows' claim, scaled to the simulator: the indexed
    query cost stays far below one functional full scan."""
    db, centre = big_workload
    rows = benchmark(lambda: db.execute(
        INDEXED_SQL, [centre, WEIGHTS]).fetchall())
    assert rows


def test_e3_report(benchmark, workloads, big_workload, fresh_result_file):
    def build_report():
        table = ReportTable(
            "E3 (§3.2.3) — VIRSimilar: three-phase index vs per-row "
            "signature comparison",
            ["images", "fullscan_s", "indexed_s", "speedup",
             "phase1", "phase2", "full_comparisons", "matches"])
        shape = []
        entries = dict(workloads)
        entries[SIZES[2]] = big_workload
        for count in SIZES:
            db, centre = entries[count]
            db.stats.extra.clear()
            indexed = time_call(
                lambda: db.execute(INDEXED_SQL, [centre, WEIGHTS]).fetchall())
            phases = dict(db.stats.extra)
            fullscan = time_call(
                lambda: db.execute(FULLSCAN_SQL, [centre, WEIGHTS]).fetchall())
            table.add_row(count, fullscan.elapsed, indexed.elapsed,
                          fullscan.elapsed / max(indexed.elapsed, 1e-9),
                          phases.get("vir_phase1_candidates", 0),
                          phases.get("vir_phase2_candidates", 0),
                          phases.get("vir_phase3_comparisons", 0),
                          indexed.rows)
            shape.append((count, indexed, fullscan, phases))
        return table, shape

    table, shape = benchmark.pedantic(build_report, iterations=1, rounds=1)
    table.emit(fresh_result_file)

    entries = dict(workloads)
    entries[SIZES[2]] = big_workload
    for count, indexed, fullscan, phases in shape:
        db, centre = entries[count]
        # identical answers on the twin tables
        assert sorted(db.execute(
            INDEXED_SQL, [centre, WEIGHTS]).fetchall()) == sorted(
            db.execute(FULLSCAN_SQL, [centre, WEIGHTS]).fetchall())
        # the funnel is monotone and prunes hard before the full comparison
        assert (phases["vir_phase1_candidates"]
                >= phases["vir_phase2_candidates"]
                >= phases["vir_phase3_comparisons"])
        assert phases["vir_phase3_comparisons"] < count / 2
        # indexing wins at every size
        assert indexed.elapsed < fullscan.elapsed
    # at the largest size, multi-level filtering wins decisively — the
    # paper's "not possible in prior releases" feasibility claim
    count, indexed, fullscan, __ = shape[-1]
    assert fullscan.elapsed / indexed.elapsed > 1.4
