"""E2 — §3.2.2: spatial queries, pre-8i explicit join vs Sdo_Relate.

The paper's claims: the integrated query is drastically *simpler* (the
tiling algorithm and index schema are no longer exposed), the index is
maintained *implicitly*, and performance "has been as good as the
performance of the prior implementation".
"""

import pytest

from repro import Engine
from repro.bench.harness import ReportTable, time_call, warm_min
from repro.bench.workloads import make_rect_layer
from repro.cartridges.spatial import (
    LegacySpatialLayer, install, make_rect)

REPORT_FILE = "e2_spatial.txt"
SIZES = (100, 250)


def build_database(n_each):
    db = Engine().connect()
    install(db)
    db.execute("CREATE TABLE roads (gid INTEGER, geometry SDO_GEOMETRY)")
    db.execute("CREATE TABLE parks (gid INTEGER, geometry SDO_GEOMETRY)")
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    roads = make_rect_layer(gt, n_each, seed=21, min_size=15, max_size=150,
                            start_gid=1)
    parks = make_rect_layer(gt, n_each, seed=22, min_size=20, max_size=100,
                            start_gid=10_000)
    db.insert_rows("roads", [[g, geom] for g, geom in roads])
    db.insert_rows("parks", [[g, geom] for g, geom in parks])
    db.execute("CREATE INDEX roads_sidx ON roads(geometry)"
               " INDEXTYPE IS SpatialIndexType")
    db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
               " INDEXTYPE IS SpatialIndexType")
    road_layer = LegacySpatialLayer(db, "roads", "gid", "geometry")
    park_layer = LegacySpatialLayer(db, "parks", "gid", "geometry")
    road_layer.build()
    park_layer.build()
    return db, road_layer, park_layer


@pytest.fixture(scope="module")
def workloads():
    return {n: build_database(n) for n in SIZES}


INTEGRATED_SQL = ("SELECT r.gid, p.gid FROM roads r, parks p "
                  "WHERE Sdo_Relate(p.geometry, r.geometry,"
                  " 'mask=OVERLAPS')")


@pytest.mark.parametrize("n_each", SIZES)
def test_e2_integrated_overlap_join(benchmark, workloads, n_each):
    db, __, __ = workloads[n_each]
    rows = benchmark(lambda: db.execute(INTEGRATED_SQL).fetchall())
    assert rows


@pytest.mark.parametrize("n_each", SIZES)
def test_e2_legacy_overlap_join(benchmark, workloads, n_each):
    db, road_layer, park_layer = workloads[n_each]
    rows = benchmark(lambda: LegacySpatialLayer.overlap_query(
        road_layer, park_layer))
    assert rows


@pytest.mark.parametrize("n_each", SIZES)
def test_e2_window_query(benchmark, workloads, n_each):
    db, __, __ = workloads[n_each]
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    window = make_rect(gt, 300, 300, 640, 640)
    sql = ("SELECT gid FROM parks WHERE "
           "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')")
    rows = benchmark(lambda: db.execute(sql, [window]).fetchall())
    assert rows


def test_e2_implicit_vs_explicit_maintenance(benchmark, workloads,
                                             fresh_result_file):
    """Implicit maintenance (one DML) vs explicit legacy full rebuild."""
    db, road_layer, __ = workloads[SIZES[0]]
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    counter = [100_000]

    def integrated_insert():
        counter[0] += 1
        db.execute("INSERT INTO roads VALUES (:1, :2)",
                   [counter[0], make_rect(gt, 5, 5, 9, 9)])

    integrated = time_call(integrated_insert)
    legacy = time_call(road_layer.sync)

    table = ReportTable(
        "E2 (§3.2.2) — index maintenance after one DML",
        ["path", "operations the user issues", "seconds"])
    table.add_row("integrated", "INSERT (index maintained implicitly)",
                  integrated.elapsed)
    table.add_row("legacy", "INSERT + explicit full sync()",
                  legacy.elapsed + integrated.elapsed)
    table.emit(fresh_result_file)
    benchmark.pedantic(integrated_insert, iterations=1, rounds=1)
    assert integrated.elapsed < legacy.elapsed


def test_e2_report(benchmark, workloads, fresh_result_file):
    def build_report():
        table = ReportTable(
            "E2 (§3.2.2) — overlap join: pre-8i explicit SQL vs Sdo_Relate"
            " (each path run once untimed, then the fastest of 5 runs)",
            ["objects/layer", "legacy_s", "integrated_s", "ratio(l/i)",
             "pairs", "legacy_sql_chars", "integrated_sql_chars"])
        shape = []
        for n_each in SIZES:
            db, road_layer, park_layer = workloads[n_each]
            legacy_sql = LegacySpatialLayer.overlap_query_sql(
                road_layer, park_layer)
            legacy = warm_min(lambda: db.execute(legacy_sql).fetchall())
            integrated = warm_min(lambda: db.execute(
                INTEGRATED_SQL).fetchall())
            table.add_row(n_each, legacy.elapsed, integrated.elapsed,
                          legacy.elapsed / max(integrated.elapsed, 1e-9),
                          integrated.rows, len(legacy_sql),
                          len(INTEGRATED_SQL))
            shape.append((db, legacy_sql, legacy, integrated))
        return table, shape

    table, shape = benchmark.pedantic(build_report, iterations=1, rounds=1)
    table.emit(fresh_result_file)

    for db, legacy_sql, legacy, integrated in shape:
        # identical answers
        assert sorted(db.execute(legacy_sql).fetchall()) == sorted(
            db.execute(INTEGRATED_SQL).fetchall())
        # "vastly simplifying the queries"
        assert len(INTEGRATED_SQL) < len(legacy_sql) / 2
        # "performance ... as good as the prior implementation":
        # same order of magnitude (allow 3x either way)
        assert integrated.elapsed < legacy.elapsed * 3
