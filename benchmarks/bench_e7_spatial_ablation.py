"""E7 (ablation) — §3.2.2: "the Oracle8i extensibility framework allows
changing the underlying spatial indexing algorithms without requiring
the end users to change their queries."

The same Sdo_Relate query text runs against two indextypes — the
tile/z-order index and an R-tree — registered over the same operator.
The bench verifies identical answers and compares the two algorithms'
query and maintenance profiles.
"""

import pytest

from repro import Engine
from repro.bench.harness import ReportTable, time_call
from repro.bench.workloads import make_rect_layer
from repro.cartridges.spatial import install, install_rtree, make_rect

REPORT_FILE = "e7_spatial_ablation.txt"
N_OBJECTS = 400

WINDOW_SQL = ("SELECT gid FROM %s WHERE "
              "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')")


@pytest.fixture(scope="module")
def workload():
    db = Engine(buffer_capacity=2048).connect()
    install(db)
    install_rtree(db)
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    layer = make_rect_layer(gt, N_OBJECTS, seed=71, min_size=8,
                            max_size=90)
    for table, indextype in (("tiles_t", "SpatialIndexType"),
                             ("rtree_t", "RtreeIndexType")):
        db.execute(f"CREATE TABLE {table} (gid INTEGER,"
                   " geometry SDO_GEOMETRY)")
        db.insert_rows(table, [[g, geom] for g, geom in layer])
        db.execute(f"CREATE INDEX {table}_idx ON {table}(geometry)"
                   f" INDEXTYPE IS {indextype}")
    windows = [make_rect(gt, x, y, x + w, y + w)
               for x, y, w in ((100, 100, 250), (500, 300, 120),
                               (700, 700, 200), (50, 800, 60))]
    return db, layer, windows


@pytest.mark.parametrize("table", ["tiles_t", "rtree_t"])
def test_e7_window_query(benchmark, workload, table):
    db, __, windows = workload
    sql = WINDOW_SQL % table
    rows = benchmark(lambda: [db.execute(
        sql, [w]).fetchall() for w in windows])
    assert any(rows)


@pytest.mark.parametrize("table", ["tiles_t", "rtree_t"])
def test_e7_maintenance(benchmark, workload, table):
    db, __, __w = workload
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    counter = [40_000 + (0 if table == "tiles_t" else 10_000)]

    def insert():
        counter[0] += 1
        db.execute(f"INSERT INTO {table} VALUES (:1, :2)",
                   [counter[0], make_rect(gt, 5, 5, 15, 15)])

    benchmark(insert)


def test_e7_report(benchmark, workload, fresh_result_file):
    db, layer, windows = workload

    def build_report():
        table = ReportTable(
            "E7 (§3.2.2) — same query, two indexing algorithms behind "
            "one operator",
            ["window", "tile_idx_s", "rtree_s", "answers agree",
             "tile_primary_cands", "rtree_primary_cands"])
        agreements = []
        for i, window in enumerate(windows):
            db.stats.extra.clear()
            tiles = time_call(
                lambda: db.execute(
                    WINDOW_SQL % "tiles_t", [window]).fetchall())
            tile_cands = db.stats.extra.get("spatial_primary_candidates", 0)
            db.stats.extra.clear()
            rtree = time_call(
                lambda: db.execute(
                    WINDOW_SQL % "rtree_t", [window]).fetchall())
            rtree_cands = db.stats.extra.get("spatial_primary_candidates", 0)
            tile_rows = sorted(db.execute(
                WINDOW_SQL % "tiles_t", [window]).fetchall())
            rtree_rows = sorted(db.execute(
                WINDOW_SQL % "rtree_t", [window]).fetchall())
            agree = tile_rows == rtree_rows
            agreements.append(agree)
            table.add_row(f"w{i}", tiles.elapsed, rtree.elapsed,
                          "yes" if agree else "NO", tile_cands, rtree_cands)
        return table, agreements

    table, agreements = benchmark.pedantic(build_report, iterations=1,
                                           rounds=1)
    table.emit(fresh_result_file)
    # the end-user query never changed; the answers must not either
    assert all(agreements)
