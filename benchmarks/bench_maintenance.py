"""Maintenance benchmark: bulk index builds and array DML dispatch.

Measures the write path introduced by the array maintenance interface:

* **bulk CREATE INDEX** — sorted bottom-up construction (sort-group
  inverted list for the text cartridge, Sort-Tile-Recursive packing for
  the spatial R-tree) against the per-row seed path
  (``bulk_index_build = False``);
* **batched executemany** — one parsed statement streaming every bind
  set through a single maintained statement (one maintenance flush per
  index) against looping ``execute`` per row on the per-row seed path
  (``batch_index_maintenance = False``).  The gated case is the classic
  array-DML workload (heap table + two native B-tree indexes); the
  text/chemistry rows are informational — cartridge maintenance is
  compute-bound (lexing, fingerprinting) and identical in both paths,
  which caps their ratios near the per-statement overhead share;
* **trace-guard micro-bench** — the per-row cost of building trace
  f-strings on the DML hot path, which ``env.trace_enabled`` now skips
  entirely when tracing is off (recorded as a note, not gated);
* **maintenance scaling** — the median time of a one-row ``UPDATE`` of
  a text-indexed column and of a one-row ``DELETE`` from a spatially
  indexed table at N and at 4N base rows.  Maintenance that addresses
  the row's index entries holds the ratio near 1; maintenance that
  searches the index table for them tracks the table (4);
* **rectangle tessellation** — rectangles covered per second by the
  closed-form classifier against the general ``relate()`` descent on
  the same shapes (handed over as five-vertex polygons, which the
  rectangle test does not recognise).

Emits ``BENCH_maintenance.json`` at the repo root.  Run directly::

    python benchmarks/bench_maintenance.py            # record JSON + table
    python benchmarks/bench_maintenance.py --smoke --check   # CI perf gate

``--check`` enforces the acceptance floors (text bulk build >= 5x,
spatial >= 3x, batched executemany >= 3x, rectangle tessellation >= 3x,
text scaling ratio at most 1.5) and compares the speedup ratios against
the committed baseline, failing on a >20% regression.  The spatial
scaling ratio has the same 1.5 ceiling but is recorded (``met``), not
gated: a tile delete still reads its group's tiles.
"""

import argparse
import json
import os
import random
import sys
import time

if __name__ == "__main__":  # runnable without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", "src"))

from repro import Database
from repro.bench.harness import ReportTable
from repro.bench.workloads import make_corpus

REPORT_FILE = "maintenance.txt"
JSON_FILE = "BENCH_maintenance.json"
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: machine-readable results live at the repo root (text reports stay
#: under benchmarks/results/)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: regression tolerance for --check: a speedup ratio may not drop below
#: 80% of the committed baseline's
CHECK_TOLERANCE = 0.8
#: acceptance floors (ISSUE 5): bulk CREATE INDEX over the per-row seed
TEXT_BUILD_FLOOR = 5.0
SPATIAL_BUILD_FLOOR = 3.0
#: batched executemany INSERT over looping execute per row
EXECUTEMANY_FLOOR = 3.0
#: closed-form rectangle cover over the relate() descent
TESSELLATE_FLOOR = 3.0
#: per-row maintenance time at 4N rows over the time at N rows (a
#: ceiling).  Text deletes are keyed: the time does not know the table,
#: and ``--check`` holds it to that.  A spatial delete probes the tiles
#: B-tree per group code of the old cover and filters that group's
#: tiles — a sixteenth of the table, so its time still rises with the
#: table.  It misses this ceiling; each case records ``met`` and only
#: the text case is gated until tile deletes are keyed.
SCALING_CEILING = 1.5


def _text_db(n_docs):
    from repro.cartridges.text import install
    corpus = make_corpus(n_docs, words_per_doc=40, vocabulary_size=400,
                         seed=23)
    db = Database(buffer_capacity=4096)
    install(db)
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")
    db.insert_rows("docs", [[i, d] for i, d in enumerate(corpus.documents)])
    return db, corpus


def _spatial_db(n_rows):
    from repro.cartridges.spatial import install_rtree
    db = Database(buffer_capacity=4096)
    install_rtree(db)
    db.execute("CREATE TABLE assets (id INTEGER, geom SDO_GEOMETRY)")
    rng = random.Random(29)
    sets = []
    for i in range(n_rows):
        x, y = rng.uniform(0, 900), rng.uniform(0, 900)
        sets.append([i, x, y, x + rng.uniform(1, 40), y + rng.uniform(1, 40)])
    db.executemany(
        "INSERT INTO assets VALUES (:1, sdo_rect(:2, :3, :4, :5))", sets)
    return db


def _tile_db(n_rows):
    """The rectangles of :func:`_spatial_db` under the tile indextype
    (the R-tree indexes bounding boxes and never tessellates)."""
    from repro.cartridges.spatial import install
    db = _spatial_db(n_rows)
    install(db)
    db.execute("CREATE INDEX assets_id ON assets(id)")
    return db


TILE_INDEX = ("CREATE INDEX assets_sidx ON assets(geom)"
              " INDEXTYPE IS SpatialIndexType")


def _timed_create(db, create_sql, drop_sql, bulk):
    """Time one CREATE INDEX under the given bulk_index_build setting."""
    db.bulk_index_build = bulk
    start = time.perf_counter()
    db.execute(create_sql)
    elapsed = time.perf_counter() - start
    db.execute(drop_sql)
    db.bulk_index_build = True
    return elapsed


def bench_text_bulk_create(n_docs):
    """Text inverted-index build: sort-group bulk vs per-row postings."""
    db, __ = _text_db(n_docs)
    create = "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType"
    drop = "DROP INDEX docs_text"
    per_row = _timed_create(db, create, drop, bulk=False)
    bulk = _timed_create(db, create, drop, bulk=True)
    return {"per_row_s": round(per_row, 4), "bulk_s": round(bulk, 4),
            "speedup": round(per_row / bulk, 3)}


def bench_spatial_bulk_create(n_rows):
    """R-tree build: STR packing vs quadratic-split per-row inserts."""
    db = _spatial_db(n_rows)
    create = ("CREATE INDEX assets_ridx ON assets(geom)"
              " INDEXTYPE IS RtreeIndexType")
    drop = "DROP INDEX assets_ridx"
    per_row = _timed_create(db, create, drop, bulk=False)
    bulk = _timed_create(db, create, drop, bulk=True)
    # the same rectangles through the tile index: the build that
    # tessellates (not part of the gated R-tree ratio)
    tile_db = _tile_db(n_rows)
    tile = _timed_create(tile_db, TILE_INDEX, "DROP INDEX assets_sidx",
                         bulk=True)
    return {"per_row_s": round(per_row, 4), "bulk_s": round(bulk, 4),
            "speedup": round(per_row / bulk, 3),
            "tile_index_s": round(tile, 4)}


def _median_statement_s(db, sql, param_sets):
    times = []
    for params in param_sets:
        start = time.perf_counter()
        db.execute(sql, params)
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def _scaling(measure, n_small, statements, repeats=3):
    # each repeat builds its table afresh; the fastest median of a size
    # is the one the machine disturbed least
    small = min(measure(n_small, statements) for __ in range(repeats))
    large = min(measure(4 * n_small, statements) for __ in range(repeats))
    return {"rows": n_small, "rows_x4": 4 * n_small,
            "statements": statements,
            "per_row_ms": round(small * 1000, 4),
            "per_row_x4_ms": round(large * 1000, 4),
            "ratio": round(large / small, 3),
            "met": large / small <= SCALING_CEILING}


def bench_text_update_scaling(n_docs, statements=40):
    """One-row UPDATE of a text-indexed column at N and at 4N documents."""
    def measure(n, k):
        db, corpus = _text_db(n)
        db.execute("CREATE INDEX docs_id ON docs(id)")
        db.execute("CREATE INDEX docs_text ON docs(body)"
                   " INDEXTYPE IS TextIndexType")
        rng = random.Random(31)
        return _median_statement_s(
            db, "UPDATE docs SET body = :1 WHERE id = :2",
            [[corpus.documents[rng.randrange(n)], i]
             for i in rng.sample(range(n), k)])
    return _scaling(measure, n_docs, statements)


def bench_spatial_delete_scaling(n_rows, statements=40):
    """One-row DELETE from a tile-indexed table at N and at 4N rows."""
    def measure(n, k):
        db = _tile_db(n)
        db.execute(TILE_INDEX)
        rng = random.Random(37)
        return _median_statement_s(
            db, "DELETE FROM assets WHERE id = :1",
            [[i] for i in rng.sample(range(n), k)])
    return _scaling(measure, n_rows, statements)


def bench_tessellate_rect(n_rects):
    """Rectangles covered per second: closed form vs the relate() path."""
    from repro.cartridges.spatial.geometry import (
        GEOMETRY_TYPE_NAME, make_polygon, make_rect)
    from repro.cartridges.spatial.tiling import tessellate
    from repro.types.datatypes import ANY, INTEGER
    from repro.types.objects import ObjectType
    gt = ObjectType(GEOMETRY_TYPE_NAME, [("gtype", INTEGER), ("coords", ANY)])
    rng = random.Random(41)
    rects, polygons = [], []
    for __ in range(n_rects):
        x, y = rng.uniform(0, 980), rng.uniform(0, 980)
        x1, y1 = x + rng.uniform(5, 40), y + rng.uniform(5, 40)
        rects.append(make_rect(gt, x, y, x1, y1))
        # the same shape with a fifth vertex on its bottom edge
        polygons.append(make_polygon(
            gt, [x, y, (x + x1) / 2, y, x1, y, x1, y1, x, y1]))

    def rate(geometries):
        start = time.perf_counter()
        covers = [tessellate(g) for g in geometries]
        return covers, len(geometries) / (time.perf_counter() - start)
    closed_covers, closed = rate(rects)
    relate_covers, general = rate(polygons)
    assert closed_covers == relate_covers
    return {"rects": n_rects, "closed_form_per_s": round(closed, 1),
            "relate_per_s": round(general, 1),
            "speedup": round(closed / general, 3)}


def _looped_vs_batched(db, sql, looped_sets, batched_sets, cleanup_sql):
    """Time looped per-row execute vs one executemany on ``db``."""
    db.batch_index_maintenance = False
    start = time.perf_counter()
    for params in looped_sets:
        db.execute(sql, params)
    looped = time.perf_counter() - start
    db.execute(cleanup_sql)

    db.batch_index_maintenance = True
    start = time.perf_counter()
    cursor = db.executemany(sql, batched_sets)
    batched = time.perf_counter() - start
    assert cursor.rowcount == len(batched_sets), cursor.rowcount
    return {"looped_s": round(looped, 4), "batched_s": round(batched, 4),
            "rows": len(batched_sets), "speedup": round(looped / batched, 3)}


def bench_executemany(n_rows):
    """Array INSERT into an indexed table: executemany vs looped execute.

    The classic array-DML measurement: the looped side pays parse,
    transaction, lock, and per-row maintenance dispatch once per row
    (the per-row seed path, ``batch_index_maintenance = False``); the
    batched side parses once and flushes maintenance once per index.
    """
    db = Database(buffer_capacity=4096)
    db.execute("CREATE TABLE events (id INTEGER, grp INTEGER,"
               " name VARCHAR2(64))")
    db.execute("CREATE INDEX events_id ON events(id)")
    db.execute("CREATE INDEX events_grp ON events(grp)")
    sql = "INSERT INTO events VALUES (:1, :2, :3)"
    looped_sets = [[i, i % 13, f"event-{i}"] for i in range(n_rows)]
    batched_sets = [[n_rows + i, i % 13, f"event-{n_rows + i}"]
                    for i in range(n_rows)]
    return _looped_vs_batched(db, sql, looped_sets, batched_sets,
                              "DELETE FROM events")


def bench_executemany_cartridges(n_docs, n_inserts):
    """Array INSERT under domain indexes, per cartridge (informational).

    Cartridge maintenance is compute-bound (lexing + per-posting DML
    for text, fingerprinting for chemistry), identical in both paths,
    so these ratios bound at the per-statement overhead share — they
    are recorded to show the seam works across cartridges, not gated.
    """
    db, corpus = _text_db(n_docs)
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    text = _looped_vs_batched(
        db, "INSERT INTO docs VALUES (:1, :2)",
        [[n_docs + i, corpus.documents[i % n_docs]]
         for i in range(n_inserts)],
        [[n_docs + i, corpus.documents[i % n_docs]]
         for i in range(n_inserts)],
        f"DELETE FROM docs WHERE id >= {n_docs}")

    from repro.cartridges.chemistry import install
    chem_db = Database(buffer_capacity=4096)
    install(chem_db)
    chem_db.execute("CREATE TABLE mols (id INTEGER, smiles VARCHAR2(512))")
    mols = ["CCO", "CC(=O)O", "CCN", "C1CCCCC1", "CCOC", "CN", "CCC",
            "CC(C)C(=O)O"]
    chem_db.insert_rows(
        "mols", [[i, mols[i % len(mols)]] for i in range(n_inserts)])
    chem_db.execute("CREATE INDEX mols_fp ON mols(smiles)"
                    " INDEXTYPE IS ChemIndexType PARAMETERS"
                    " (':Storage FILE')")
    chemistry = _looped_vs_batched(
        chem_db, "INSERT INTO mols VALUES (:1, :2)",
        [[n_inserts + i, mols[i % len(mols)]] for i in range(n_inserts)],
        [[2 * n_inserts + i, mols[i % len(mols)]]
         for i in range(n_inserts)],
        f"DELETE FROM mols WHERE id >= {n_inserts}")
    return {"text": text, "chemistry": chemistry,
            "note": "compute-bound cartridge maintenance caps these "
                    "ratios at the per-statement overhead share"}


def bench_trace_guard(calls=200_000):
    """Per-row f-string cost the ``env.trace_enabled`` guard removes.

    Simulates the old hot path (build the message, then discard it
    because tracing is off) against the guarded one (flag check only).
    """
    name = "resume_text_index"

    class _Env:
        trace_enabled = False

        def trace(self, message):
            pass

    env = _Env()
    start = time.perf_counter()
    for __ in range(calls):
        env.trace(f"dml:ODCIIndexInsert({name})")
    unguarded = time.perf_counter() - start
    start = time.perf_counter()
    for __ in range(calls):
        if env.trace_enabled:
            env.trace(f"dml:ODCIIndexInsert({name})")
    guarded = time.perf_counter() - start
    return {"calls": calls, "unguarded_s": round(unguarded, 4),
            "guarded_s": round(guarded, 4),
            "speedup": round(unguarded / max(guarded, 1e-9), 3),
            "note": "f-string built per row per index when unguarded; "
                    "the guard reduces the disabled-tracing cost to a "
                    "flag check"}


def run_benchmarks(smoke=False):
    n_docs = 250 if smoke else 800
    n_geoms = 600 if smoke else 2500
    n_rows = 300 if smoke else 1000
    n_inserts = 100 if smoke else 250
    return {
        "meta": {"n_docs": n_docs, "n_geoms": n_geoms, "n_rows": n_rows,
                 "n_inserts": n_inserts, "smoke": smoke},
        "cases": {
            "text_bulk_create": bench_text_bulk_create(n_docs),
            "spatial_bulk_create": bench_spatial_bulk_create(n_geoms),
            "executemany_insert": bench_executemany(n_rows),
            "executemany_cartridges": bench_executemany_cartridges(
                n_docs, n_inserts),
            "trace_guard": bench_trace_guard(),
            "text_update_scaling": bench_text_update_scaling(n_docs),
            "spatial_delete_scaling": bench_spatial_delete_scaling(
                n_geoms // 4),
            "tessellate_rect": bench_tessellate_rect(n_geoms),
        },
    }


def render_table(results):
    cases = results["cases"]
    meta = results["meta"]
    table = ReportTable(
        "maintenance — bulk builds and array DML vs per-row seed paths "
        f"(docs={meta['n_docs']}, geoms={meta['n_geoms']}, "
        f"inserts={meta['n_inserts']})",
        ["case", "per_row_s", "bulk_s", "speedup"])
    tb = cases["text_bulk_create"]
    table.add_row("text CREATE INDEX (per-row -> sort-group bulk)",
                  tb["per_row_s"], tb["bulk_s"], tb["speedup"])
    sb = cases["spatial_bulk_create"]
    table.add_row("rtree CREATE INDEX (per-row -> STR packing)",
                  sb["per_row_s"], sb["bulk_s"], sb["speedup"])
    em = cases["executemany_insert"]
    table.add_row(f"executemany INSERT, 2 btree idx ({em['rows']} rows)",
                  em["looped_s"], em["batched_s"], em["speedup"])
    ec = cases["executemany_cartridges"]
    table.add_row("executemany under text index (informational)",
                  ec["text"]["looped_s"], ec["text"]["batched_s"],
                  ec["text"]["speedup"])
    table.add_row("executemany under chem index (informational)",
                  ec["chemistry"]["looped_s"], ec["chemistry"]["batched_s"],
                  ec["chemistry"]["speedup"])
    tg = cases["trace_guard"]
    table.add_row(f"trace guard micro ({tg['calls']} disabled calls)",
                  tg["unguarded_s"], tg["guarded_s"], tg["speedup"])
    table.add_row(f"tile CREATE INDEX ({meta['n_geoms']} rectangles; bulk_s"
                  " only)", "-", sb["tile_index_s"], "-")
    tr = cases["tessellate_rect"]
    table.add_row(f"tessellate {tr['rects']} rectangles (relate path ->"
                  " closed form; seconds)",
                  round(tr["rects"] / tr["relate_per_s"], 4),
                  round(tr["rects"] / tr["closed_form_per_s"], 4),
                  tr["speedup"])
    for label, key in (("text UPDATE", "text_update_scaling"),
                       ("tile DELETE", "spatial_delete_scaling")):
        sc = cases[key]
        table.add_row(f"{label} per row, {sc['rows']} -> {sc['rows_x4']}"
                      f" rows (ms at N, ms at 4N, 4N/N; <= {SCALING_CEILING}"
                      f" {'met' if sc['met'] else 'NOT met'})",
                      sc["per_row_ms"], sc["per_row_x4_ms"], sc["ratio"])
    return table


def check_against_baseline(results, baseline_path):
    """Ratio-based regression gate; returns a list of failure strings."""
    failures = []
    floors = (("text_bulk_create", TEXT_BUILD_FLOOR),
              ("spatial_bulk_create", SPATIAL_BUILD_FLOOR),
              ("executemany_insert", EXECUTEMANY_FLOOR),
              ("tessellate_rect", TESSELLATE_FLOOR))
    for case, floor in floors:
        speedup = results["cases"][case]["speedup"]
        if speedup < floor:
            failures.append(
                f"{case} speedup {speedup} is below the {floor}x "
                "acceptance floor")
    scaling = results["cases"]["text_update_scaling"]
    if not scaling["met"]:
        failures.append(
            f"text_update_scaling: per-row time grew {scaling['ratio']}x "
            f"for 4x the rows (ceiling {SCALING_CEILING}x)")
    if not os.path.exists(baseline_path):
        failures.append(f"no committed baseline at {baseline_path}")
        return failures
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    for case, __ in floors:
        base = baseline["cases"].get(case, {}).get("speedup")
        now = results["cases"][case]["speedup"]
        if base is None:
            continue
        if now < base * CHECK_TOLERANCE:
            failures.append(
                f"{case}: speedup regressed >20% "
                f"(baseline {base}x, now {now}x)")
    return failures


def write_results(results):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(REPO_ROOT, JSON_FILE)
    with open(json_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    render_table(results).emit(os.path.join(RESULTS_DIR, REPORT_FILE))
    return json_path


# -- pytest entry point (keeps the script healthy inside the suite) --------

def test_maintenance_benchmark():
    """Smoke-size run: results must satisfy the acceptance floors."""
    results = run_benchmarks(smoke=True)
    assert results["cases"]["text_bulk_create"]["speedup"] \
        >= TEXT_BUILD_FLOOR, results["cases"]["text_bulk_create"]
    assert results["cases"]["spatial_bulk_create"]["speedup"] \
        >= SPATIAL_BUILD_FLOOR, results["cases"]["spatial_bulk_create"]
    assert results["cases"]["executemany_insert"]["speedup"] \
        >= EXECUTEMANY_FLOOR, results["cases"]["executemany_insert"]
    assert results["cases"]["tessellate_rect"]["speedup"] \
        >= TESSELLATE_FLOOR, results["cases"]["tessellate_rect"]
    assert results["cases"]["text_update_scaling"]["met"], \
        results["cases"]["text_update_scaling"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--check", action="store_true",
                        help="compare speedup ratios against the committed "
                             "baseline instead of overwriting it")
    args = parser.parse_args(argv)

    results = run_benchmarks(smoke=args.smoke)
    if args.check:
        render_table(results).emit()
        failures = check_against_baseline(
            results, os.path.join(REPO_ROOT, JSON_FILE))
        for failure in failures:
            print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    path = write_results(results)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
