"""A domain-index entry costs one object the garbage collector tracks.

An index build leaves its entries resident as rows of an index-organized
table.  Each row is a key tuple and a payload tuple in a unique B-tree:
the key holds a rowid, so it stays tracked, and the payload holds plain
values, so the collector stops tracking it at its first pass.  These
tests count what a build adds to ``gc.get_objects()`` — a count that
repeats exactly — per entry.  The rowids the keys share (one per base
row) and the B-tree's nodes are the rest.  A build's traced-memory peak
per entry shows whether it built a row per entry on the way.
"""

import gc
import random
import tracemalloc

from repro import Engine
from repro.cartridges.spatial import install as install_spatial
from repro.cartridges.spatial import make_rect
from repro.cartridges.text import install as install_text


def _tracked_per_entry(db, create_sql, drop_sql, table):
    """GC-tracked objects a second build adds, per row of ``table``
    (the first build and drop warm the plan cache and the catalog)."""
    db.execute(create_sql)
    db.execute(drop_sql)
    gc.collect()
    before = len(gc.get_objects())
    db.execute(create_sql)
    gc.collect()
    added = len(gc.get_objects()) - before
    entries = db.execute(f"SELECT COUNT(*) FROM {table}").fetchall()[0][0]
    assert entries > 4000
    return added / entries


def test_text_build_leaves_about_one_tracked_object_per_posting():
    db = Engine().connect()
    install_text(db)
    rng = random.Random(5)
    vocabulary = [f"w{i}" for i in range(2000)]
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
    db.insert_rows("docs", [[i, " ".join(rng.sample(vocabulary, 40))]
                            for i in range(300)])
    per_posting = _tracked_per_entry(
        db, "CREATE INDEX docs_tidx ON docs(body) INDEXTYPE IS TextIndexType",
        "DROP INDEX docs_tidx", "docs_tidx_terms")
    # a list per emitted posting or around each stored payload would
    # each add one
    assert per_posting <= 1.2, per_posting


def test_tile_build_leaves_about_one_tracked_object_per_tile():
    db = Engine().connect()
    install_spatial(db)
    rng = random.Random(5)
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    db.execute("CREATE TABLE shapes (id INTEGER, shape SDO_GEOMETRY)")
    rows = []
    for i in range(1500):
        x, y = rng.uniform(0, 950), rng.uniform(0, 950)
        rows.append([i, make_rect(gt, x, y, x + rng.uniform(5, 40),
                                  y + rng.uniform(5, 40))])
    db.insert_rows("shapes", rows)
    per_tile = _tracked_per_entry(
        db, "CREATE INDEX shapes_sidx ON shapes(shape)"
            " INDEXTYPE IS SpatialIndexType",
        "DROP INDEX shapes_sidx", "shapes_sidx_tiles")
    # about 2.9 tiles a geometry: the rowids the keys share are 0.34 of
    # this, the key tuples 1
    assert per_tile <= 1.5, per_tile


def _peak_bytes_per_entry(db, create_sql, drop_sql, table):
    """The traced-memory peak of a second build above what was resident
    before it, per row of ``table``: the entries the build leaves plus
    its transient objects at their largest."""
    db.execute(create_sql)
    db.execute(drop_sql)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        db.execute(create_sql)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    entries = db.execute(f"SELECT COUNT(*) FROM {table}").fetchall()[0][0]
    assert entries > 4000
    return peak / entries


def test_text_build_makes_no_row_per_posting():
    """A text build hands the terms table its key and payload columns:
    no ``(token, rid, freq)`` row is built per posting and split again
    by the table (that peaked at about 300 bytes a posting)."""
    db = Engine().connect()
    install_text(db)
    rng = random.Random(5)
    vocabulary = [f"w{i}" for i in range(2000)]
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
    db.insert_rows("docs", [[i, " ".join(rng.sample(vocabulary, 40))]
                            for i in range(300)])
    per_posting = _peak_bytes_per_entry(
        db, "CREATE INDEX docs_tidx ON docs(body) INDEXTYPE IS TextIndexType",
        "DROP INDEX docs_tidx", "docs_tidx_terms")
    assert per_posting < 260, per_posting


def test_tile_build_makes_no_row_per_tile():
    """The tile build emits ``(grpcode, code, rid)`` keys and
    ``(maxcode,)`` payloads, sorted by key: no four-value row per tile
    and no sort-key tuple per tile (together about 390 bytes a tile)."""
    db = Engine().connect()
    install_spatial(db)
    rng = random.Random(5)
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    db.execute("CREATE TABLE shapes (id INTEGER, shape SDO_GEOMETRY)")
    rows = []
    for i in range(1500):
        x, y = rng.uniform(0, 950), rng.uniform(0, 950)
        rows.append([i, make_rect(gt, x, y, x + rng.uniform(5, 40),
                                  y + rng.uniform(5, 40))])
    db.insert_rows("shapes", rows)
    per_tile = _peak_bytes_per_entry(
        db, "CREATE INDEX shapes_sidx ON shapes(shape)"
            " INDEXTYPE IS SpatialIndexType",
        "DROP INDEX shapes_sidx", "shapes_sidx_tiles")
    assert per_tile < 350, per_tile


def test_scanning_postings_retains_nothing_per_posting():
    """A scan keeps nothing per row it read: an IOT row's rowid is its
    key, built on demand and dropped with the result.  Every posting is
    read once by a full scan and once by a ``token = :1`` prefix scan."""
    db = Engine().connect()
    install_text(db)
    rng = random.Random(5)
    vocabulary = [f"w{i}" for i in range(2000)]
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
    db.insert_rows("docs", [[i, " ".join(rng.sample(vocabulary, 40))]
                            for i in range(300)])
    db.execute("CREATE INDEX docs_tidx ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    full_scan = "SELECT token, rid, freq FROM docs_tidx_terms"
    prefix_scan = "SELECT rid, freq FROM docs_tidx_terms WHERE token = :1"
    tokens = sorted({word for (body,) in db.execute(
        "SELECT body FROM docs").fetchall() for word in body.split()})
    # warm the plan cache without reading a posting
    db.execute(prefix_scan, ["absent"]).fetchall()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        postings = len(db.execute(full_scan).fetchall())
        assert sum(len(db.execute(prefix_scan, [token]).fetchall())
                   for token in tokens) == postings > 4000
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / postings < 8, retained / postings
