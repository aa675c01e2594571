"""Domain indexes on index-organized base tables.

An IOT row's rowid is its key, so a domain index on an IOT stores
logical rowids, and an UPDATE that changes a row's key moves the row to
a new rowid: domain maintenance sees a delete of the old rowid and an
insert of the new one.  After key-changing updates, an update of the
indexed column and deletes, each index must answer exactly what the
functional implementation answers over a full scan.  The chemistry
index packs physical rowids into a fixed-width file and must refuse an
IOT base table when the index is created.
"""

import random

import pytest

from repro.cartridges.spatial import make_rect
from repro.cartridges.spatial.indextype import sdo_relate_functional
from repro.cartridges.text import text_contains
from repro.cartridges.vir import (
    perturb_signature, random_signature, vir_similar_functional)
from repro import IndexState
from repro.errors import ODCIError


def _churn(db, table, key, column, new_value):
    """Key-changing updates, an update of the indexed column (with and
    without a key change), deletes and an insert."""
    db.execute(f"UPDATE {table} SET {key} = {key} + 1000"
               f" WHERE {key} < 10")
    db.execute(f"UPDATE {table} SET {key} = 2000, {column} = :1"
               f" WHERE {key} = 20", [new_value(0)])
    db.execute(f"UPDATE {table} SET {column} = :1 WHERE {key} = 30",
               [new_value(1)])
    db.execute(f"DELETE FROM {table} WHERE {key} BETWEEN 40 AND 49")
    db.execute(f"DELETE FROM {table} WHERE {key} = 1003")
    db.execute(f"INSERT INTO {table} VALUES (:1, :2)", [5, new_value(2)])


def _check(db, table, key, column, sql, args, functional, index_name):
    """``sql`` through the domain index equals ``functional`` applied to
    every row of a full scan."""
    assert any(f"DOMAIN INDEX SCAN {index_name}" in line
               for line in db.explain(sql, args))
    indexed = sorted(row[0] for row in db.execute(sql, args).fetchall())
    expected = sorted(
        k for k, value in db.execute(
            f"SELECT {key}, {column} FROM {table}").fetchall()
        if functional(value))
    assert indexed == expected
    return indexed


def test_text_index_on_an_iot(text_db):
    db = text_db
    rng = random.Random(7)
    words = [f"w{i}" for i in range(12)]
    db.execute("CREATE TABLE notes (id INTEGER, body VARCHAR2(200),"
               " PRIMARY KEY (id)) ORGANIZATION INDEX")
    db.insert_rows("notes", [[i, " ".join(rng.sample(words, 4))]
                             for i in range(80)])
    db.execute("CREATE INDEX notes_tidx ON notes(body)"
               " INDEXTYPE IS TextIndexType")
    _churn(db, "notes", "id", "body",
           lambda i: ["w1 zz", "w2 zz", "w3 zz"][i])
    seen = set()
    for query in ("w1", "w2", "zz", "w3 AND w4", "w5 OR zz"):
        seen.update(_check(
            db, "notes", "id", "body",
            "SELECT id FROM notes WHERE Contains(body, :1)", [query],
            lambda body, q=query: text_contains(body, q), "notes_tidx"))
    assert {1000, 2000, 5} <= seen and not seen & {0, 1003, 20, 40}


def test_spatial_index_on_an_iot(spatial_db):
    db = spatial_db
    rng = random.Random(8)
    gt = db.catalog.get_object_type("SDO_GEOMETRY")

    def shape(x=None, y=None):
        x = rng.uniform(0, 900) if x is None else x
        y = rng.uniform(0, 900) if y is None else y
        return make_rect(gt, x, y, x + rng.uniform(5, 80),
                         y + rng.uniform(5, 80))

    db.execute("CREATE TABLE parcels (id INTEGER, shape SDO_GEOMETRY,"
               " PRIMARY KEY (id)) ORGANIZATION INDEX")
    db.insert_rows("parcels", [[i, shape()] for i in range(80)])
    db.execute("CREATE INDEX parcels_sidx ON parcels(shape)"
               " INDEXTYPE IS SpatialIndexType")
    _churn(db, "parcels", "id", "shape", lambda i: shape(100, 100))
    seen = set()
    for x, y, side in ((80, 80, 100), (300, 300, 250), (0, 600, 300)):
        window = make_rect(gt, x, y, x + side, y + side)
        seen.update(_check(
            db, "parcels", "id", "shape",
            "SELECT id FROM parcels WHERE"
            " Sdo_Relate(shape, :1, 'mask=ANYINTERACT')", [window],
            lambda geometry, w=window: sdo_relate_functional(
                geometry, w, "mask=ANYINTERACT"), "parcels_sidx"))
    assert {1000, 2000, 5} <= seen and not seen & {0, 1003, 20, 40}


def test_vir_index_on_an_iot(vir_db):
    db = vir_db
    rng = random.Random(9)
    image_type = db.catalog.get_object_type("IMAGE_T")
    centre = random_signature(rng)

    def image(near=False):
        signature = (perturb_signature(rng, centre, 0.01) if near
                     else random_signature(rng))
        return image_type.new(signature=signature, width=64, height=64)

    db.execute("CREATE TABLE pics (iid INTEGER, img IMAGE_T,"
               " PRIMARY KEY (iid)) ORGANIZATION INDEX")
    db.insert_rows("pics", [[i, image(near=i % 3 == 0)]
                            for i in range(80)])
    db.execute("CREATE INDEX pics_vidx ON pics(img)"
               " INDEXTYPE IS VirIndexType")
    _churn(db, "pics", "iid", "img", lambda i: image(near=True))
    weights = "globalcolor=0.5,localcolor=0.2,texture=0.2,structure=0.1"
    seen = _check(
        db, "pics", "iid", "img",
        "SELECT iid FROM pics WHERE VIRSimilar(img.signature, :1, :2, 8)",
        [centre, weights],
        lambda img: vir_similar_functional(img, centre, weights, 8),
        "pics_vidx")
    assert {1000, 2000, 5} <= set(seen) and not set(seen) & {0, 1003, 20}


def test_chemistry_index_refuses_an_iot_base_table(chem_db):
    chem_db.execute("CREATE TABLE mols (mid INTEGER, mol VARCHAR2(100),"
                    " PRIMARY KEY (mid)) ORGANIZATION INDEX")
    chem_db.execute("INSERT INTO mols VALUES (1, 'CCO')")
    with pytest.raises(ODCIError, match="index-organized"):
        chem_db.execute("CREATE INDEX mols_idx ON mols(mol)"
                        " INDEXTYPE IS ChemIndexType")
    # refused before it built anything: no storage table, and the
    # index is FAILED, as after any failed ODCIIndexCreate
    assert chem_db.execute("SELECT table_name FROM user_tables"
                           ).fetchall() == [("mols",)]
    assert chem_db.catalog.get_index("mols_idx").domain.state \
        is IndexState.FAILED
