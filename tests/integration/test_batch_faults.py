"""Mid-batch maintenance faults, per cartridge.

The array maintenance interface must preserve PR 2's fault semantics
exactly: a fault at entry *k* of a batched statement rolls the whole
statement back (statement-level atomicity), and the degradation policy
(``skip_unusable_indexes``) still decides between fail-the-statement
and sideline-the-index-and-retry.  Every cartridge's batch fires one
fault-seam event per entry, under the scalar routine name, *before* its
array routine runs, so a fault at entry *k* fails the batch before the
cartridge does any work, and an injected delay meets the scalar
routine's budget as it did under per-row dispatch.

All tests carry the ``faults`` marker.
"""

import random

import pytest

from repro import IndexState
from repro.errors import CallbackError, CallbackTimeoutError
from repro.testing import FaultPlan

pytestmark = pytest.mark.faults


def assert_batch_fault(db, *, index_name, table, select_sql, params,
                       expected_before, expected_after, do_batch_insert,
                       fault_entry, rows_before, rows_inserted):
    """Drive one cartridge through both degradation policies.

    ``do_batch_insert`` must insert ``rows_inserted`` rows in ONE
    statement so every maintenance entry lands in a single flush.
    """
    def ids(sql=select_sql):
        return sorted(r[0] for r in db.execute(sql, params).fetchall())

    def count():
        return db.execute(
            f"SELECT COUNT(*) FROM {table}").fetchall()[0][0]

    assert ids() == expected_before

    # -- policy off: the statement fails atomically --------------------
    db.skip_unusable_indexes = False
    with FaultPlan(db) as faults:
        faults.fail_on_call("ODCIIndexInsert", nth=fault_entry,
                            index=index_name)
        with pytest.raises(CallbackError):
            do_batch_insert(db)
        assert faults.outcomes("ODCIIndexInsert")[-1] == "fault"
    assert count() == rows_before
    index = db.catalog.get_index(index_name)
    assert index.domain.state is IndexState.VALID
    # index contents consistent with the rolled-back base table
    assert ids() == expected_before

    # -- policy on: degrade-and-retry lands every row ------------------
    db.skip_unusable_indexes = True
    with FaultPlan(db) as faults:
        faults.fail_on_call("ODCIIndexInsert", nth=fault_entry,
                            index=index_name)
        do_batch_insert(db)
    assert count() == rows_before + rows_inserted
    assert db.catalog.get_index(index_name).domain.state \
        is IndexState.UNUSABLE
    # functional fallback answers over the full data
    assert ids() == expected_after

    # -- REBUILD restores the index over the batched rows --------------
    db.execute(f"ALTER INDEX {index_name} REBUILD")
    assert db.catalog.get_index(index_name).domain.state is IndexState.VALID
    assert ids() == expected_after


class TestTextBatch:
    def test_executemany_mid_batch_fault(self, text_db):
        text_db.execute(
            "CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
        docs = [[i, f"alpha filler{i % 3} w{i}"] for i in range(12)]
        text_db.insert_rows("docs", docs)
        text_db.execute("CREATE INDEX docs_text ON docs(body)"
                        " INDEXTYPE IS TextIndexType")
        new_docs = [[100, "needle alpha"], [101, "filler0 only"],
                    [102, "needle beta"], [103, "filler1 only"]]

        assert_batch_fault(
            text_db, index_name="docs_text", table="docs",
            select_sql="SELECT id FROM docs WHERE Contains(body, 'needle')",
            params=None, expected_before=[], expected_after=[100, 102],
            do_batch_insert=lambda d: d.executemany(
                "INSERT INTO docs VALUES (:1, :2)", new_docs),
            fault_entry=3, rows_before=12, rows_inserted=4)

    def test_injected_delay_meets_the_scalar_budget(self, text_db):
        """A per-entry delay counts against ``ODCIIndexInsert``'s budget
        for a cartridge that writes only the array routines."""
        text_db.execute(
            "CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
        text_db.execute("CREATE INDEX docs_text ON docs(body)"
                        " INDEXTYPE IS TextIndexType")
        text_db.skip_unusable_indexes = False
        text_db.dispatcher.set_timeout("ODCIIndexInsert", 0.05)
        try:
            with FaultPlan(text_db) as faults:
                faults.delay("ODCIIndexInsert", ms=100)
                with pytest.raises(CallbackTimeoutError):
                    text_db.executemany(
                        "INSERT INTO docs VALUES (:1, :2)",
                        [[1, "alpha"], [2, "beta"]])
        finally:
            text_db.dispatcher.set_timeout("ODCIIndexInsert", None)
        assert text_db.execute(
            "SELECT COUNT(*) FROM docs").fetchall() == [(0,)]


class TestSpatialBatch:
    def test_insert_rows_mid_batch_fault(self, spatial_db):
        from repro.bench.workloads import make_rect_layer
        from repro.cartridges.spatial import make_rect
        from repro.cartridges.spatial.indextype import sdo_relate_functional

        db = spatial_db
        db.execute(
            "CREATE TABLE parks (gid INTEGER, geometry SDO_GEOMETRY)")
        gt = db.catalog.get_object_type("SDO_GEOMETRY")
        parks = make_rect_layer(gt, 30, seed=5, min_size=20, max_size=120,
                                start_gid=100)
        db.insert_rows("parks", [[g, geom] for g, geom in parks])
        db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
                   " INDEXTYPE IS SpatialIndexType")

        window = make_rect(gt, 300, 300, 700, 700)
        new_parks = make_rect_layer(gt, 5, seed=9, min_size=30,
                                    max_size=150, start_gid=200)

        def truth(layer):
            return sorted(g for g, geom in layer
                          if sdo_relate_functional(geom, window,
                                                   "mask=ANYINTERACT"))

        assert_batch_fault(
            db, index_name="parks_sidx", table="parks",
            select_sql=("SELECT gid FROM parks WHERE "
                        "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')"),
            params=[window], expected_before=truth(parks),
            expected_after=truth(list(parks) + list(new_parks)),
            do_batch_insert=lambda d: d.insert_rows(
                "parks", [[g, geom] for g, geom in new_parks]),
            fault_entry=2, rows_before=30, rows_inserted=5)


class TestChemistryBatch:
    def test_insert_rows_mid_batch_fault(self, chem_db):
        from repro.bench.workloads import make_molecule_table
        from repro.cartridges.chemistry.indextype import chem_match

        rows = make_molecule_table(40, seed=8)
        chem_db.execute(
            "CREATE TABLE molecules (mid INTEGER, mol VARCHAR2(512))")
        chem_db.insert_rows("molecules", [list(r) for r in rows])
        chem_db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                        " INDEXTYPE IS ChemIndexType"
                        " PARAMETERS (':Storage LOB')")

        target = rows[7][1]
        new_rows = [(1000, target), (1001, rows[0][1]), (1002, target)]

        def truth(data):
            return sorted(i for i, smiles in data
                          if chem_match(smiles, target) == 1)

        assert_batch_fault(
            chem_db, index_name="mol_idx", table="molecules",
            select_sql=("SELECT mid FROM molecules WHERE "
                        "Chem_Match(mol, :1)"),
            params=[target], expected_before=truth(rows),
            expected_after=truth(list(rows) + new_rows),
            do_batch_insert=lambda d: d.insert_rows(
                "molecules", [list(r) for r in new_rows]),
            fault_entry=2, rows_before=40, rows_inserted=3)


class TestVirBatch:
    """VIR writes the array routines, like text, spatial and chemistry."""

    def test_insert_rows_mid_batch_fault(self, vir_db):
        from repro.bench.workloads import make_signature_table
        from repro.cartridges.vir import (
            parse_weights, random_signature, signature_distance)

        rows, centre = make_signature_table(80, cluster_every=10, seed=2)
        image_type = vir_db.catalog.get_object_type("IMAGE_T")
        vir_db.execute("CREATE TABLE images (iid INTEGER, img IMAGE_T)")
        vir_db.insert_rows("images", [
            [i, image_type.new(signature=sig, width=64, height=64)]
            for i, sig in rows])
        vir_db.execute("CREATE INDEX images_vidx ON images(img)"
                       " INDEXTYPE IS VirIndexType")

        rng = random.Random(31)
        new_rows = [(1000, centre), (1001, random_signature(rng)),
                    (1002, centre)]
        weights = "globalcolor=0.5,localcolor=0.2,texture=0.2,structure=0.1"
        parsed = parse_weights(weights)

        def truth(data):
            return sorted(i for i, sig in data
                          if signature_distance(sig, centre, parsed) <= 8)

        assert_batch_fault(
            vir_db, index_name="images_vidx", table="images",
            select_sql=("SELECT iid FROM images WHERE "
                        "VIRSimilar(img.signature, :1, :2, 8)"),
            params=[centre, weights],
            expected_before=truth(rows),
            expected_after=truth(list(rows) + new_rows),
            do_batch_insert=lambda d: d.insert_rows("images", [
                [i, image_type.new(signature=sig, width=64, height=64)]
                for i, sig in new_rows]),
            fault_entry=2, rows_before=80, rows_inserted=3)

    def test_fault_fails_the_batch_before_the_array_call(self, vir_db):
        """A fault at entry 3 stops the batch before the cartridge runs,
        and the statement rolls back."""
        from repro.bench.workloads import make_signature_table

        rows, centre = make_signature_table(20, cluster_every=5, seed=12)
        image_type = vir_db.catalog.get_object_type("IMAGE_T")
        vir_db.execute("CREATE TABLE images (iid INTEGER, img IMAGE_T)")
        vir_db.insert_rows("images", [
            [i, image_type.new(signature=sig, width=64, height=64)]
            for i, sig in rows])
        vir_db.execute("CREATE INDEX images_vidx ON images(img)"
                       " INDEXTYPE IS VirIndexType")
        vir_db.skip_unusable_indexes = False

        new_rows = [(100, centre), (101, centre), (102, centre)]
        with FaultPlan(vir_db) as faults:
            faults.fail_on_call("ODCIIndexInsert", nth=3,
                                index="images_vidx")
            with pytest.raises(CallbackError):
                vir_db.insert_rows("images", [
                    [i, image_type.new(signature=sig, width=64, height=64)]
                    for i, sig in new_rows])
            # entries 1 and 2 passed the seam, entry 3 faulted: exactly
            # 3 scalar events, and the array routine was never invoked
            assert faults.calls("ODCIIndexInsert",
                                index="images_vidx") == 3
            assert faults.calls("ODCIIndexInsertBatch") == 0
        assert vir_db.execute(
            "SELECT COUNT(*) FROM images").fetchall() == [(20,)]
        assert vir_db.catalog.get_index("images_vidx").domain.state \
            is IndexState.VALID


class TestUpdateDeleteBatchFaults:
    """Kind-runs: a mixed statement flushes per contiguous kind."""

    def test_update_fault_rolls_back_statement(self, text_db):
        text_db.execute(
            "CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
        text_db.insert_rows(
            "docs", [[i, f"alpha w{i}"] for i in range(6)])
        text_db.execute("CREATE INDEX docs_text ON docs(body)"
                        " INDEXTYPE IS TextIndexType")
        text_db.skip_unusable_indexes = False

        with FaultPlan(text_db) as faults:
            faults.fail_on_call("ODCIIndexUpdate", nth=2,
                                index="docs_text")
            with pytest.raises(CallbackError):
                text_db.execute("UPDATE docs SET body = 'bravo changed'"
                                " WHERE id < 4")
        # nothing changed: base table and index both rolled back
        assert text_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'bravo')"
        ).fetchall() == []
        assert sorted(text_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'alpha')"
        ).fetchall()) == [(i,) for i in range(6)]

    def test_delete_fault_rolls_back_statement(self, text_db):
        text_db.execute(
            "CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
        text_db.insert_rows(
            "docs", [[i, f"alpha w{i}"] for i in range(6)])
        text_db.execute("CREATE INDEX docs_text ON docs(body)"
                        " INDEXTYPE IS TextIndexType")
        text_db.skip_unusable_indexes = False

        with FaultPlan(text_db) as faults:
            faults.fail_on_call("ODCIIndexDelete", nth=2,
                                index="docs_text")
            with pytest.raises(CallbackError):
                text_db.execute("DELETE FROM docs WHERE id < 4")
        assert text_db.execute(
            "SELECT COUNT(*) FROM docs").fetchall() == [(6,)]
        assert sorted(text_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'alpha')"
        ).fetchall()) == [(i,) for i in range(6)]
