"""Fault-isolated dispatch, end to end, through all four cartridges.

The acceptance scenario of the robustness work: a fault injected into
``ODCIIndexInsert`` at row *k* of a multi-row INSERT must leave the
statement atomic (the first attempt rolls back, the retry lands every
row), degrade the index to UNUSABLE, invalidate the cached plan of an
affected SELECT, and let that SELECT keep answering correctly through
functional evaluation — until ``ALTER INDEX ... REBUILD`` restores
VALID and the index path.  The same scenario is driven through the
text, spatial, VIR, and chemistry cartridges, so fault isolation is a
property of the dispatch seam, not of one cartridge's discipline.

All tests here use the deterministic fault-injection harness
(:class:`repro.testing.FaultPlan`) and carry the ``faults`` marker.
"""

import random

import pytest

from repro import Engine, IndexState
from repro.errors import ODCIError
from repro.testing import FaultPlan

pytestmark = pytest.mark.faults


def assert_acceptance(db, *, index_name, table, select_sql, params,
                      expected_before, expected_after, do_insert,
                      fault_row, rows_before, rows_inserted):
    """Drive the ISSUE acceptance scenario against one cartridge."""
    # -- healthy baseline: domain index path, plan enters the cache ----
    plan = db.explain(select_sql, params)
    assert any(f"DOMAIN INDEX SCAN {index_name}" in line for line in plan)
    assert any("plan cache: MISS (stored)" in line for line in plan)
    got = sorted(r[0] for r in db.execute(select_sql, params).fetchall())
    assert got == expected_before
    plan = db.explain(select_sql, params)
    assert any("plan cache: HIT" in line for line in plan)

    # -- fault at row k of a multi-row INSERT --------------------------
    with FaultPlan(db) as faults:
        faults.fail_on_call("ODCIIndexInsert", nth=fault_row,
                            index=index_name)
        do_insert(db)
        # rows 1..k-1 were maintained, row k faulted, and the retry ran
        # with the index sidelined — so exactly k dispatches happened
        assert faults.calls("ODCIIndexInsert", index=index_name) == fault_row
        assert faults.outcomes("ODCIIndexInsert")[-1] == "fault"

    # the statement succeeded (degrade-and-retry) and was atomic
    count = db.execute(f"SELECT COUNT(*) FROM {table}").fetchall()
    assert count == [(rows_before + rows_inserted,)]
    index = db.catalog.get_index(index_name)
    assert index.domain.state is IndexState.UNUSABLE

    # -- cached plan invalidated; functional fallback answers ----------
    plan = db.explain(select_sql, params)
    assert any("plan cache: MISS (stored)" in line for line in plan)
    assert not any("DOMAIN INDEX SCAN" in line for line in plan)
    assert any(f"FUNCTIONAL (index {index_name} UNUSABLE)" in line
               for line in plan)
    got = sorted(r[0] for r in db.execute(select_sql, params).fetchall())
    assert got == expected_after

    # -- REBUILD restores VALID and the index path ---------------------
    db.execute(f"ALTER INDEX {index_name} REBUILD")
    assert db.catalog.get_index(index_name).domain.state is IndexState.VALID
    plan = db.explain(select_sql, params)
    assert any(f"DOMAIN INDEX SCAN {index_name}" in line for line in plan)
    got = sorted(r[0] for r in db.execute(select_sql, params).fetchall())
    assert got == expected_after


class TestTextCartridge:
    def test_insert_fault_isolated(self, text_db):
        from repro.bench.workloads import make_corpus

        corpus = make_corpus(120, words_per_doc=30, vocabulary_size=80,
                             seed=11)
        text_db.execute(
            "CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
        text_db.insert_rows(
            "docs", [[i, doc] for i, doc in enumerate(corpus.documents)])
        text_db.execute("CREATE INDEX docs_text ON docs(body)"
                        " INDEXTYPE IS TextIndexType")
        text_db.execute("ANALYZE TABLE docs COMPUTE STATISTICS")

        word = corpus.rare_word()
        expected_before = sorted(
            i for i, doc in enumerate(corpus.documents)
            if word in doc.split())
        filler = corpus.common_word(0)
        new_docs = [(120, f"{word} {filler} {filler}"),
                    (121, f"{filler} {word} {filler}"),
                    (122, f"{filler} {filler} {filler}")]
        expected_after = sorted(expected_before + [120, 121])

        def do_insert(db):
            values = ", ".join(f"({i}, '{body}')" for i, body in new_docs)
            db.execute(f"INSERT INTO docs VALUES {values}")

        assert_acceptance(
            text_db, index_name="docs_text", table="docs",
            select_sql=f"SELECT id FROM docs WHERE Contains(body, '{word}')",
            params=None, expected_before=expected_before,
            expected_after=expected_after, do_insert=do_insert,
            fault_row=2, rows_before=120, rows_inserted=3)


class TestSpatialCartridge:
    def test_insert_fault_isolated(self, spatial_db):
        from repro.bench.workloads import make_rect_layer
        from repro.cartridges.spatial import make_rect
        from repro.cartridges.spatial.indextype import sdo_relate_functional

        db = spatial_db
        db.execute(
            "CREATE TABLE parks (gid INTEGER, geometry SDO_GEOMETRY)")
        gt = db.catalog.get_object_type("SDO_GEOMETRY")
        parks = make_rect_layer(gt, 40, seed=3, min_size=20, max_size=120,
                                start_gid=100)
        db.insert_rows("parks", [[g, geom] for g, geom in parks])
        db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
                   " INDEXTYPE IS SpatialIndexType")

        window = make_rect(gt, 300, 300, 700, 700)
        new_parks = make_rect_layer(gt, 6, seed=7, min_size=30, max_size=150,
                                    start_gid=200)
        all_parks = list(parks) + list(new_parks)

        def truth(layer):
            return sorted(g for g, geom in layer
                          if sdo_relate_functional(geom, window,
                                                   "mask=ANYINTERACT"))

        assert_acceptance(
            db, index_name="parks_sidx", table="parks",
            select_sql=("SELECT gid FROM parks WHERE "
                        "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')"),
            params=[window], expected_before=truth(parks),
            expected_after=truth(all_parks),
            do_insert=lambda d: d.insert_rows(
                "parks", [[g, geom] for g, geom in new_parks]),
            fault_row=3, rows_before=40, rows_inserted=6)


class TestVirCartridge:
    WEIGHTS = "globalcolor=0.5,localcolor=0.2,texture=0.2,structure=0.1"

    def test_insert_fault_isolated(self, vir_db):
        from repro.bench.workloads import make_signature_table
        from repro.cartridges.vir import (
            parse_weights, random_signature, signature_distance)

        rows, centre = make_signature_table(150, cluster_every=10, seed=4)
        image_type = vir_db.catalog.get_object_type("IMAGE_T")
        vir_db.execute("CREATE TABLE images (iid INTEGER, img IMAGE_T)")
        vir_db.insert_rows("images", [
            [i, image_type.new(signature=sig, width=64, height=64)]
            for i, sig in rows])
        vir_db.execute("CREATE INDEX images_vidx ON images(img)"
                       " INDEXTYPE IS VirIndexType")

        rng = random.Random(21)
        new_rows = [(1000, centre), (1001, random_signature(rng)),
                    (1002, centre), (1003, random_signature(rng))]
        weights = parse_weights(self.WEIGHTS)

        def truth(data):
            return sorted(i for i, sig in data
                          if signature_distance(sig, centre, weights) <= 8)

        assert_acceptance(
            vir_db, index_name="images_vidx", table="images",
            select_sql=("SELECT iid FROM images WHERE "
                        "VIRSimilar(img.signature, :1, :2, 8)"),
            params=[centre, self.WEIGHTS],
            expected_before=truth(rows),
            expected_after=truth(list(rows) + new_rows),
            do_insert=lambda d: d.insert_rows("images", [
                [i, image_type.new(signature=sig, width=64, height=64)]
                for i, sig in new_rows]),
            fault_row=2, rows_before=150, rows_inserted=4)


class TestChemistryCartridge:
    def test_insert_fault_isolated(self, chem_db):
        from repro.bench.workloads import make_molecule_table
        from repro.cartridges.chemistry.indextype import chem_match

        rows = make_molecule_table(60, seed=6)
        chem_db.execute(
            "CREATE TABLE molecules (mid INTEGER, mol VARCHAR2(512))")
        chem_db.insert_rows("molecules", [list(r) for r in rows])
        chem_db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                        " INDEXTYPE IS ChemIndexType"
                        " PARAMETERS (':Storage LOB')")

        target = rows[10][1]
        new_rows = [(1000, target), (1001, rows[0][1]), (1002, rows[1][1])]

        def truth(data):
            return sorted(i for i, smiles in data
                          if chem_match(smiles, target) == 1)

        assert_acceptance(
            chem_db, index_name="mol_idx", table="molecules",
            select_sql=("SELECT mid FROM molecules WHERE "
                        "Chem_Match(mol, :1)"),
            params=[target], expected_before=truth(rows),
            expected_after=truth(list(rows) + new_rows),
            do_insert=lambda d: d.insert_rows(
                "molecules", [list(r) for r in new_rows]),
            fault_row=2, rows_before=60, rows_inserted=3)


class TestMultiIndexUpdateRollback:
    """One multi-row UPDATE maintaining text AND spatial indexes.

    With ``skip_unusable_indexes`` off, a fault in one index's
    maintenance mid-statement must roll the whole statement back — the
    contents of *both* domain indexes (and the base table) are restored,
    verified by running the same indexed queries before and after.
    """

    @pytest.fixture
    def assets_db(self):
        from repro.cartridges.spatial import install as install_spatial
        from repro.cartridges.spatial import make_rect
        from repro.cartridges.text import install as install_text

        db = Engine().connect()
        install_text(db)
        install_spatial(db)
        db.execute("CREATE TABLE assets (aid INTEGER, body VARCHAR2(200),"
                   " geometry SDO_GEOMETRY)")
        gt = db.catalog.get_object_type("SDO_GEOMETRY")
        for i in range(40):
            x = (i * 37) % 900
            db.insert_row("assets", [
                i, f"landmark site{i}", make_rect(gt, x, x, x + 50, x + 50)])
        db.execute("CREATE INDEX assets_text ON assets(body)"
                   " INDEXTYPE IS TextIndexType")
        db.execute("CREATE INDEX assets_sidx ON assets(geometry)"
                   " INDEXTYPE IS SpatialIndexType")
        db.geometry_type = gt
        return db

    def _snapshot(self, db):
        gt = db.geometry_type
        from repro.cartridges.spatial import make_rect
        window = make_rect(gt, 0, 0, 250, 250)
        text_hits = sorted(r[0] for r in db.execute(
            "SELECT aid FROM assets WHERE Contains(body, 'landmark')"
        ).fetchall())
        spatial_hits = sorted(r[0] for r in db.execute(
            "SELECT aid FROM assets WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window]
        ).fetchall())
        return text_hits, spatial_hits, window

    def test_mid_statement_fault_rolls_back_both_indexes(self, assets_db):
        from repro.cartridges.spatial import make_rect

        db = assets_db
        db.skip_unusable_indexes = False
        before_text, before_spatial, window = self._snapshot(db)
        assert before_text == list(range(40))
        assert before_spatial  # the window really intersects some rows

        gt = db.geometry_type
        new_geom = make_rect(gt, 900, 900, 950, 950)
        with FaultPlan(db) as faults:
            faults.fail_on_call("ODCIIndexUpdate", nth=3,
                                index="assets_sidx")
            with pytest.raises(ODCIError):
                db.execute("UPDATE assets SET body = 'renamed zone',"
                           " geometry = :1 WHERE aid < 5", [new_geom])
            # the statement saw real maintenance before the fault
            assert faults.calls("ODCIIndexUpdate", index="assets_sidx") == 3

        # both indexes stayed VALID and their contents were restored
        assert db.catalog.get_index(
            "assets_text").domain.state is IndexState.VALID
        assert db.catalog.get_index(
            "assets_sidx").domain.state is IndexState.VALID
        after_text, after_spatial, __ = self._snapshot(db)
        assert after_text == before_text
        assert after_spatial == before_spatial
        # the replacement values are nowhere — in the base table or
        # either index
        assert db.execute("SELECT aid FROM assets"
                          " WHERE Contains(body, 'renamed')").fetchall() == []
        # and both queries still run through their domain indexes
        plan = db.explain(
            "SELECT aid FROM assets WHERE Contains(body, 'landmark')")
        assert any("DOMAIN INDEX SCAN assets_text" in line for line in plan)
        plan = db.explain(
            "SELECT aid FROM assets WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window])
        assert any("DOMAIN INDEX SCAN assets_sidx" in line for line in plan)

    def test_skip_on_degrades_faulted_index_only(self, assets_db):
        from repro.cartridges.spatial import make_rect

        db = assets_db
        gt = db.geometry_type
        new_geom = make_rect(gt, 900, 900, 950, 950)
        with FaultPlan(db) as faults:
            faults.fail_on_call("ODCIIndexUpdate", nth=3,
                                index="assets_sidx")
            db.execute("UPDATE assets SET body = 'renamed zone',"
                       " geometry = :1 WHERE aid < 5", [new_geom])
        # the spatial index degraded; the text index was re-maintained
        # on the retry and stays both VALID and consistent
        assert db.catalog.get_index(
            "assets_sidx").domain.state is IndexState.UNUSABLE
        assert db.catalog.get_index(
            "assets_text").domain.state is IndexState.VALID
        renamed = sorted(r[0] for r in db.execute(
            "SELECT aid FROM assets WHERE Contains(body, 'renamed')"
        ).fetchall())
        assert renamed == [0, 1, 2, 3, 4]
        plan = db.explain(
            "SELECT aid FROM assets WHERE Contains(body, 'renamed')")
        assert any("DOMAIN INDEX SCAN assets_text" in line for line in plan)


class TestCursorCloseOnFetchFault:
    """Satellite (a): ODCIIndexClose fires exactly once even when the
    fetch raised mid-scan, and a second close() is a no-op."""

    @pytest.fixture
    def docs_db(self, text_db):
        from repro.bench.workloads import make_corpus

        corpus = make_corpus(60, words_per_doc=20, vocabulary_size=40,
                             seed=5)
        text_db.execute(
            "CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
        text_db.insert_rows(
            "docs", [[i, doc] for i, doc in enumerate(corpus.documents)])
        text_db.execute("CREATE INDEX docs_text ON docs(body)"
                        " INDEXTYPE IS TextIndexType")
        text_db.corpus = corpus
        return text_db

    def test_close_fires_exactly_once_after_fetch_fault(self, docs_db):
        word = docs_db.corpus.common_word(0)
        # with skip_unusable_indexes on, a pre-first-row fetch fault would
        # degrade the index and retry; here we want the raw propagation
        docs_db.skip_unusable_indexes = False
        with FaultPlan(docs_db) as faults:
            faults.fail_on_call("ODCIIndexFetch", nth=1, index="docs_text")
            cursor = docs_db.execute(
                f"SELECT id FROM docs WHERE Contains(body, '{word}')")
            with pytest.raises(ODCIError):
                cursor.fetchall()
            assert faults.calls("ODCIIndexStart", index="docs_text") == 1
            cursor.close()
            assert faults.calls("ODCIIndexClose", index="docs_text") == 1
            # idempotent: a second close neither raises nor re-dispatches
            cursor.close()
            assert faults.calls("ODCIIndexClose", index="docs_text") == 1
            assert cursor.fetchone() is None

    def test_context_manager_closes_once_on_clean_exit(self, docs_db):
        word = docs_db.corpus.common_word(0)
        with FaultPlan(docs_db) as faults:
            with docs_db.execute(
                    f"SELECT id FROM docs WHERE Contains(body, '{word}')"
                    ) as cursor:
                cursor.fetchmany(1)
            assert faults.calls("ODCIIndexClose", index="docs_text") == 1
            cursor.close()
            assert faults.calls("ODCIIndexClose", index="docs_text") == 1
