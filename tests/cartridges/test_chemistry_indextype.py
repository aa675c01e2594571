"""Chemistry cartridge through the SQL engine (§3.2.4), LOB and FILE."""

import pytest

from repro.bench.workloads import make_molecule_table
from repro.cartridges.chemistry import (
    parse_smiles, protect_external_index, random_substructure, to_smiles)
from repro.cartridges.chemistry.indextype import (
    chem_match, chem_similar, chem_substructure, chem_tautomer)
from repro.errors import ODCIError


@pytest.fixture
def mols_db(chem_db):
    rows = make_molecule_table(80, seed=6)
    chem_db.execute("CREATE TABLE molecules (mid INTEGER, mol VARCHAR2(512))")
    chem_db.insert_rows("molecules", [list(r) for r in rows])
    chem_db.rows_data = rows
    return chem_db


@pytest.fixture
def lob_db(mols_db):
    mols_db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                    " INDEXTYPE IS ChemIndexType PARAMETERS (':Storage LOB')")
    return mols_db


@pytest.fixture
def file_db(mols_db):
    mols_db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                    " INDEXTYPE IS ChemIndexType PARAMETERS (':Storage FILE')")
    return mols_db


class TestFunctionalOperators:
    def test_chem_match(self):
        assert chem_match("CCO", "OCC") == 1
        assert chem_match("CCO", "CCN") == 0

    def test_chem_tautomer(self):
        assert chem_tautomer("CC=O", "CCO") == 1
        assert chem_tautomer("CC=O", "CCN") == 0

    def test_chem_substructure(self):
        assert chem_substructure("C1CCCCC1", "CCC") == 1
        assert chem_substructure("CC", "CCC") == 0

    def test_chem_similar_threshold(self):
        assert chem_similar("CCO", "CCO", 0.99) == 1.0
        assert chem_similar("CCO", "NNN", 0.99) == 0


@pytest.mark.parametrize("storage_fixture", ["lob_db", "file_db"])
class TestBothStorages:
    """Every behaviour must hold identically over LOB and FILE storage."""

    def test_match_query(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        target = db.rows_data[10][1]
        rows = db.execute(
            "SELECT mid FROM molecules WHERE Chem_Match(mol, :1)", [target]
        ).fetchall()
        expected = sorted(i for i, s in db.rows_data if chem_match(s, target))
        assert sorted(r[0] for r in rows) == expected

    def test_substructure_query(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        import random
        rng = random.Random(7)
        sub = to_smiles(random_substructure(
            rng, parse_smiles(db.rows_data[5][1]), size=3))
        rows = db.execute(
            "SELECT mid FROM molecules WHERE Chem_Substructure(mol, :1)",
            [sub]).fetchall()
        expected = sorted(i for i, s in db.rows_data
                          if chem_substructure(s, sub))
        assert sorted(r[0] for r in rows) == expected

    def test_tautomer_query(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        target = db.rows_data[3][1]
        rows = db.execute(
            "SELECT mid FROM molecules WHERE Chem_Tautomer(mol, :1)",
            [target]).fetchall()
        assert 3 in [r[0] for r in rows]

    def test_similarity_with_score(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        target = db.rows_data[4][1]
        rows = db.execute(
            "SELECT mid, Chem_Score(1) FROM molecules "
            "WHERE Chem_Similar(mol, :1, 0.4, 1) "
            "ORDER BY Chem_Score(1) DESC LIMIT 3", [target]).fetchall()
        assert rows[0][0] == 4
        assert rows[0][1] == 1.0

    def test_similarity_with_and_without_ancillary(self, storage_fixture,
                                                   request):
        """The same rows with and without a ``Chem_Score`` label, both
        from the index: the fetch routine reads the scan's want-aux
        flag, not the shape of a row (a heap rowid is a tuple too).  A
        failed fetch would degrade the index and answer from a table
        scan, so the plans are checked after the queries."""
        db = request.getfixturevalue(storage_fixture)
        target = db.rows_data[4][1]
        expected = {mid: chem_similar(s, target, 0.4)
                    for mid, s in db.rows_data}
        expected = {mid: score for mid, score in expected.items() if score}
        bare = "SELECT mid FROM molecules WHERE Chem_Similar(mol, :1, 0.4)"
        scored = ("SELECT mid, Chem_Score(1) FROM molecules"
                  " WHERE Chem_Similar(mol, :1, 0.4, 1)")
        assert sorted(mid for mid, in db.execute(bare, [target])) \
            == sorted(expected)
        got = dict(db.execute(scored, [target]).fetchall())
        assert got == pytest.approx(expected, abs=1e-6)
        assert len(expected) > 1
        for sql in (bare, scored):
            assert any("DOMAIN INDEX SCAN mol_idx" in line
                       for line in db.explain(sql, [target]))

    def test_maintenance_insert_delete(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        db.execute("INSERT INTO molecules VALUES (500, 'CC(=O)OC')")
        rows = db.execute(
            "SELECT mid FROM molecules WHERE Chem_Match(mol, 'CC(=O)OC')"
        ).fetchall()
        assert 500 in [r[0] for r in rows]
        db.execute("DELETE FROM molecules WHERE mid = 500")
        rows = db.execute(
            "SELECT mid FROM molecules WHERE Chem_Match(mol, 'CC(=O)OC')"
        ).fetchall()
        assert 500 not in [r[0] for r in rows]

    def test_plan_uses_domain_index(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        plan = db.explain(
            "SELECT mid FROM molecules WHERE Chem_Match(mol, 'CCO')")
        assert any("DOMAIN INDEX SCAN mol_idx" in line for line in plan)

    def test_drop_index_cleans_storage(self, storage_fixture, request):
        db = request.getfixturevalue(storage_fixture)
        db.execute("DROP INDEX mol_idx")
        assert not db.catalog.has_table("mol_idx_meta")
        if storage_fixture == "file_db":
            assert db.files.listdir() == []


class TestStorageParameter:
    def _index(self, db, name):
        return db.execute("SELECT parameters, status FROM user_indexes"
                          " WHERE index_name = :1", [name]).fetchall()

    @pytest.mark.parametrize("parameters, kind", [
        ("", "LOB"), (":storage file", "FILE"),
        (":Storage FILE :Storage lob", "LOB")])
    def test_catalog_keeps_the_canonical_string(self, mols_db, parameters,
                                                kind):
        mols_db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                        " INDEXTYPE IS ChemIndexType"
                        f" PARAMETERS ('{parameters}')")
        assert self._index(mols_db, "mol_idx") == [
            (f":Storage {kind}", "VALID")]
        assert dict(mols_db.execute(
            "SELECT key, value FROM mol_idx_meta").fetchall())[
                "storage"] == kind

    @pytest.mark.parametrize("parameters, error", [
        (":Storgae FILE", ":Storgae FILE"), (":Storage", ":Storage$"),
        (":Storage TAPE", ":Storage TAPE")])
    def test_malformed_storage_fails_like_bad_text_parameters(
            self, mols_db, parameters, error):
        from repro.cartridges.text import install
        install(mols_db)
        mols_db.execute("CREATE TABLE docs (body VARCHAR2(100))")
        with pytest.raises(ODCIError, match="unknown parameter :bogus"):
            mols_db.execute("CREATE INDEX docs_idx ON docs(body)"
                            " INDEXTYPE IS TextIndexType"
                            " PARAMETERS (':Bogus x')")
        with pytest.raises(ODCIError, match=f"got {error}"):
            mols_db.execute("CREATE INDEX mol_idx ON molecules(mol)"
                            " INDEXTYPE IS ChemIndexType"
                            f" PARAMETERS ('{parameters}')")
        # refused before anything was built: FAILED, as the text index
        assert self._index(mols_db, "mol_idx") == [(parameters, "FAILED")]
        assert self._index(mols_db, "docs_idx") == [(":Bogus x", "FAILED")]
        assert not mols_db.catalog.has_table("mol_idx_meta")
        assert mols_db.files.listdir() == []


class TestStorageDifferences:
    def test_lob_writes_buffered_file_writes_eager(self, mols_db):
        db = mols_db
        db.execute("CREATE TABLE m2 (mid INTEGER, mol VARCHAR2(512))")
        db.insert_rows("m2", [list(r) for r in db.rows_data])
        before = db.stats.snapshot()
        db.execute("CREATE INDEX lob_i ON molecules(mol)"
                   " INDEXTYPE IS ChemIndexType PARAMETERS (':Storage LOB')")
        lob_delta = db.stats.diff(before)
        before = db.stats.snapshot()
        db.execute("CREATE INDEX file_i ON m2(mol)"
                   " INDEXTYPE IS ChemIndexType PARAMETERS (':Storage FILE')")
        file_delta = db.stats.diff(before)
        assert lob_delta["file_writes"] == 0
        assert file_delta["file_writes"] > 0

    def test_lob_rollback_consistent_without_events(self, lob_db):
        """LOB-resident index data is inside the transaction boundary."""
        lob_db.begin()
        lob_db.execute("INSERT INTO molecules VALUES (600, 'CCCCC')")
        lob_db.rollback()
        rows = lob_db.execute(
            "SELECT mid FROM molecules WHERE Chem_Match(mol, 'CCCCC')"
        ).fetchall()
        assert 600 not in [r[0] for r in rows]

    def test_file_rollback_leaves_stale_entries(self, file_db):
        """§5: external index data is NOT rolled back with the base table."""
        index = file_db.catalog.get_index("mol_idx")
        domain = index.domain
        from repro.core.callbacks import CallbackPhase
        env = file_db.make_env(CallbackPhase.SCAN, domain)
        index_file = domain.methods._index_file(domain.index_info(), env)
        live_before = len(list(index_file.records()))
        file_db.begin()
        file_db.execute("INSERT INTO molecules VALUES (601, 'CCCCC')")
        file_db.rollback()
        live_after = len(list(index_file.records()))
        assert live_after == live_before + 1  # stale entry survives

    def test_events_repair_external_index(self, file_db):
        protect_external_index(file_db, "mol_idx")
        index = file_db.catalog.get_index("mol_idx")
        from repro.core.callbacks import CallbackPhase
        env = file_db.make_env(CallbackPhase.SCAN, index.domain)
        index_file = index.domain.methods._index_file(
            index.domain.index_info(), env)
        live_before = len(list(index_file.records()))
        file_db.begin()
        file_db.execute("INSERT INTO molecules VALUES (602, 'CCCCC')")
        file_db.rollback()
        live_after = len(list(index_file.records()))
        assert live_after == live_before  # rebuilt from the base table

    def test_commit_event_compacts_tombstones(self, file_db):
        protect_external_index(file_db, "mol_idx")
        file_db.begin()
        file_db.execute("DELETE FROM molecules WHERE mid < 5")
        file_db.commit()
        index = file_db.catalog.get_index("mol_idx")
        from repro.core.callbacks import CallbackPhase
        env = file_db.make_env(CallbackPhase.SCAN, index.domain)
        index_file = index.domain.methods._index_file(
            index.domain.index_info(), env)
        records = list(index_file.raw_records())
        assert not any(r.tombstone for r in records)


class TestBatchAppends:
    def test_update_rewrites_the_header_once_per_batch(self, chem_db,
                                                       monkeypatch):
        """A 500-row UPDATE is one tombstone batch and one record batch:
        two header rewrites, not one per deleted row plus one."""
        from repro.cartridges.chemistry import storage
        mols = [mol for __, mol in make_molecule_table(500, seed=12)]
        chem_db.execute("CREATE TABLE m (id INTEGER, mol VARCHAR2(512),"
                        " alt VARCHAR2(512))")
        chem_db.insert_rows("m", [[i, mols[i], mols[(i + 1) % 500]]
                                  for i in range(500)])
        chem_db.execute("CREATE INDEX m_idx ON m(mol) INDEXTYPE IS"
                        " ChemIndexType PARAMETERS (':Storage LOB')")
        header = storage._HEADER
        packs = []

        class HeaderSpy:
            size = header.size
            unpack = staticmethod(header.unpack)

            @staticmethod
            def pack(*fields):
                packs.append(fields)
                return header.pack(*fields)

        monkeypatch.setattr(storage, "_HEADER", HeaderSpy)
        chem_db.execute("UPDATE m SET mol = alt")
        assert len(packs) == 2
        monkeypatch.undo()
        for i in (0, 250, 499):
            assert (i,) in chem_db.execute(
                "SELECT id FROM m WHERE Chem_Match(mol, :1)",
                [mols[(i + 1) % 500]]).fetchall()
