"""ChemIndexType ≡ functional evaluation, after deletes and updates.

Two copies of one molecule table take the same DML; one carries the
domain index (LOB or FILE storage), the other none, so every operator on
it runs functionally.  The DML leaves tombstones in the fingerprint file
and a rowid that was tombstoned and appended again, so the scans read a
file whose live records are decided by the tombstone pass ("later wins").
Rows and ``Chem_Score`` values must agree exactly.
"""

import random

import pytest

from repro.bench.workloads import make_molecule_table
from repro.cartridges.chemistry import (
    parse_smiles, random_substructure, to_smiles)
from repro.core.callbacks import CallbackPhase

TABLES = ("indexed", "functional")
THRESHOLDS = (0.3, 0.55, 0.8, 1.0)


@pytest.fixture(params=["LOB", "FILE"])
def chem_pair(chem_db, request):
    db = chem_db
    rows = make_molecule_table(90, seed=17)
    replacements = make_molecule_table(12, seed=29)
    for table in TABLES:
        db.execute(f"CREATE TABLE {table} (mid INTEGER, mol VARCHAR2(512))")
        db.insert_rows(table, [list(r) for r in rows])
    db.execute("CREATE INDEX indexed_idx ON indexed(mol) INDEXTYPE IS "
               f"ChemIndexType PARAMETERS (':Storage {request.param}')")
    for table in TABLES:
        db.execute(f"DELETE FROM {table} WHERE mid < 6 OR mid = 40")
        for (mid, __), (__, smiles) in zip(rows[10:22], replacements):
            db.execute(f"UPDATE {table} SET mol = :1 WHERE mid = :2",
                       [smiles, mid])
        # the same rowid tombstoned and appended twice over
        db.execute(f"UPDATE {table} SET mol = :1 WHERE mid = 11",
                   [rows[60][1]])
        db.execute(f"INSERT INTO {table} VALUES (900, :1)", [rows[0][1]])
    db.old_rows = rows
    db.new_rows = [(mid, smiles) for (mid, __), (__, smiles)
                   in zip(rows[10:22], replacements)]
    return db


def _index_file(db):
    domain = db.catalog.get_index("indexed_idx").domain
    env = db.make_env(CallbackPhase.SCAN, domain)
    return domain.methods._index_file(domain.index_info(), env)


def _both(db, sql, binds):
    """The statement over each table: the indexed one's plan must use
    the domain index and the functional one's must not."""
    results = []
    for table in TABLES:
        text = sql.format(table=table)
        uses_index = any("DOMAIN INDEX SCAN" in line
                         for line in db.explain(text, binds))
        assert uses_index == (table == "indexed"), text
        results.append(sorted(db.execute(text, binds).fetchall()))
    return results


def _queries(db):
    """Molecules that were deleted, replaced, written in place, and
    never touched."""
    picks = [db.old_rows[i][1] for i in (0, 3, 10, 11, 15, 40, 50, 60, 77)]
    return picks + [smiles for __, smiles in db.new_rows[:4]]


class TestIndexEqualsFunctional:
    def test_file_holds_tombstones_and_reappended_rowids(self, chem_pair):
        raw = list(_index_file(chem_pair).raw_records())
        tombstoned = {r.rowid for r in raw if r.tombstone}
        assert len(tombstoned) >= 12
        reappended = [rowid for rowid in tombstoned
                      if sum(1 for r in raw if r.rowid == rowid
                             and not r.tombstone) >= 2]
        assert reappended

    @pytest.mark.parametrize("operator", ["Chem_Match", "Chem_Tautomer"])
    def test_exact_operators(self, chem_pair, operator):
        for query in _queries(chem_pair):
            indexed, functional = _both(
                chem_pair, "SELECT mid FROM {table} WHERE "
                f"{operator}(mol, :1)", [query])
            assert indexed == functional, query

    def test_substructure(self, chem_pair):
        rng = random.Random(5)
        hits = 0
        for query in _queries(chem_pair):
            pattern = to_smiles(random_substructure(
                rng, parse_smiles(query), size=3))
            indexed, functional = _both(
                chem_pair, "SELECT mid FROM {table} WHERE "
                "Chem_Substructure(mol, :1)", [pattern])
            assert indexed == functional, pattern
            hits += len(indexed)
        assert hits

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_similar_rows_and_scores(self, chem_pair, threshold):
        hits = 0
        for query in _queries(chem_pair):
            indexed, functional = _both(
                chem_pair, "SELECT mid, Chem_Score(1) FROM {table} WHERE "
                f"Chem_Similar(mol, :1, {threshold}, 1)", [query])
            assert indexed == functional, query
            hits += len(indexed)
        assert hits
