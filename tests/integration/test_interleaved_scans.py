"""§2.2.3: "Multiple sets of invocations of operators can be interleaved.
At any given time, a number of operators can be evaluated using the same
indextype routines." — concurrent open scans must not share state."""

import pytest


@pytest.fixture
def corpus_db(text_db):
    text_db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(100))")
    rows = []
    for i in range(60):
        word = "alpha" if i % 2 == 0 else "beta"
        rows.append([i, f"{word} filler{i}"])
    text_db.insert_rows("docs", rows)
    text_db.execute("CREATE INDEX docs_text ON docs(body)"
                    " INDEXTYPE IS TextIndexType")
    return text_db


class TestInterleavedScans:
    def test_two_scans_same_index_interleaved(self, corpus_db):
        corpus_db.fetch_batch_size = 4
        cursor_a = corpus_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'alpha')")
        cursor_b = corpus_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'beta')")
        collected_a, collected_b = [], []
        while True:
            row_a = cursor_a.fetchone()
            row_b = cursor_b.fetchone()
            if row_a is None and row_b is None:
                break
            if row_a is not None:
                collected_a.append(row_a[0])
            if row_b is not None:
                collected_b.append(row_b[0])
        assert sorted(collected_a) == [i for i in range(60) if i % 2 == 0]
        assert sorted(collected_b) == [i for i in range(60) if i % 2 == 1]

    def test_three_scans_different_batch_positions(self, corpus_db):
        corpus_db.fetch_batch_size = 2
        cursors = [corpus_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'alpha')")
            for __ in range(3)]
        # drain them at different rates
        assert cursors[0].fetchmany(5)
        assert cursors[1].fetchmany(1)
        results = [sorted(r[0] for r in c.fetchall()
                          ) for c in cursors]
        # all three saw disjoint tails but the union per cursor is right
        full = [i for i in range(60) if i % 2 == 0]
        assert sorted(results[2]) == full

    def test_abandoned_scan_does_not_leak_workspace(self, corpus_db):
        cursor = corpus_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'alpha AND filler0')")
        cursor.fetchone()
        del cursor
        # a fresh full scan still works and the workspace drains over time
        rows = corpus_db.execute(
            "SELECT COUNT(*) FROM docs WHERE Contains(body, 'beta')"
        ).fetchall()
        assert rows[0][0] == 30

    def test_scan_interleaved_with_dml_on_other_table(self, corpus_db):
        corpus_db.execute("CREATE TABLE other (x NUMBER)")
        cursor = corpus_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'alpha')")
        first = cursor.fetchone()
        corpus_db.execute("INSERT INTO other VALUES (1)")
        rest = cursor.fetchall()
        assert first is not None
        assert len([first] + rest) == 30

    def test_nested_query_inside_iteration(self, corpus_db):
        """A new query per fetched row (the join-probe pattern)."""
        outer = corpus_db.execute(
            "SELECT id FROM docs WHERE Contains(body, 'alpha') LIMIT 5")
        looked_up = []
        for (ident,) in outer:
            inner = corpus_db.execute(
                "SELECT body FROM docs WHERE id = :1", [ident]).fetchall()
            looked_up.append(inner[0][0])
        assert len(looked_up) == 5
        assert all("alpha" in body for body in looked_up)


class TestChemWriterEdgeCases:
    def test_too_many_rings_rejected(self):
        import random

        from repro.cartridges.chemistry.molecule import (
            Molecule, to_smiles)
        from repro.errors import ExecutionError
        # a dense graph with > 9 independent cycles
        n = 14
        atoms = tuple("C" for __ in range(n))
        bonds = set()
        for i in range(n - 1):
            bonds.add((i, i + 1, 1))
        for i in range(0, n - 2, 1):
            bonds.add((i, i + 2, 1))
        molecule = Molecule(atoms, frozenset(bonds))
        with pytest.raises(ExecutionError):
            to_smiles(molecule)

    def test_disconnected_rejected(self):
        from repro.cartridges.chemistry.molecule import Molecule, to_smiles
        from repro.errors import ExecutionError
        molecule = Molecule(("C", "C", "O"), frozenset({(0, 1, 1)}))
        with pytest.raises(ExecutionError):
            to_smiles(molecule)

    def test_single_atom(self):
        from repro.cartridges.chemistry.molecule import (
            parse_smiles, to_smiles)
        assert to_smiles(parse_smiles("N")) == "N"
