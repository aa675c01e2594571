"""Text cartridge through the SQL engine: the paper's §1/§3.2.1 flows."""

import pytest

from repro.cartridges.text import LegacyTextIndex, text_contains
from repro.errors import CatalogError


class TestFunctionalImplementation:
    def test_match_scores(self):
        assert text_contains("Oracle and UNIX expert", "Oracle AND UNIX") >= 2
        assert text_contains("Java only", "Oracle AND UNIX") == 0

    def test_null_inputs(self):
        from repro.types.values import NULL
        assert text_contains(NULL, "x") == 0
        assert text_contains("x", NULL) == 0

    def test_score_counts_frequencies(self):
        assert text_contains("ox ox ox", "ox") == 3


class TestDomainIndexLifecycle:
    def test_index_tables_created(self, employees_db):
        # one table: the settings are the catalog's PARAMETERS string
        assert employees_db.execute(
            "SELECT table_name FROM user_tables"
            " WHERE table_name LIKE 'resume_text_index%'").fetchall() \
            == [("resume_text_index_terms",)]

    def test_existing_rows_indexed_at_create(self, employees_db):
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE Contains(resume, 'Oracle')"
        ).fetchall()
        assert sorted(r[0] for r in rows) == ["Amy", "Cid"]

    def test_plan_uses_domain_index(self, employees_db):
        plan = employees_db.explain(
            "SELECT * FROM employees WHERE Contains(resume, 'Oracle')")
        assert any("DOMAIN INDEX SCAN" in line for line in plan)

    def test_boolean_queries(self, employees_db):
        q = "SELECT name FROM employees WHERE Contains(resume, :1)"
        assert sorted(r[0] for r in employees_db.execute(
            q, ["Oracle AND UNIX"]).fetchall()) == ["Amy", "Cid"]
        assert sorted(r[0] for r in employees_db.execute(
            q, ["Oracle OR java"]).fetchall()) == ["Amy", "Bob", "Cid"]
        assert sorted(r[0] for r in employees_db.execute(
            q, ["UNIX AND NOT Oracle"]).fetchall()) == ["Eve"]

    def test_stopwords_ignored(self, employees_db):
        # 'the' is a stop word from the PARAMETERS clause
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE Contains(resume, 'the')"
        ).fetchall()
        assert rows == []

    def test_insert_maintained(self, employees_db):
        employees_db.execute(
            "INSERT INTO employees VALUES ('Fay', 6, 'Oracle and UNIX pro')")
        rows = employees_db.execute(
            "SELECT name FROM employees"
            " WHERE Contains(resume, 'Oracle AND UNIX')").fetchall()
        assert "Fay" in [r[0] for r in rows]

    def test_update_maintained(self, employees_db):
        employees_db.execute(
            "UPDATE employees SET resume = 'Rust only' WHERE name = 'Amy'")
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE Contains(resume, 'Oracle')"
        ).fetchall()
        assert [r[0] for r in rows] == ["Cid"]
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE Contains(resume, 'Rust')"
        ).fetchall()
        assert [r[0] for r in rows] == ["Amy"]

    def test_delete_maintained(self, employees_db):
        employees_db.execute("DELETE FROM employees WHERE name = 'Amy'")
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE Contains(resume, 'Oracle')"
        ).fetchall()
        assert [r[0] for r in rows] == ["Cid"]

    def test_update_of_other_column_skips_index(self, employees_db):
        before = employees_db.execute(
            "SELECT COUNT(*) FROM resume_text_index_terms").fetchall()
        employees_db.execute("UPDATE employees SET id = 100 WHERE name = 'Amy'")
        after = employees_db.execute(
            "SELECT COUNT(*) FROM resume_text_index_terms").fetchall()
        assert before == after

    def test_truncate_table_truncates_index(self, employees_db):
        employees_db.execute("TRUNCATE TABLE employees")
        assert employees_db.execute(
            "SELECT COUNT(*) FROM resume_text_index_terms"
        ).fetchall() == [(0,)]

    def test_alter_index_adds_stopword(self, employees_db):
        employees_db.execute(
            "ALTER INDEX resume_text_index PARAMETERS (':Ignore COBOL')")
        employees_db.execute(
            "INSERT INTO employees VALUES ('Gus', 7, 'COBOL wizard')")
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE Contains(resume, 'wizard')"
        ).fetchall()
        assert [r[0] for r in rows] == ["Gus"]
        # COBOL was never indexed for Gus (Dee's pre-ALTER entry remains)
        gus_rid = employees_db.execute(
            "SELECT rowid FROM employees WHERE name = 'Gus'").fetchall()[0][0]
        rows = employees_db.execute(
            "SELECT token FROM resume_text_index_terms "
            "WHERE token = 'cobol' AND rid = :1", [gus_rid]).fetchall()
        assert rows == []

    def test_drop_index_drops_tables(self, employees_db):
        employees_db.execute("DROP INDEX resume_text_index")
        assert not employees_db.catalog.has_table("resume_text_index_terms")
        # queries fall back to the functional implementation
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE Contains(resume, 'Oracle')"
        ).fetchall()
        assert sorted(r[0] for r in rows) == ["Amy", "Cid"]

    def test_drop_table_drops_domain_index(self, employees_db):
        employees_db.execute("DROP TABLE employees")
        assert not employees_db.catalog.has_index("resume_text_index")
        assert not employees_db.catalog.has_table("resume_text_index_terms")


class TestBulkBuild:
    def test_logical_rowids_load_in_key_order(self, text_db):
        """An IOT base table hands its rows over in key order, and their
        logical rowids are ordered by that key, however the rows were
        inserted: every token's rowids reach the build in increasing
        order.  The build loads the postings in key order and answers
        what ``TextContains`` answers."""
        db = text_db
        db.execute("CREATE TABLE notes (id INTEGER, body VARCHAR2(200),"
                   " PRIMARY KEY (id)) ORGANIZATION INDEX")
        bodies = {i: f"common w{i % 3} x{i % 7} only{i}"
                  for i in range(60)}
        for i in sorted(bodies, reverse=True):
            db.execute("INSERT INTO notes VALUES (:1, :2)", [i, bodies[i]])
        scanned = [rid for (rid,) in db.execute(
            "SELECT rowid FROM notes").fetchall()]
        assert scanned == sorted(scanned)
        assert [rid.key for rid in scanned] == [(i,) for i in range(60)]
        db.execute("CREATE INDEX notes_tidx ON notes(body)"
                   " INDEXTYPE IS TextIndexType")
        postings = db.execute(
            "SELECT token, rid FROM notes_tidx_terms").fetchall()
        assert len(postings) == 4 * len(bodies)
        assert postings == sorted(postings)
        assert any("DOMAIN INDEX SCAN notes_tidx" in line for line in
                   db.explain("SELECT id FROM notes WHERE"
                              " Contains(body, :1)", ["common"]))
        for query in ("common", "w1", "x4 AND w2", "w0 OR x6", "only17",
                      "common AND NOT w2"):
            assert sorted(db.execute(
                "SELECT id FROM notes WHERE Contains(body, :1)", [query]
            ).fetchall()) == sorted(
                (i,) for i, body in bodies.items()
                if text_contains(body, query)), query


class TestAncillaryScore:
    def test_score_from_index_scan(self, employees_db):
        rows = employees_db.execute(
            "SELECT name, Score(1) FROM employees "
            "WHERE Contains(resume, 'Oracle', 1) ORDER BY Score(1) DESC"
        ).fetchall()
        assert rows[0] == ("Amy", 2)  # 'Oracle' appears twice in Amy's resume
        assert rows[1] == ("Cid", 1)

    def test_score_from_functional_path(self, text_db):
        text_db.execute("CREATE TABLE notes (body VARCHAR2(100))")
        text_db.execute("INSERT INTO notes VALUES ('ox ox ox')")
        rows = text_db.execute(
            "SELECT Score(9) FROM notes WHERE Contains(body, 'ox', 9)"
        ).fetchall()
        assert rows == [(3,)]

    def test_score_without_primary_errors(self, employees_db):
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError):
            employees_db.execute("SELECT Score(1) FROM employees").fetchall()


class TestTransactionalIndex:
    def test_rollback_restores_inverted_index(self, employees_db):
        employees_db.begin()
        employees_db.execute(
            "INSERT INTO employees VALUES ('Hal', 8, 'Oracle guru')")
        in_txn = employees_db.execute(
            "SELECT COUNT(*) FROM employees WHERE Contains(resume, 'guru')"
        ).fetchall()
        assert in_txn == [(1,)]
        employees_db.rollback()
        after = employees_db.execute(
            "SELECT COUNT(*) FROM employees WHERE Contains(resume, 'guru')"
        ).fetchall()
        assert after == [(0,)]

    def test_rollback_of_update(self, employees_db):
        employees_db.begin()
        employees_db.execute(
            "UPDATE employees SET resume = 'nothing' WHERE name = 'Amy'")
        employees_db.rollback()
        rows = employees_db.execute(
            "SELECT name FROM employees"
            " WHERE Contains(resume, 'Oracle AND UNIX')").fetchall()
        assert "Amy" in [r[0] for r in rows]


class TestLegacyBaseline:
    def test_two_step_matches_integrated(self, employees_db):
        legacy = LegacyTextIndex(employees_db, "employees", "resume")
        legacy.create()
        legacy_rows = legacy.query("Oracle AND UNIX", "d.name")
        integrated = employees_db.execute(
            "SELECT name FROM employees"
            " WHERE Contains(resume, 'Oracle AND UNIX')").fetchall()
        assert sorted(legacy_rows) == sorted(integrated)

    def test_temp_table_cleaned_up(self, employees_db):
        legacy = LegacyTextIndex(employees_db, "employees", "resume")
        legacy.create()
        legacy.query("Oracle")
        leftovers = [name for name in employees_db.catalog.tables
                     if "results" in name]
        assert leftovers == []

    def test_requires_explicit_sync(self, employees_db):
        legacy = LegacyTextIndex(employees_db, "employees", "resume")
        legacy.create()
        employees_db.execute(
            "INSERT INTO employees VALUES ('Ivy', 9, 'Oracle ninja')")
        # legacy index is stale until sync() — the pre-8i experience
        assert ("Ivy",) not in legacy.query("ninja", "d.name")
        legacy.sync()
        assert ("Ivy",) in legacy.query("ninja", "d.name")

    def test_empty_result(self, employees_db):
        legacy = LegacyTextIndex(employees_db, "employees", "resume")
        legacy.create()
        assert legacy.query("zzznope") == []
