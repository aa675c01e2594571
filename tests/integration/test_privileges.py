"""§2.5 privileges: grants, ownership, and definer-rights callbacks.

"Indextype routines always execute under the privileges of the owner of
the index.  However, for certain operations such as metadata
maintenance, indextype routines may require to store information in
tables owned by the indextype designer.  Oracle8i provides a mechanism
to execute certain pieces of code under the privileges of the definer,
instead of the current invoker."
"""

import pytest

from repro import PrivilegeError


@pytest.fixture
def multi_user_db(text_db):
    db = text_db
    db.set_user("alice")
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(500))")
    db.execute("INSERT INTO docs VALUES (1, 'Oracle and UNIX notes')")
    db.execute("CREATE INDEX docs_text ON docs(body)"
               " INDEXTYPE IS TextIndexType")
    db.set_user("main")
    return db


class TestGrantsBasics:
    def test_owner_has_all_privileges(self, multi_user_db):
        db = multi_user_db
        db.set_user("alice")
        db.execute("INSERT INTO docs VALUES (2, 'more text')")
        db.execute("UPDATE docs SET id = 20 WHERE id = 2")
        db.execute("DELETE FROM docs WHERE id = 20")
        assert db.execute("SELECT COUNT(*) FROM docs").fetchall() == [(1,)]

    def test_stranger_denied(self, multi_user_db):
        db = multi_user_db
        db.set_user("bob")
        with pytest.raises(PrivilegeError):
            db.execute("SELECT * FROM docs").fetchall()
        with pytest.raises(PrivilegeError):
            db.execute("INSERT INTO docs VALUES (3, 'x')")
        with pytest.raises(PrivilegeError):
            db.execute("UPDATE docs SET id = 9")
        with pytest.raises(PrivilegeError):
            db.execute("DELETE FROM docs")

    def test_grant_select(self, multi_user_db):
        db = multi_user_db
        db.set_user("alice")
        db.execute("GRANT SELECT ON docs TO bob")
        db.set_user("bob")
        assert db.execute("SELECT COUNT(*) FROM docs").fetchall() == [(1,)]
        with pytest.raises(PrivilegeError):
            db.execute("INSERT INTO docs VALUES (3, 'x')")

    def test_grant_all_and_revoke(self, multi_user_db):
        db = multi_user_db
        db.set_user("alice")
        db.execute("GRANT ALL ON docs TO bob")
        db.set_user("bob")
        db.execute("INSERT INTO docs VALUES (3, 'granted')")
        db.set_user("alice")
        db.execute("REVOKE INSERT, UPDATE, DELETE ON docs FROM bob")
        db.set_user("bob")
        assert db.execute("SELECT COUNT(*) FROM docs").fetchall() == [(2,)]
        with pytest.raises(PrivilegeError):
            db.execute("DELETE FROM docs")

    def test_only_owner_can_grant(self, multi_user_db):
        db = multi_user_db
        db.set_user("bob")
        with pytest.raises(PrivilegeError):
            db.execute("GRANT SELECT ON docs TO carol")

    def test_superuser_bypasses_everything(self, multi_user_db):
        db = multi_user_db
        db.set_user("main")
        db.execute("INSERT INTO docs VALUES (4, 'dba write')")
        db.execute("GRANT SELECT ON docs TO carol")

    def test_ddl_requires_ownership(self, multi_user_db):
        db = multi_user_db
        db.set_user("bob")
        with pytest.raises(PrivilegeError):
            db.execute("DROP TABLE docs")
        with pytest.raises(PrivilegeError):
            db.execute("TRUNCATE TABLE docs")
        with pytest.raises(PrivilegeError):
            db.execute("CREATE INDEX sneaky ON docs(id)")


class TestDefinerRights:
    """The paper's point: a grantee's DML must maintain the domain index
    even though the grantee holds no privileges on the index's own
    tables — the ODCI routines run as the index owner."""

    def test_grantee_dml_maintains_index_through_definer(self,
                                                         multi_user_db):
        db = multi_user_db
        db.set_user("alice")
        db.execute("GRANT INSERT, SELECT ON docs TO bob")
        db.set_user("bob")
        # bob has NO grant on docs_text_terms (owned by alice), yet his
        # insert flows into it through the definer-rights callback
        db.execute("INSERT INTO docs VALUES (5, 'Oracle wizardry')")
        rows = db.execute("SELECT id FROM docs"
                          " WHERE Contains(body, 'wizardry')").fetchall()
        assert [r[0] for r in rows] == [5]

    def test_grantee_cannot_touch_index_tables_directly(self,
                                                        multi_user_db):
        db = multi_user_db
        db.set_user("alice")
        db.execute("GRANT ALL ON docs TO bob")
        db.set_user("bob")
        with pytest.raises(PrivilegeError):
            db.execute("SELECT * FROM docs_text_terms").fetchall()
        with pytest.raises(PrivilegeError):
            db.execute("DELETE FROM docs_text_terms")

    def test_index_storage_owned_by_index_owner(self, multi_user_db):
        db = multi_user_db
        terms = db.catalog.get_table("docs_text_terms")
        assert terms.owner == "alice"

    def test_query_scan_runs_for_grantee(self, multi_user_db):
        db = multi_user_db
        db.set_user("alice")
        db.execute("GRANT SELECT ON docs TO bob")
        db.set_user("bob")
        rows = db.execute("SELECT id FROM docs"
                          " WHERE Contains(body, 'Oracle')").fetchall()
        assert rows == [(1,)]

    def test_env_reports_invoker_and_definer(self, multi_user_db):
        db = multi_user_db
        db.set_user("bob")
        index = db.catalog.get_index("docs_text")
        from repro.core.callbacks import CallbackPhase
        env = db.make_env(CallbackPhase.SCAN, index.domain)
        assert env.invoker == "bob"
        assert env.definer == "alice"

    def test_session_user_restored_after_callbacks(self, multi_user_db):
        db = multi_user_db
        db.set_user("alice")
        db.execute("GRANT INSERT ON docs TO bob")
        db.set_user("bob")
        db.execute("INSERT INTO docs VALUES (6, 'check restore')")
        assert db.session_user == "bob"


class TestGrantParsing:
    def test_grant_statement_shapes(self):
        from repro.sql import ast_nodes as ast
        from repro.sql.parser import parse
        stmt = parse("GRANT SELECT, INSERT ON t TO bob")
        assert isinstance(stmt, ast.GrantStatement)
        assert stmt.privileges == ["select", "insert"]
        assert not stmt.revoke
        stmt = parse("REVOKE ALL ON t FROM bob")
        assert stmt.revoke
        assert len(stmt.privileges) == 4

    def test_bad_privilege_rejected(self):
        from repro.errors import ParseError
        from repro.sql.parser import parse
        with pytest.raises(ParseError):
            parse("GRANT FLY ON t TO bob")

    def test_grant_forbidden_in_maintenance_callbacks(self, db):
        from repro.core.callbacks import CallbackPhase, CallbackSession
        from repro.errors import CallbackViolation
        db.execute("CREATE TABLE t (x NUMBER)")
        session = CallbackSession(db, CallbackPhase.MAINTENANCE,
                                  base_table="t")
        with pytest.raises(CallbackViolation):
            session.execute("GRANT SELECT ON t TO bob")
