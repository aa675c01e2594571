"""End-to-end flows: the paper's quickstart, a custom user indextype,
and a mixed multi-cartridge workload in one database."""

import pytest

from repro import Engine, IndexMethods, IndexTable, PrecomputedScan
from repro.errors import CatalogError


class TestPaperQuickstart:
    """Exactly the §1 walkthrough."""

    def test_walkthrough(self, text_db):
        db = text_db
        db.execute("CREATE TABLE Employees(name VARCHAR(128), id INTEGER,"
                   " resume VARCHAR2(1024))")
        db.execute("INSERT INTO Employees VALUES"
                   " ('Jane', 1, 'Oracle and UNIX since 1995')")
        db.execute("CREATE INDEX ResumeTextIndex ON Employees(resume)"
                   " INDEXTYPE IS TextIndexType")
        rows = db.execute("SELECT * FROM Employees "
                          "WHERE Contains(resume, 'Oracle AND UNIX')"
                          ).fetchall()
        assert len(rows) == 1
        db.execute("INSERT INTO Employees VALUES"
                   " ('Joe', 2, 'UNIX but not that database')")
        rows = db.execute("SELECT name FROM Employees "
                          "WHERE Contains(resume, 'Oracle AND UNIX')"
                          ).fetchall()
        assert [r[0] for r in rows] == ["Jane"]


class TestUserDefinedIndextype:
    """A downstream user builds a brand-new indextype with the public API:
    an exact-match index over absolute values (silly but complete)."""

    @pytest.fixture
    def absdb(self):
        db = Engine().connect()

        def abs_equals(value, probe):
            from repro.types.values import is_null
            if is_null(value) or is_null(probe):
                return 0
            return 1 if abs(value) == abs(probe) else 0

        class AbsIndexMethods(IndexMethods):
            index_tables = (IndexTable("abs", "absval NUMBER, rid ROWID"),)

            def _table(self, ia):
                return self.index_tables[0].name(ia)

            def index_insert(self, ia, rowid, new_values, env):
                from repro.types.values import is_null
                if not is_null(new_values[0]):
                    env.callback.insert_row(
                        self._table(ia), [abs(new_values[0]), rowid])

            def index_delete(self, ia, rowid, old_values, env):
                env.callback.execute(
                    f"DELETE FROM {self._table(ia)} WHERE rid = :1", [rowid])

            def index_start(self, ia, op_info, query_info, env):
                probe = abs(op_info.operator_args[0])
                rows = env.callback.query(
                    f"SELECT rid FROM {self._table(ia)} WHERE absval = :1",
                    [probe])
                return PrecomputedScan(sorted(r[0] for r in rows))

        db.create_function("AbsEqualsFunc", abs_equals, cost=0.2)
        db.register_methods("AbsIndexMethods", AbsIndexMethods)
        db.execute("CREATE OPERATOR Abs_Equals "
                   "BINDING (NUMBER, NUMBER) RETURN NUMBER "
                   "USING AbsEqualsFunc")
        db.execute("CREATE INDEXTYPE AbsIndexType "
                   "FOR Abs_Equals(NUMBER, NUMBER) USING AbsIndexMethods")
        return db

    def test_custom_indextype_end_to_end(self, absdb):
        absdb.execute("CREATE TABLE vals (x NUMBER)")
        for value in (-5, 3, 5, -3, 7):
            absdb.execute("INSERT INTO vals VALUES (:1)", [value])
        absdb.execute("CREATE INDEX vals_abs ON vals(x)"
                      " INDEXTYPE IS AbsIndexType")
        plan = absdb.explain("SELECT x FROM vals WHERE Abs_Equals(x, -5)")
        assert any("DOMAIN INDEX SCAN vals_abs" in line for line in plan)
        rows = absdb.execute(
            "SELECT x FROM vals WHERE Abs_Equals(x, -5)").fetchall()
        assert sorted(r[0] for r in rows) == [-5, 5]

    def test_custom_index_maintained(self, absdb):
        absdb.execute("CREATE TABLE vals (x NUMBER)")
        absdb.execute("CREATE INDEX vals_abs ON vals(x)"
                      " INDEXTYPE IS AbsIndexType")
        absdb.execute("INSERT INTO vals VALUES (-9)")
        rows = absdb.execute(
            "SELECT x FROM vals WHERE Abs_Equals(x, 9)").fetchall()
        assert [r[0] for r in rows] == [-9]
        absdb.execute("UPDATE vals SET x = 4 WHERE x = -9")
        assert absdb.execute(
            "SELECT x FROM vals WHERE Abs_Equals(x, 9)").fetchall() == []
        assert absdb.execute(
            "SELECT x FROM vals WHERE Abs_Equals(x, -4)").fetchall() == [(4,)]

    def test_indextype_ddl_validation(self, absdb):
        with pytest.raises(CatalogError):
            absdb.execute("CREATE INDEXTYPE Bad FOR NoSuchOp(NUMBER)"
                          " USING AbsIndexMethods")
        with pytest.raises(CatalogError):
            absdb.execute("CREATE INDEXTYPE Bad "
                          "FOR Abs_Equals(NUMBER, NUMBER) USING NotRegistered")


class TestMixedWorkload:
    def test_all_cartridges_in_one_database(self):
        from repro.cartridges import chemistry, spatial, text, vir
        db = Engine().connect()
        text.install(db)
        spatial.install(db)
        vir.install(db)
        chemistry.install(db)

        # one table using three domains at once
        db.execute("CREATE TABLE assets (aid INTEGER, note VARCHAR2(200),"
                   " shape SDO_GEOMETRY, mol VARCHAR2(100))")
        gt = db.catalog.get_object_type("SDO_GEOMETRY")
        from repro.cartridges.spatial import make_rect
        db.execute("INSERT INTO assets VALUES (1, 'Oracle depot', :1, 'CCO')",
                   [make_rect(gt, 10, 10, 20, 20)])
        db.execute("INSERT INTO assets VALUES (2, 'warehouse', :1, 'CCN')",
                   [make_rect(gt, 500, 500, 520, 520)])
        db.execute("CREATE INDEX assets_text ON assets(note)"
                   " INDEXTYPE IS TextIndexType")
        db.execute("CREATE INDEX assets_shape ON assets(shape)"
                   " INDEXTYPE IS SpatialIndexType")
        db.execute("CREATE INDEX assets_mol ON assets(mol)"
                   " INDEXTYPE IS ChemIndexType")

        rows = db.execute("SELECT aid FROM assets "
                          "WHERE Contains(note, 'Oracle')").fetchall()
        assert [r[0] for r in rows] == [1]
        window = make_rect(gt, 0, 0, 100, 100)
        rows = db.execute("SELECT aid FROM assets WHERE "
                          "Sdo_Relate(shape, :1, 'mask=INSIDE')", [window]
                          ).fetchall()
        assert [r[0] for r in rows] == [1]
        rows = db.execute(
            "SELECT aid FROM assets WHERE Chem_Match(mol, 'OCC')").fetchall()
        assert [r[0] for r in rows] == [1]

        # one DML maintains all three domain indexes, transactionally
        db.begin()
        db.execute("DELETE FROM assets WHERE aid = 1")
        assert db.execute("SELECT aid FROM assets "
                          "WHERE Contains(note, 'Oracle')").fetchall() == []
        db.rollback()
        assert db.execute("SELECT aid FROM assets "
                          "WHERE Contains(note, 'Oracle')"
                          ).fetchall() == [(1,)]

    def test_two_domain_indexes_same_table_same_column_type(self, text_db):
        text_db.execute("CREATE TABLE pair (a VARCHAR2(100),"
                        " b VARCHAR2(100))")
        text_db.execute("INSERT INTO pair VALUES ('alpha beta', 'gamma')")
        text_db.execute("CREATE INDEX pair_a ON pair(a)"
                        " INDEXTYPE IS TextIndexType")
        text_db.execute("CREATE INDEX pair_b ON pair(b)"
                        " INDEXTYPE IS TextIndexType")
        assert text_db.execute("SELECT a FROM pair "
                               "WHERE Contains(a, 'alpha')").fetchall() != []
        assert text_db.execute("SELECT a FROM pair "
                               "WHERE Contains(b, 'gamma')").fetchall() != []
        # each index only serves its own column
        assert text_db.execute("SELECT a FROM pair "
                               "WHERE Contains(b, 'alpha')").fetchall() == []


class TestDDLGuards:
    def test_drop_indextype_with_dependent_index(self, employees_db):
        with pytest.raises(CatalogError):
            employees_db.execute("DROP INDEXTYPE TextIndexType")

    def test_drop_indextype_force_cascades(self, employees_db):
        employees_db.execute("DROP INDEXTYPE TextIndexType FORCE")
        assert not employees_db.catalog.has_indextype("TextIndexType")
        assert not employees_db.catalog.has_index("resume_text_index")

    def test_drop_operator_guarded(self, employees_db):
        with pytest.raises(CatalogError):
            employees_db.execute("DROP OPERATOR Contains")
