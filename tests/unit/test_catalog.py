"""Catalog (data dictionary) bookkeeping."""

import pytest

from repro.core.indextype import Indextype
from repro.core.odci import IndexMethods
from repro.core.operators import Operator
from repro.core.stats import StatsMethods
from repro.errors import CatalogError, ConstraintError
from repro.index import BTree
from repro.sql.catalog import (
    Catalog, ColumnInfo, IndexDef, SQLFunction, TableDef, native_structure)
from repro.storage.buffer import BufferCache, IOStats
from repro.storage.heap import HeapTable
from repro.types.datatypes import INTEGER, VARCHAR2


@pytest.fixture
def catalog():
    return Catalog()


def make_table(name="t"):
    storage = HeapTable(BufferCache(IOStats()), name=name)
    return TableDef(name=name, storage=storage, columns=[
        ColumnInfo("id", INTEGER), ColumnInfo("name", VARCHAR2)])


class TestTables:
    def test_add_get_case_insensitive(self, catalog):
        catalog.add_table(make_table("Emp"))
        assert catalog.get_table("EMP").name == "Emp"
        assert catalog.has_table("emp")

    def test_duplicate_rejected(self, catalog):
        catalog.add_table(make_table())
        with pytest.raises(CatalogError):
            catalog.add_table(make_table())

    def test_missing_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get_table("nope")

    def test_drop(self, catalog):
        catalog.add_table(make_table())
        catalog.drop_table("t")
        assert not catalog.has_table("t")

    def test_column_position_and_info(self, catalog):
        table = make_table()
        assert table.column_position("NAME") == 1
        assert table.column_info("id").datatype is INTEGER
        with pytest.raises(CatalogError):
            table.column_position("zzz")

    def test_column_names(self):
        assert make_table().column_names() == ["id", "name"]


class TestIndexes:
    def test_add_links_to_table(self, catalog):
        table = make_table()
        catalog.add_table(table)
        catalog.add_index(IndexDef(name="i", table_name="t",
                                   column_names=("id",), kind="btree",
                                   structure=BTree()))
        assert table.index_names == ["i"]
        assert [i.name for i in catalog.indexes_on("T")] == ["i"]

    def test_drop_unlinks(self, catalog):
        table = make_table()
        catalog.add_table(table)
        catalog.add_index(IndexDef(name="i", table_name="t",
                                   column_names=("id",), kind="btree",
                                   structure=BTree()))
        catalog.drop_index("I")
        assert table.index_names == []
        assert catalog.indexes_on("t") == []

    def test_duplicate_rejected(self, catalog):
        catalog.add_table(make_table())
        idx = IndexDef(name="i", table_name="t", column_names=("id",),
                       kind="btree", structure=BTree())
        catalog.add_index(idx)
        with pytest.raises(CatalogError):
            catalog.add_index(IndexDef(name="I", table_name="t",
                                       column_names=("id",), kind="btree",
                                       structure=BTree()))


class TestIndexRegistry:
    """``indexes_on`` answers from the table's own ``index_names``; what
    it answers is what a scan of every index in the catalog finds, in
    the catalog's order, through DDL and a restart."""

    @staticmethod
    def _scan(catalog, table_name):
        key = table_name.lower()
        return [index for index in catalog.indexes.values()
                if index.table_name.lower() == key]

    def _check(self, db, names):
        catalog = db.engine.catalog
        for name in [*names, *catalog.tables]:
            expected = self._scan(catalog, name)
            got = catalog.indexes_on(name)
            assert [i.name for i in got] == [i.name for i in expected], name
            assert all(a is b for a, b in zip(got, expected))

    def test_indexes_on_matches_a_scan_through_ddl_and_restart(
            self, tmp_path):
        from repro import Engine
        from repro.cartridges.text import install
        names = ["a", "b", "docs", "user_tables", "nothing"]
        db = Engine(data_dir=tmp_path).connect()
        install(db)
        db.execute("CREATE TABLE a (x INTEGER, y INTEGER)")
        db.execute("CREATE TABLE b (x INTEGER, y INTEGER)")
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
        db.execute("INSERT INTO docs VALUES (1, 'oracle text index')")
        for sql in ("CREATE INDEX a_x ON a (x)", "CREATE INDEX b_x ON b (x)",
                    "CREATE INDEX a_y ON a (y)",
                    "CREATE INDEX docs_body ON docs (body)"
                    " INDEXTYPE IS TextIndexType",
                    "CREATE UNIQUE INDEX b_y ON b (y)"):
            db.execute(sql)
        self._check(db, names)
        assert [i.name for i in db.catalog.indexes_on("A")] == ["a_x", "a_y"]
        # a view is no table: it takes no index
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX v ON user_tables (table_name)")
        assert not db.catalog.has_index("v")
        db.execute("DROP INDEX a_x")
        db.execute("CREATE INDEX a_xy ON a (x, y)")
        self._check(db, names)
        db.execute("DROP TABLE b")
        self._check(db, names)
        assert db.catalog.indexes_on("b") == []
        db.close()
        db.engine.close()
        db = Engine(data_dir=tmp_path).connect()
        self._check(db, names)
        assert [i.name for i in db.catalog.indexes_on("a")] \
            == ["a_y", "a_xy"]
        assert [i.name for i in db.catalog.indexes_on("docs")] \
            == ["docs_body"]
        db.execute("CREATE INDEX a_x ON a (x)")
        self._check(db, names)
        db.close()
        db.engine.close()


class TestNativeStructure:
    """``native_structure`` is the one builder of a native index's
    structure, for DDL and for recovery alike."""

    @pytest.mark.parametrize("unique", [False, True])
    def test_an_empty_btree_with_the_unique_flag(self, unique):
        tree = native_structure("i", "btree", unique, IOStats())
        assert isinstance(tree, BTree)
        assert tree.unique is unique and len(tree) == 0
        tree.insert(1, "a")
        if unique:
            with pytest.raises(ConstraintError):
                tree.insert(1, "b")
        else:
            tree.insert(1, "b")
            assert tree.search(1) == ["a", "b"]

    def test_node_visits_count_as_logical_reads(self):
        stats = IOStats()
        tree = native_structure("i", "btree", False, stats)
        tree.bulk_load((key, key) for key in range(5000))
        assert tree.height > 1
        before = stats.logical_reads
        assert tree.search(4321) == [4321]
        assert stats.logical_reads - before == tree.height

    @pytest.mark.parametrize("kind", ["hash", "bitmap", "domain", "rtree"])
    def test_other_kinds_are_refused_by_name(self, kind):
        with pytest.raises(CatalogError,
                           match=rf"index emp_ix .*'{kind}'"):
            native_structure("emp_ix", kind, False, IOStats())


class TestBuildNative:
    """``IndexDef.build_native`` bulk-loads an index from its table."""

    @staticmethod
    def _index(columns=("id",), unique=False):
        return IndexDef(name="i", table_name="t", column_names=columns,
                        kind="btree", unique=unique,
                        structure=native_structure("i", "btree", unique,
                                                   IOStats()))

    def test_loads_every_row_with_a_non_null_key(self):
        table = make_table()
        rids = table.storage.insert_bulk(
            [[1, "a"], [None, "b"], [2, "c"], [1, "d"]])
        index = self._index()
        index.build_native(table)
        assert index.structure.search(1) == [rids[0], rids[3]]
        assert index.structure.search(2) == [rids[2]]
        # NULL keys are not indexed
        assert len(index.structure) == 3

    def test_a_composite_key_is_a_tuple_and_any_null_skips_the_row(self):
        table = make_table()
        rids = table.storage.insert_bulk(
            [[1, "a"], [1, None], [None, "a"], [2, "b"]])
        index = self._index(columns=("id", "name"))
        index.build_native(table)
        assert [key for key, __ in index.structure.items()] \
            == [(1, "a"), (2, "b")]
        assert index.structure.search((1, "a")) == [rids[0]]

    def test_a_rebuild_replaces_what_the_structure_held(self):
        table = make_table()
        rid = table.storage.insert_bulk([[7, "x"]])[0]
        index = self._index()
        index.structure.insert(99, "stale")
        index.build_native(table)
        assert list(index.structure.items()) == [(7, rid)]

    def test_a_unique_build_over_duplicates_keeps_the_old_contents(self):
        table = make_table()
        table.storage.insert_bulk([[1, "a"], [2, "b"]])
        index = self._index(unique=True)
        index.build_native(table)
        held = list(index.structure.items())
        table.storage.insert_bulk([[2, "again"]])
        with pytest.raises(ConstraintError, match="duplicate key 2"):
            index.build_native(table)
        assert list(index.structure.items()) == held


class TestOperatorsAndIndextypes:
    def test_operator_lifecycle(self, catalog):
        catalog.add_operator(Operator(name="MyOp"))
        assert catalog.has_operator("myop")
        catalog.drop_operator("MYOP")
        assert not catalog.has_operator("myop")

    def test_indextype_lifecycle(self, catalog):
        catalog.add_indextype(Indextype(name="It"))
        assert catalog.get_indextype("IT").name == "It"
        catalog.drop_indextype("it")
        assert not catalog.has_indextype("it")

    def test_indextypes_supporting(self, catalog):
        from repro.core.indextype import SupportedOperator
        catalog.add_indextype(Indextype(name="A", operators=[
            SupportedOperator("Foo", ())]))
        catalog.add_indextype(Indextype(name="B", operators=[
            SupportedOperator("Bar", ())]))
        assert [it.name for it in catalog.indextypes_supporting("foo")] \
            == ["A"]


class TestRegistries:
    def test_method_type_must_subclass(self, catalog):
        class NotMethods:
            pass

        with pytest.raises(CatalogError):
            catalog.register_method_type("X", NotMethods)

    def test_method_type_roundtrip(self, catalog):
        class Impl(IndexMethods):
            def index_insert(self, ia, rowid, new_values, env):
                pass

            def index_delete(self, ia, rowid, old_values, env):
                pass

            def index_start(self, ia, op_info, query_info, env):
                pass

        catalog.register_method_type("Impl", Impl)
        assert catalog.get_method_type("IMPL") is Impl

    def test_unregistered_method_type(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get_method_type("nope")

    def test_stats_type_roundtrip(self, catalog):
        class Stats(StatsMethods):
            pass

        catalog.register_stats_type("S", Stats)
        assert catalog.get_stats_type("s") is Stats
        with pytest.raises(CatalogError):
            catalog.register_stats_type("bad", object)

    def test_functions(self, catalog):
        catalog.add_function(SQLFunction(name="f", fn=lambda: 1))
        assert catalog.get_function("F").fn() == 1
        assert catalog.has_function("f")
        with pytest.raises(CatalogError):
            catalog.get_function("g")
