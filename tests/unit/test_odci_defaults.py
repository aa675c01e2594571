"""Default behaviours of the ODCI base classes and error formatting."""

import importlib
import inspect

import pytest

from repro.core.odci import (
    FetchResult, IndexMethods, IndexTable, ODCIEnv, ODCIIndexInfo)
from repro.core.scan_context import PrecomputedScan, ScanContext, Workspace
from repro.core.stats import IndexCost, StatsMethods
from repro.errors import CatalogError, ODCIError, ParseError
from repro.storage.buffer import IOStats


class MinimalMethods(IndexMethods):
    """Writes the scan and the scalar maintenance routines; inherits the
    rest."""

    def __init__(self):
        self.log = []

    def index_insert(self, ia, rowid, new_values, env):
        self.log.append(("insert", rowid, tuple(new_values)))

    def index_delete(self, ia, rowid, old_values, env):
        self.log.append(("delete", rowid, tuple(old_values)))

    def index_start(self, ia, op_info, query_info, env):
        return PrecomputedScan([])


class NoMaintenanceMethods(IndexMethods):
    """Writes the scan routine, no maintenance form."""

    def index_start(self, ia, op_info, query_info, env):
        return PrecomputedScan([])


class ArrayOnlyMethods(NoMaintenanceMethods):
    """Writes only the array insert and delete routines."""

    def __init__(self):
        self.log = []

    def index_insert_batch(self, ia, entries, env):
        self.log.append(("insert_batch", list(entries)))

    def index_delete_batch(self, ia, entries, env):
        self.log.append(("delete_batch", list(entries)))


class ScalarUpdateMethods(MinimalMethods):
    """Writes its own scalar update besides the scalar insert and
    delete."""

    def index_update(self, ia, rowid, old_values, new_values, env):
        self.log.append(("update", rowid, tuple(old_values),
                         tuple(new_values)))


#: module -> IndexMethods subclasses it ships
_CARTRIDGES = {
    "repro.cartridges.text.indextype": ["TextIndexMethods"],
    "repro.cartridges.spatial.indextype": ["SpatialIndexMethods",
                                           "RtreeIndexMethods"],
    "repro.cartridges.vir.indextype": ["VirIndexMethods"],
    "repro.cartridges.chemistry.indextype": ["ChemIndexMethods"],
    "repro.cartridges.collection": ["CollectionIndexMethods"],
}


def _written(cls, name):
    """Whether ``cls`` or a class between it and IndexMethods defines
    ``name``."""
    return any(name in vars(klass) for klass in cls.__mro__
               if klass is not IndexMethods
               and issubclass(klass, IndexMethods))


@pytest.fixture
def ia():
    return ODCIIndexInfo(index_name="i", index_schema="main",
                         table_name="t", column_names=("c",),
                         column_types=(None,), parameters=":p")


@pytest.fixture
def env():
    return ODCIEnv(callback=None, workspace=None, stats=None)


class TestDefaults:
    def test_default_update_is_delete_plus_insert(self, ia, env):
        methods = MinimalMethods()
        methods.index_update(ia, "RID", ["old"], ["new"], env)
        assert methods.log == [("delete", "RID", ("old",)),
                               ("insert", "RID", ("new",))]

    def test_default_alter_raises(self, ia, env):
        with pytest.raises(ODCIError):
            MinimalMethods().index_alter(ia, ":x", env)

    def test_stats_defaults_mean_use_engine_defaults(self, ia, env):
        stats = StatsMethods()
        assert stats.selectivity(None, (), env) is None
        assert stats.index_cost(ia, None, 0.5, (), env) is None
        assert stats.function_cost("op", (), env) is None
        assert stats.stats_collect(ia, env) is None
        stats.stats_delete(ia, env)  # no-op, no error

    def test_index_cost_total(self):
        assert IndexCost(io_cost=2.0, cpu_cost=0.5).total == 2.5

    def test_env_trace_noop_without_log(self, env):
        env.trace("nothing happens")  # must not raise

    def test_env_trace_records_with_log(self):
        log = []
        env = ODCIEnv(callback=None, workspace=None, stats=None, trace=log)
        env.trace("event")
        assert log == ["event"]

    def test_fetch_result_defaults(self):
        result = FetchResult()
        assert result.rowids == []
        assert result.aux is None
        assert not result.done


class TestOneMaintenanceForm:
    def test_scalar_defaults_hand_their_row_to_the_array_routines(
            self, ia, env):
        methods = ArrayOnlyMethods()
        methods.index_insert(ia, "R1", ["a"], env)
        methods.index_update(ia, "R2", ["old"], ["new"], env)
        assert methods.log == [("insert_batch", [("R1", ["a"])]),
                               ("delete_batch", [("R2", ["old"])]),
                               ("insert_batch", [("R2", ["new"])])]

    def test_array_defaults_loop_the_scalar_routines(self, ia, env):
        methods = MinimalMethods()
        methods.index_insert_batch(ia, [("R1", ["a"]), ("R2", ["b"])], env)
        methods.index_update_batch(ia, [("R3", ["old"], ["new"])], env)
        methods.index_delete_batch(ia, [("R1", ["a"])], env)
        assert methods.log == [("insert", "R1", ("a",)),
                               ("insert", "R2", ("b",)),
                               ("delete", "R3", ("old",)),
                               ("insert", "R3", ("new",)),
                               ("delete", "R1", ("a",))]

    def test_default_update_is_one_array_delete_then_one_array_insert(
            self, ia, env):
        methods = ArrayOnlyMethods()
        methods.index_update_batch(ia, [("R1", ["a"], ["b"]),
                                        ("R2", ["c"], ["d"]),
                                        ("R3", ["e"], ["f"])], env)
        assert methods.log == [
            ("delete_batch", [("R1", ["a"]), ("R2", ["c"]), ("R3", ["e"])]),
            ("insert_batch", [("R1", ["b"]), ("R2", ["d"]), ("R3", ["f"])])]

    def test_a_written_scalar_update_is_run(self, ia, env, db):
        methods = ScalarUpdateMethods()
        methods.index_update_batch(ia, [("R1", ["a"], ["b"]),
                                        ("R2", ["c"], ["d"])], env)
        assert methods.log == [("update", "R1", ("a",), ("b",)),
                               ("update", "R2", ("c",), ("d",))]
        # and through SQL: DML calls the array routine, which runs it
        # once per row
        db.create_function("UpdFunc", lambda v, probe: 0)
        db.register_methods("ScalarUpdateMethods", ScalarUpdateMethods)
        db.execute("CREATE OPERATOR Upd BINDING (VARCHAR2, VARCHAR2)"
                   " RETURN NUMBER USING UpdFunc")
        db.execute("CREATE INDEXTYPE UpdType FOR Upd(VARCHAR2, VARCHAR2)"
                   " USING ScalarUpdateMethods")
        db.execute("CREATE TABLE t (id INTEGER, v VARCHAR2(10))")
        db.execute("CREATE INDEX t_upd ON t(v) INDEXTYPE IS UpdType")
        db.executemany("INSERT INTO t VALUES (:1, :2)",
                       [[1, "x"], [2, "y"], [3, "z"]])
        db.execute("UPDATE t SET v = v || '!' WHERE id < 3")
        log = db.catalog.get_index("t_upd").domain.methods.log
        assert [entry[0] for entry in log] == ["insert"] * 3 + ["update"] * 2
        assert sorted(entry[2:] for entry in log[3:]) == [
            (("x",), ("x!",)), (("y",), ("y!",))]

    def test_shipped_cartridges_write_one_form_per_routine(self):
        shipped = []
        for module, names in _CARTRIDGES.items():
            loaded = importlib.import_module(module)
            shipped += [getattr(loaded, name) for name in names]
            # every IndexMethods subclass a cartridge module defines is
            # in the table above
            assert sorted(
                name for name, value in vars(loaded).items()
                if isinstance(value, type)
                and issubclass(value, IndexMethods)
                and value.__module__ == module) == sorted(names)
        assert len(shipped) == 6
        for cls in shipped:
            for routine in ("index_insert", "index_delete"):
                forms = [name for name in (routine, f"{routine}_batch")
                         if _written(cls, name)]
                assert len(forms) == 1, (cls.__name__, forms)
            # update is the framework's delete + insert
            assert not _written(cls, "index_update"), cls.__name__
            assert not _written(cls, "index_update_batch"), cls.__name__
            # every scan's state is a ScanContext: IndexMethods serves
            # its Fetch and Close
            assert not _written(cls, "index_fetch"), cls.__name__
            assert not _written(cls, "index_close"), cls.__name__

    def test_shipped_cartridges_delete_by_key(self):
        """Every cartridge's delete derives its index keys from
        ``old_values``; none looks its row up by a scan on ``rid``."""
        for module in _CARTRIDGES:
            source = inspect.getsource(importlib.import_module(module))
            assert "WHERE rid = :1" not in source, module

    def test_register_rejects_a_class_with_neither_form(self, db):
        with pytest.raises(CatalogError, match="index_insert"):
            db.register_methods("NoMaintenance", NoMaintenanceMethods)

        class InsertOnly(NoMaintenanceMethods):
            def index_insert(self, ia, rowid, new_values, env):
                pass

        with pytest.raises(CatalogError, match="index_delete"):
            db.register_methods("InsertOnly", InsertOnly)

    @pytest.mark.parametrize("cls", [MinimalMethods, ArrayOnlyMethods])
    def test_register_accepts_either_form(self, db, cls):
        db.register_methods(cls.__name__, cls)
        assert db.catalog.get_method_type(cls.__name__) is cls


_VALS = IndexTable("vals", "rid ROWID, code VARCHAR2(10)",
                   indexes=("code",))
_KEYS = IndexTable("keys", "code VARCHAR2(10), rid ROWID,"
                   " PRIMARY KEY (code, rid)", organization_index=True)


class DeclaredMethods(IndexMethods):
    """Declares a heap table with a secondary index and an IOT, and
    writes only maintenance and scan: the defaults do the definition."""

    index_tables = (_VALS, _KEYS)

    def index_insert_batch(self, ia, entries, env):
        env.callback.insert_rows(
            _VALS.name(ia), [[rid, values[0]] for rid, values in entries])
        env.callback.insert_rows(
            _KEYS.name(ia), [[values[0], rid] for rid, values in entries])

    def index_delete(self, ia, rowid, old_values, env):
        env.callback.delete_rows(_KEYS.name(ia), [(old_values[0], rowid)])
        env.callback.execute(f"DELETE FROM {_VALS.name(ia)} WHERE"
                             " code = :1 AND rid = :2",
                             [old_values[0], rowid])

    def index_start(self, ia, op_info, query_info, env):
        return PrecomputedScan([])


class TestOneDefinitionForm:
    """The declared tables are the whole of a cartridge's definition
    code: IndexMethods creates, fills, truncates and drops them."""

    @pytest.fixture
    def declared_db(self, db):
        db.create_function("CodeFunc", lambda v, probe: 0, cost=1.0)
        db.register_methods("DeclaredMethods", DeclaredMethods)
        db.execute("CREATE OPERATOR Code_Of BINDING (VARCHAR2, VARCHAR2)"
                   " RETURN NUMBER USING CodeFunc")
        db.execute("CREATE INDEXTYPE DeclaredType FOR"
                   " Code_Of(VARCHAR2, VARCHAR2) USING DeclaredMethods")
        db.execute("CREATE TABLE t (v VARCHAR2(10))")
        db.executemany("INSERT INTO t VALUES (:1)",
                       [[f"v{i % 3}"] for i in range(5)])
        db.execute("CREATE INDEX t_idx ON t(v) INDEXTYPE IS DeclaredType")
        return db

    @staticmethod
    def _objects(db):
        """The index's tables (name, IOT?) and their native indexes."""
        tables = db.execute("SELECT table_name, iot FROM user_tables"
                            " WHERE table_name LIKE 't_idx%'"
                            " ORDER BY 1").fetchall()
        indexes = db.execute("SELECT index_name, table_name"
                             " FROM user_indexes WHERE table_name"
                             " LIKE 't_idx%' ORDER BY 1").fetchall()
        return tables, indexes

    @staticmethod
    def _sizes(db):
        """Rows of each table, and entries of the secondary index."""
        return (db.execute("SELECT COUNT(*) FROM t_idx_vals").fetchall(),
                db.execute("SELECT COUNT(*) FROM t_idx_keys").fetchall(),
                len(db.catalog.get_index("t_idx_vals_code").structure))

    def test_create_truncate_drop_act_on_exactly_the_declared_tables(
            self, declared_db):
        declared = ([("t_idx_keys", True), ("t_idx_vals", False)],
                    [("t_idx_vals_code", "t_idx_vals")])
        assert self._objects(declared_db) == declared
        # the default load step put every base-table row in each
        assert self._sizes(declared_db) == ([(5,)], [(5,)], 5)
        declared_db.execute("TRUNCATE TABLE t")
        assert self._objects(declared_db) == declared
        assert self._sizes(declared_db) == ([(0,)], [(0,)], 0)
        declared_db.execute("INSERT INTO t VALUES ('v9')")
        assert self._sizes(declared_db) == ([(1,)], [(1,)], 1)
        declared_db.execute("DROP INDEX t_idx")
        assert self._objects(declared_db) == ([], [])

    def test_rebuild_reloads_the_declared_tables(self, declared_db):
        declared_db.execute("ALTER INDEX t_idx REBUILD")
        assert self._sizes(declared_db) == ([(5,)], [(5,)], 5)

    def test_index_start_is_the_only_abstract_routine(self):
        assert IndexMethods.__abstractmethods__ == {"index_start"}

    def test_default_parameters_keep_the_strings_as_given(self):
        methods = MinimalMethods()
        assert methods.parse_parameters(":a 1", "") == ":a 1"
        assert methods.parse_parameters(":b", ":a 1") == ":a 1 :b"

    def test_shipped_indextypes_write_no_table_ddl(self):
        for module in _CARTRIDGES:
            source = inspect.getsource(importlib.import_module(module))
            for ddl in ("CREATE TABLE", "DROP TABLE", "TRUNCATE TABLE"):
                assert ddl not in source, (module, ddl)


class _Numbers(ScanContext):
    """Incremental scan over ``count`` rows that records its close."""

    def __init__(self, count, want_aux=False):
        super().__init__()
        self.count = count
        self.want_aux = want_aux
        self.closed = False

    def row_source(self):
        for i in range(self.count):
            yield (f"R{i}", i / 10) if self.want_aux else f"R{i}"

    def close(self):
        self.closed = True
        super().close()


class ListStateMethods(MinimalMethods):
    """Scan state that is not a ScanContext (a plain list of every
    rowid): the cartridge writes its own Fetch and Close."""

    closed = []

    def index_start(self, ia, op_info, query_info, env):
        return [rid for rid, in env.callback.query(
            f"SELECT rowid FROM {ia.table_name}")]

    def index_fetch(self, context, nrows, env):
        batch, context[:nrows] = context[:nrows], []
        return FetchResult(rowids=batch, done=not context)

    def index_close(self, context, env):
        ListStateMethods.closed.append(len(context))


class TestOneScanProtocol:
    """IndexMethods' default Fetch and Close serve any ScanContext,
    carried as return state or under a workspace handle (§2.2.3)."""

    @pytest.fixture
    def scan_env(self):
        return ODCIEnv(callback=None, workspace=Workspace(IOStats()),
                       stats=None)

    def test_fetch_serves_return_state(self, scan_env):
        methods = MinimalMethods()
        scan = _Numbers(3)
        first = methods.index_fetch(scan, 2, scan_env)
        assert (first.rowids, first.aux, first.done) == (
            ["R0", "R1"], None, False)
        last = methods.index_fetch(scan, 2, scan_env)
        assert (last.rowids, last.aux, last.done) == (["R2"], None, True)

    def test_fetch_serves_return_handle(self, scan_env):
        methods = MinimalMethods()
        handle = scan_env.workspace.allocate(PrecomputedScan(["R0", "R1"]))
        first = methods.index_fetch(handle, 2, scan_env)
        assert (first.rowids, first.done) == (["R0", "R1"], False)
        last = methods.index_fetch(handle, 2, scan_env)
        assert (last.rowids, last.done) == ([], True)

    @pytest.mark.parametrize("scan", [
        _Numbers(3, want_aux=True),
        PrecomputedScan([("R0", 0.0), ("R1", 0.1), ("R2", 0.2)],
                        want_aux=True)], ids=["incremental", "precomputed"])
    def test_want_aux_splits_pairs_and_a_short_batch_is_done(
            self, scan_env, scan):
        methods = MinimalMethods()
        first = methods.index_fetch(scan, 2, scan_env)
        assert (first.rowids, first.aux, first.done) == (
            ["R0", "R1"], [0.0, 0.1], False)
        last = methods.index_fetch(scan, 2, scan_env)
        assert (last.rowids, last.aux, last.done) == (["R2"], [0.2], True)

    def test_tuple_rowids_are_not_split_without_want_aux(self, scan_env):
        # a heap rowid is itself a tuple: the flag decides, not the shape
        scan = PrecomputedScan([(1, 0, 1), (1, 0, 2)])
        result = MinimalMethods().index_fetch(scan, 4, scan_env)
        assert (result.rowids, result.aux, result.done) == (
            [(1, 0, 1), (1, 0, 2)], None, True)

    def test_close_closes_the_scan_and_frees_the_handle(self, scan_env):
        methods = MinimalMethods()
        scan = _Numbers(5)
        handle = scan_env.workspace.allocate(scan)
        methods.index_fetch(handle, 2, scan_env)
        methods.index_close(handle, scan_env)
        assert scan.closed
        assert scan_env.workspace.live_handles == 0

    def test_close_closes_a_return_state_scan(self, scan_env):
        methods = MinimalMethods()
        scan = _Numbers(5)
        methods.index_fetch(scan, 2, scan_env)
        methods.index_close(scan, scan_env)
        assert scan.closed
        assert scan_env.workspace.live_handles == 0

    def test_a_cartridge_that_overrides_fetch_gets_its_own(self, db):
        ListStateMethods.closed = []
        db.create_function("AnyFunc", lambda v, probe: 1, cost=5.0)
        db.register_methods("ListStateMethods", ListStateMethods)
        db.execute("CREATE OPERATOR Any_Of BINDING (VARCHAR2, VARCHAR2)"
                   " RETURN NUMBER USING AnyFunc")
        db.execute("CREATE INDEXTYPE ListType FOR Any_Of(VARCHAR2, VARCHAR2)"
                   " USING ListStateMethods")
        db.execute("CREATE TABLE t (v VARCHAR2(10))")
        db.execute("CREATE INDEX t_idx ON t(v) INDEXTYPE IS ListType")
        db.executemany("INSERT INTO t VALUES (:1)",
                       [[f"v{i}"] for i in range(5)])
        db.fetch_batch_size = 2
        sql = "SELECT v FROM t WHERE Any_Of(v, 'x') = 1"
        assert "DOMAIN INDEX SCAN t_idx" in "\n".join(db.explain(sql))
        assert sorted(db.execute(sql).fetchall()) == [
            (f"v{i}",) for i in range(5)]
        assert ListStateMethods.closed == [0]


class TestErrorFormatting:
    def test_parse_error_shows_context(self):
        error = ParseError("boom", position=10,
                           sql="SELECT * FROM somewhere")
        assert "boom" in str(error)
        assert "position 10" in str(error)

    def test_parse_error_without_position(self):
        assert str(ParseError("plain")) == "plain"

    def test_odci_error_carries_routine(self):
        error = ODCIError("ODCIIndexCreate", "went wrong")
        assert error.routine == "ODCIIndexCreate"
        assert "ODCIIndexCreate" in str(error)
