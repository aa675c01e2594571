"""Core extensibility framework: operators, indextypes, ODCI descriptors,
scan contexts, workspace, callback restrictions."""

import pytest

from repro import Engine
from repro.core.callbacks import CallbackPhase, CallbackSession
from repro.core.indextype import Indextype, SupportedOperator
from repro.core.odci import FetchResult, ODCIPredInfo
from repro.core.operators import Operator, OperatorBinding
from repro.core.scan_context import PrecomputedScan, ScanContext, Workspace
from repro.errors import (
    CallbackViolation, IndextypeError, ODCIError, OperatorBindingError)
from repro.storage.buffer import IOStats
from repro.types.datatypes import ANY, INTEGER, NUMBER, VARCHAR2


class TestOperatorBindings:
    @pytest.fixture
    def contains(self):
        return Operator(name="Contains", bindings=[
            OperatorBinding([VARCHAR2, VARCHAR2], NUMBER, "TextContains")])

    def test_resolve_exact(self, contains):
        binding = contains.resolve_binding([VARCHAR2, VARCHAR2])
        assert binding.function_name == "TextContains"

    def test_extra_trailing_args_allowed(self, contains):
        # ancillary labels / parameter strings ride after declared args
        binding = contains.resolve_binding([VARCHAR2, VARCHAR2, INTEGER])
        assert binding is contains.bindings[0]

    def test_too_few_args_rejected(self, contains):
        with pytest.raises(OperatorBindingError):
            contains.resolve_binding([VARCHAR2])

    def test_incompatible_types_rejected(self, contains):
        with pytest.raises(OperatorBindingError):
            contains.resolve_binding([NUMBER, NUMBER])

    def test_any_matches_everything(self):
        operator = Operator(name="Op", bindings=[
            OperatorBinding([ANY, ANY], NUMBER, "f")])
        assert operator.resolve_binding([VARCHAR2, NUMBER])

    def test_first_matching_binding_wins(self):
        operator = Operator(name="Op", bindings=[
            OperatorBinding([NUMBER], NUMBER, "numeric"),
            OperatorBinding([VARCHAR2], NUMBER, "textual")])
        assert operator.resolve_binding([VARCHAR2]).function_name == "textual"
        assert operator.resolve_binding([INTEGER]).function_name == "numeric"

    def test_ancillary_flag(self):
        score = Operator(name="Score", ancillary_to="Contains")
        assert score.is_ancillary
        assert not Operator(name="X").is_ancillary


class TestIndextype:
    @pytest.fixture
    def indextype(self):
        return Indextype(name="TextIndexType", operators=[
            SupportedOperator("Contains", (VARCHAR2, VARCHAR2))],
            implementation_name="TextIndexMethods")

    def test_supports_by_name(self, indextype):
        assert indextype.supports("contains")
        assert not indextype.supports("overlaps")

    def test_supports_with_types(self, indextype):
        assert indextype.supports("Contains", [VARCHAR2, VARCHAR2])
        assert indextype.supports("Contains", [VARCHAR2, VARCHAR2, INTEGER])
        assert not indextype.supports("Contains", [NUMBER, NUMBER])

    def test_require_support_raises(self, indextype):
        indextype.require_support("Contains")
        with pytest.raises(IndextypeError):
            indextype.require_support("Overlaps")

    def test_supported_names(self, indextype):
        assert indextype.supported_operator_names() == ["contains"]


class TestPredInfoBounds:
    def test_closed_bounds(self):
        pred = ODCIPredInfo("Op", lower_bound=1, upper_bound=5)
        assert pred.bound_accepts(1)
        assert pred.bound_accepts(5)
        assert not pred.bound_accepts(0)
        assert not pred.bound_accepts(6)

    def test_open_bounds(self):
        pred = ODCIPredInfo("Op", lower_bound=1, include_lower=False)
        assert not pred.bound_accepts(1)
        assert pred.bound_accepts(2)

    def test_unbounded(self):
        pred = ODCIPredInfo("Op")
        assert pred.bound_accepts(-100)


class TestScanContexts:
    def test_precomputed_batching(self):
        scan = PrecomputedScan(list(range(10)))
        assert scan.next_batch(4) == [0, 1, 2, 3]
        assert scan.remaining == 6
        assert scan.next_batch(4) == [4, 5, 6, 7]
        assert scan.next_batch(4) == [8, 9]
        assert scan.exhausted
        assert scan.next_batch(4) == []

    def test_incremental_row_source(self):
        class Source(ScanContext):
            def row_source(self):
                yield from range(5)

        scan = Source()
        assert scan.next_batch(3) == [0, 1, 2]
        assert scan.next_batch(3) == [3, 4]
        assert scan.exhausted

    def test_exact_batch_not_exhausted(self):
        scan = PrecomputedScan([1, 2, 3])
        assert scan.next_batch(3) == [1, 2, 3]
        assert not scan.exhausted  # can't know until the next pull
        assert scan.next_batch(3) == []
        assert scan.exhausted


class TestWorkspace:
    def test_allocate_resolve_free(self):
        workspace = Workspace(IOStats())
        handle = workspace.allocate(["state"])
        assert isinstance(handle, int)
        assert workspace.resolve(handle) == ["state"]
        workspace.free(handle)
        assert workspace.live_handles == 0
        with pytest.raises(ODCIError):
            workspace.resolve(handle)

    def test_distinct_handles(self):
        workspace = Workspace(IOStats())
        first = workspace.allocate("a")
        second = workspace.allocate("b")
        assert first != second
        assert workspace.resolve(second) == "b"

    def test_spill_accounting_over_budget(self):
        stats = IOStats()
        workspace = Workspace(stats, memory_budget=64)
        workspace.allocate(["x" * 100])
        assert stats.extra.get("workspace_spills", 0) >= 1

    def test_free_is_idempotent(self):
        workspace = Workspace(IOStats())
        handle = workspace.allocate("a")
        workspace.free(handle)
        workspace.free(handle)  # no error


class TestCallbackRestrictions:
    @pytest.fixture
    def setup_db(self):
        db = Engine().connect()
        db.execute("CREATE TABLE base (x NUMBER)")
        db.execute("CREATE TABLE idxdata (x NUMBER)")
        return db

    def test_definition_allows_everything(self, setup_db):
        session = CallbackSession(setup_db, CallbackPhase.DEFINITION,
                                  base_table="base")
        session.execute("CREATE TABLE aux (y NUMBER)")
        session.execute("INSERT INTO base VALUES (1)")
        session.execute("SELECT * FROM base")

    def test_maintenance_forbids_ddl(self, setup_db):
        session = CallbackSession(setup_db, CallbackPhase.MAINTENANCE,
                                  base_table="base")
        with pytest.raises(CallbackViolation):
            session.execute("CREATE TABLE aux (y NUMBER)")
        with pytest.raises(CallbackViolation):
            session.execute("DROP TABLE idxdata")

    def test_maintenance_forbids_base_table_dml(self, setup_db):
        session = CallbackSession(setup_db, CallbackPhase.MAINTENANCE,
                                  base_table="base")
        with pytest.raises(CallbackViolation):
            session.execute("INSERT INTO base VALUES (1)")
        with pytest.raises(CallbackViolation):
            session.execute("UPDATE base SET x = 2")
        with pytest.raises(CallbackViolation):
            session.execute("DELETE FROM base")

    def test_maintenance_allows_index_table_dml(self, setup_db):
        session = CallbackSession(setup_db, CallbackPhase.MAINTENANCE,
                                  base_table="base")
        session.execute("INSERT INTO idxdata VALUES (1)")
        session.execute("DELETE FROM idxdata")
        session.execute("SELECT * FROM idxdata")

    def test_maintenance_bulk_insert_checked(self, setup_db):
        session = CallbackSession(setup_db, CallbackPhase.MAINTENANCE,
                                  base_table="base")
        session.insert_rows("idxdata", [[1], [2]])
        with pytest.raises(CallbackViolation):
            session.insert_rows("base", [[1]])

    @pytest.fixture
    def keyed_db(self, setup_db):
        setup_db.execute("CREATE TABLE postings (tok VARCHAR2(8), doc NUMBER,"
                         " freq NUMBER, PRIMARY KEY (tok, doc))"
                         " ORGANIZATION INDEX")
        setup_db.execute("CREATE INDEX postings_freq ON postings(freq)")
        setup_db.insert_rows("postings", [["a", 1, 5], ["a", 2, 6],
                                          ["b", 1, 7]])
        return setup_db

    def test_bulk_delete_by_key(self, keyed_db):
        session = CallbackSession(keyed_db, CallbackPhase.MAINTENANCE,
                                  base_table="base")
        # absent keys are skipped, the count is of rows deleted
        assert session.delete_rows(
            "postings", [("a", 2), ("zz", 9), ("b", 1)]) == 2
        assert session.query("SELECT * FROM postings") == [("a", 1, 5)]
        assert session.delete_rows("postings", []) == 0
        # the table's own native indexes were maintained
        (index,) = keyed_db.catalog.indexes_on("postings")
        assert index.structure.search(6) == [] \
            and index.structure.entry_count == 1

    def test_bulk_delete_is_transactional(self, keyed_db):
        session = CallbackSession(keyed_db, CallbackPhase.MAINTENANCE,
                                  base_table="base")
        keyed_db.begin()
        assert session.delete_rows("postings", [("a", 1), ("a", 2)]) == 2
        other = keyed_db.engine.connect()
        assert other.execute("SELECT COUNT(*) FROM postings"
                             ).fetchall() == [(3,)]   # snapshot read
        keyed_db.rollback()
        assert keyed_db.execute(
            "SELECT COUNT(*) FROM postings").fetchall() == [(3,)]
        assert keyed_db.execute(
            "SELECT tok, doc FROM postings WHERE freq = 6"
        ).fetchall() == [("a", 2)]

    def test_bulk_delete_checked_like_a_delete_statement(self, keyed_db):
        from repro.errors import ExecutionError
        scan = CallbackSession(keyed_db, CallbackPhase.SCAN,
                               base_table="base")
        with pytest.raises(CallbackViolation):
            scan.delete_rows("postings", [("a", 1)])
        keyed_db.execute("CREATE TABLE kbase (k NUMBER, PRIMARY KEY (k))"
                         " ORGANIZATION INDEX")
        maintenance = CallbackSession(keyed_db, CallbackPhase.MAINTENANCE,
                                      base_table="kbase")
        with pytest.raises(CallbackViolation):
            maintenance.delete_rows("kbase", [(1,)])
        # keyed means keyed: a heap table has no key to descend by, and
        # a partial key is not a key
        with pytest.raises(ExecutionError):
            maintenance.delete_rows("idxdata", [(1,)])
        with pytest.raises(ExecutionError):
            maintenance.delete_rows("postings", [("a",)])
        assert keyed_db.execute(
            "SELECT COUNT(*) FROM postings").fetchall() == [(3,)]

    def test_scan_allows_only_queries(self, setup_db):
        session = CallbackSession(setup_db, CallbackPhase.SCAN,
                                  base_table="base")
        session.execute("SELECT * FROM idxdata")
        with pytest.raises(CallbackViolation):
            session.execute("INSERT INTO idxdata VALUES (1)")
        with pytest.raises(CallbackViolation):
            session.execute("CREATE TABLE aux (y NUMBER)")

    def test_no_transaction_control_from_callbacks(self, setup_db):
        for phase in CallbackPhase:
            session = CallbackSession(setup_db, phase, base_table="base")
            with pytest.raises(CallbackViolation):
                session.execute("COMMIT")
            with pytest.raises(CallbackViolation):
                session.execute("ROLLBACK")

    @pytest.mark.parametrize("phase", list(CallbackPhase),
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("tcl", [
        "COMMIT", "ROLLBACK", "ROLLBACK TO sp1", "SAVEPOINT sp1",
        "BEGIN TRANSACTION"])
    def test_every_tcl_form_rejected_in_every_phase(self, setup_db,
                                                    phase, tcl):
        # TCL is checked before the DEFINITION phase's "no restrictions"
        # early-out: a callback commits or rolls back the *server's*
        # transaction, so no phase may ever issue it (§2.5)
        session = CallbackSession(setup_db, phase, base_table="base")
        with pytest.raises(CallbackViolation):
            session.execute(tcl)

    def test_rejected_tcl_leaves_open_transaction_intact(self, setup_db):
        setup_db.begin()
        setup_db.execute("INSERT INTO idxdata VALUES (1)")
        session = CallbackSession(setup_db, CallbackPhase.MAINTENANCE,
                                  base_table="base")
        with pytest.raises(CallbackViolation):
            session.execute("COMMIT")
        # the violation did not disturb the surrounding transaction
        setup_db.rollback()
        assert setup_db.execute(
            "SELECT COUNT(*) FROM idxdata").fetchall() == [(0,)]

    def test_fetch_helpers(self, setup_db):
        setup_db.execute("INSERT INTO idxdata VALUES (42)")
        rid = setup_db.execute("SELECT rowid FROM idxdata").fetchall()[0][0]
        session = CallbackSession(setup_db, CallbackPhase.SCAN)
        assert session.fetch_row("idxdata", rid) == (42,)
        assert session.fetch_value("idxdata", rid, "x") == 42

    def test_binds_work_in_callbacks(self, setup_db):
        session = CallbackSession(setup_db, CallbackPhase.MAINTENANCE,
                                  base_table="base")
        session.execute("INSERT INTO idxdata VALUES (:1)", [7])
        assert session.query("SELECT x FROM idxdata WHERE x = :1",
                             [7]) == [(7,)]
