"""DDL execution: tables, indexes, operators, indextypes, statistics.

:class:`DDLEngine` owns every schema-changing statement.  Domain-index
DDL drives the cartridge's definition routines
(``ODCIIndexCreate/Alter/Truncate/Drop``, §2.4.1); ``ASSOCIATE
STATISTICS`` and ``ANALYZE`` wire up and run the ODCIStats routines
(§2.4.2).

Plan-cache coherence: most handlers mutate the schema through catalog
mutators, which bump ``Catalog.version`` themselves.  Handlers that
change *plan-relevant* state in place — ALTER INDEX, TRUNCATE, ASSOCIATE
STATISTICS, ANALYZE — call ``catalog.bump_version()`` explicitly so
cached plans built against the old state are invalidated.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.callbacks import CallbackPhase
from repro.core.domain_index import DomainIndex, IndexState
from repro.core.indextype import Indextype, SupportedOperator
from repro.core.operators import Operator, OperatorBinding
from repro.errors import CallbackError, CatalogError, DatabaseError
from repro.index import BitmapIndex, BTree, HashIndex
from repro.sql import ast_nodes as ast
from repro.sql.catalog import (
    ColumnInfo, ColumnStats, IndexDef, TableDef, TableStats)
from repro.sql.cursor import Cursor
from repro.sql.dml import index_key
from repro.sql.expressions import Binder, Scope
from repro.storage.heap import HeapTable
from repro.storage.iot import IndexOrganizedTable
from repro.types.datatypes import DataType, type_from_name
from repro.types.objects import NestedTable, Varray
from repro.types.values import is_null


class DDLEngine:
    """Executes DDL statements against the catalog and the cartridges."""

    def __init__(self, db: Any):
        self.db = db

    def _checkpoint_barrier(self, reason: str = "ddl") -> None:
        """Durably record a schema change before the DDL returns.

        Catalog state travels in checkpoint snapshots, not WAL records,
        so every schema-mutating handler checkpoints on its way out.
        For TRUNCATE the barrier is load-bearing rather than merely
        prompt: the storage keeps its segment id, so pre-truncate WAL
        records still target the reused segment — the checkpoint
        advances the redo start point past them so they can never
        replay onto the fresh (page_lsn 0) pages.
        """
        durability = getattr(self.db.engine, "durability", None)
        if durability is not None:
            durability.checkpoint(reason=reason)

    def _ensure_methods(self, domain: DomainIndex) -> None:
        """Re-instantiate a restored domain index's methods object.

        Restart recovery nulls ``methods`` (the instances died with the
        old process); any DDL that drives a cartridge callback first
        rebuilds one from the re-registered indextype.
        """
        if domain.methods is None:
            indextype = self.db.catalog.get_indextype(domain.indextype_name)
            domain.methods = self.db.catalog.get_method_type(
                indextype.implementation_name)()

    # ------------------------------------------------------------------
    # type resolution helpers
    # ------------------------------------------------------------------

    def _column_datatype(self, col: ast.ColumnDef) -> DataType:
        if col.collection == "varray":
            return Varray(self._scalar_datatype(col.elem_type_name,
                                                col.elem_length),
                          limit=col.limit)
        if col.collection == "table":
            return NestedTable(self._scalar_datatype(col.elem_type_name,
                                                     col.elem_length))
        return self._scalar_datatype(col.type_name, col.length)

    def _scalar_datatype(self, type_name: Optional[str],
                         length: Optional[int]) -> DataType:
        name = (type_name or "").upper()
        if self.db.catalog.has_object_type(name):
            return self.db.catalog.get_object_type(name)
        return type_from_name(name, length)

    def _binding_types(self, raw: List[Tuple[str, Optional[int]]]
                       ) -> List[DataType]:
        return [self._scalar_datatype(name, length) for name, length in raw]

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------

    def execute_create_table(self, stmt: ast.CreateTable) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        if db.catalog.has_table(stmt.name):
            raise CatalogError(f"table {stmt.name} already exists")
        columns = [ColumnInfo(name=c.name.lower(),
                              datatype=self._column_datatype(c),
                              not_null=c.not_null or c.primary_key)
                   for c in stmt.columns]
        pk = [c.lower() for c in stmt.primary_key]
        if stmt.organization_index:
            if not pk:
                raise CatalogError(
                    "an index-organized table requires a primary key")
            leading = [c.name for c in columns[:len(pk)]]
            if leading != pk:
                raise CatalogError(
                    "IOT primary key columns must be the leading columns "
                    f"(got key {pk}, leading columns {leading})")
            storage: Any = IndexOrganizedTable(db.buffer,
                                               key_width=len(pk),
                                               name=stmt.name,
                                               unique=True)
        else:
            storage = HeapTable(db.buffer, name=stmt.name)
        table = TableDef(name=stmt.name, columns=columns, storage=storage,
                         primary_key=pk, is_iot=stmt.organization_index,
                         owner=db.session_user)
        db.catalog.add_table(table)
        self._checkpoint_barrier()
        return Cursor(rowcount=0)

    def execute_drop_table(self, stmt: ast.DropTable) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        if not db.catalog.has_table(stmt.name):
            if stmt.if_exists:
                return Cursor(rowcount=0)
            raise CatalogError(f"no such table {stmt.name!r}")
        table = db.catalog.get_table(stmt.name)
        db._check_table_ownership(table, "drop")
        for index in list(db.catalog.indexes_on(table.name)):
            self.drop_index_object(index, force=True)
        if isinstance(table.storage, HeapTable):
            db.buffer.drop_segment(table.storage.segment_id)
        else:
            table.storage.truncate()
            # IOTs bypass the buffer cache's drop path; tombstone the
            # durable dump directly or recovery would resurrect it
            durability = getattr(db.engine, "durability", None)
            if durability is not None:
                durability.segment_dropped(table.storage.segment_id)
        db.catalog.drop_table(stmt.name)
        self._checkpoint_barrier()
        return Cursor(rowcount=0)

    def execute_truncate(self, stmt: ast.TruncateTable) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        table = db.catalog.get_table(stmt.name)
        db._check_table_ownership(table, "truncate")
        table.storage.truncate()
        for index in db.catalog.indexes_on(table.name):
            if index.is_domain and index.domain is not None:
                domain = index.domain
                if domain.state is IndexState.FAILED:
                    # create never succeeded; there is nothing to empty
                    db._trace(f"ddl:truncate skip({index.name}) state=FAILED")
                    continue
                self._ensure_methods(domain)
                env = db.make_env(CallbackPhase.DEFINITION, domain)
                env.trace(f"ddl:ODCIIndexTruncate({index.name})")
                try:
                    db.dispatcher.call(
                        "ODCIIndexTruncate", domain.methods.index_truncate,
                        domain.index_info(), env,
                        index_name=index.name, phase="definition")
                except CallbackError as exc:
                    # degrade, don't die: the table is already truncated,
                    # so an UNUSABLE index just forces functional fallback
                    db.catalog.set_index_state(index.name,
                                               IndexState.UNUSABLE)
                    db._trace(f"ddl:truncate degrade({index.name}) -> "
                              f"UNUSABLE [{exc.routine}]")
                    continue
                if domain.state is IndexState.UNUSABLE:
                    # empty index + empty table are trivially consistent:
                    # a successful truncate restores the index (Oracle
                    # TRUNCATE resets unusable indexes the same way)
                    db.catalog.set_index_state(index.name, IndexState.VALID)
            elif index.structure is not None:
                index.structure.clear()
        db.catalog.bump_version()  # cardinality collapsed; cached plans stale
        self._checkpoint_barrier(reason="truncate")
        return Cursor(rowcount=0)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------

    def execute_create_index(self, stmt: ast.CreateIndex) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        if db.catalog.has_index(stmt.name):
            raise CatalogError(f"index {stmt.name} already exists")
        table = db.catalog.get_table(stmt.table)
        db._check_table_ownership(table, "index")
        columns = tuple(c.lower() for c in stmt.columns)
        for column in columns:
            table.column_position(column)  # validates existence
        if stmt.kind == "domain":
            return self._create_domain_index(stmt, table, columns)
        return self._create_native_index(stmt, table, columns)

    def _create_native_index(self, stmt: ast.CreateIndex, table: TableDef,
                             columns: Tuple[str, ...]) -> Cursor:
        db = self.db
        touch = lambda n: setattr(  # noqa: E731 - tiny counter hook
            db.stats, "logical_reads", db.stats.logical_reads + n)
        if stmt.kind == "btree":
            structure: Any = BTree(unique=stmt.unique, touch=touch)
        elif stmt.kind == "hash":
            structure = HashIndex(unique=stmt.unique, touch=touch)
        elif stmt.kind == "bitmap":
            structure = BitmapIndex(touch=touch)
        else:
            raise CatalogError(f"unknown index kind {stmt.kind!r}")
        index = IndexDef(name=stmt.name, table_name=table.name,
                         column_names=columns, kind=stmt.kind,
                         unique=stmt.unique, structure=structure)
        positions = [table.column_position(c) for c in columns]
        self._populate_native(table, structure, positions)
        db.catalog.add_index(index)
        self._checkpoint_barrier()
        return Cursor(rowcount=0)

    def _populate_native(self, table: TableDef, structure: Any,
                         positions: List[int]) -> None:
        """Load a native index structure from the table's current rows.

        Sorted bulk build when the structure supports it (B-trees) and
        ``bulk_index_build`` is on; per-row insertion otherwise.
        """
        db = self.db
        if (getattr(db, "bulk_index_build", True)
                and hasattr(structure, "bulk_load")):
            pairs = []
            for rowid, row in table.storage.scan():
                key = index_key(row, positions)
                if key is not None:
                    pairs.append((key, rowid))
            structure.bulk_load(pairs)
            return
        for rowid, row in table.storage.scan():
            key = index_key(row, positions)
            if key is not None:
                structure.insert(key, rowid)

    def _create_domain_index(self, stmt: ast.CreateIndex, table: TableDef,
                             columns: Tuple[str, ...]) -> Cursor:
        db = self.db
        indextype = db.catalog.get_indextype(stmt.indextype or "")
        methods_cls = db.catalog.get_method_type(
            indextype.implementation_name)
        column_types = tuple(table.column_info(c).datatype for c in columns)
        domain = DomainIndex(
            name=stmt.name, table_name=table.name, column_names=columns,
            column_types=column_types, indextype_name=indextype.name,
            parameters=stmt.parameters or "", methods=methods_cls(),
            state=IndexState.IN_PROGRESS, owner=db.session_user)
        # Catalog entry first (Oracle records the index before building
        # it): a failed ODCIIndexCreate leaves the index behind in the
        # FAILED state, where the only legal statement is DROP INDEX.
        index = IndexDef(name=stmt.name, table_name=table.name,
                         column_names=columns, kind="domain", domain=domain)
        db.catalog.add_index(index)
        # barrier: a crash mid-build must find IN_PROGRESS on disk so
        # recovery degrades it to FAILED, never resurrects it as VALID
        self._checkpoint_barrier(reason="domain-create")
        env = db.make_env(CallbackPhase.DEFINITION, domain)
        env.trace(f"ddl:ODCIIndexCreate({indextype.name}:{stmt.name})")
        try:
            db.dispatcher.call(
                "ODCIIndexCreate", domain.methods.index_create,
                domain.index_info(), stmt.parameters or "", env,
                index_name=stmt.name, phase="definition")
        except CallbackError:
            db.catalog.set_index_state(stmt.name, IndexState.FAILED)
            self._checkpoint_barrier(reason="domain-create")
            raise
        db.catalog.set_index_state(stmt.name, IndexState.VALID)
        self._checkpoint_barrier(reason="domain-create")
        return Cursor(rowcount=0)

    def execute_alter_index(self, stmt: ast.AlterIndex) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        index = db.catalog.get_index(stmt.name)
        if index.is_domain and index.domain is not None:
            domain = index.domain
            if stmt.unusable:
                # administrative degrade: no cartridge callback involved
                db.catalog.set_index_state(index.name, IndexState.UNUSABLE)
                db._trace(f"ddl:alter {index.name} UNUSABLE")
                self._checkpoint_barrier()
                return Cursor(rowcount=0)
            if domain.state is IndexState.FAILED:
                raise CatalogError(
                    f"index {index.name} is FAILED (create died); "
                    "only DROP INDEX is allowed")
            if stmt.rebuild:
                return self._rebuild_domain_index(index)
            self._ensure_methods(domain)
            env = db.make_env(CallbackPhase.DEFINITION, domain)
            env.trace(f"ddl:ODCIIndexAlter({index.name})")
            db.dispatcher.call(
                "ODCIIndexAlter", domain.methods.index_alter,
                domain.index_info(), stmt.parameters or "", env,
                index_name=index.name, phase="definition")
            if stmt.parameters is not None:
                domain.parameters = stmt.parameters
            db.catalog.bump_version()  # parameters can change scan behaviour
            self._checkpoint_barrier()
            return Cursor(rowcount=0)
        if stmt.unusable:
            raise CatalogError(
                f"index {index.name} is not a domain index; "
                "UNUSABLE applies to domain indexes only")
        if stmt.rebuild:
            table = db.catalog.get_table(index.table_name)
            index.structure.clear()
            positions = [table.column_position(c)
                         for c in index.column_names]
            self._populate_native(table, index.structure, positions)
            db.catalog.bump_version()
            self._checkpoint_barrier()
            return Cursor(rowcount=0)
        raise CatalogError(
            f"index {index.name} is not a domain index; only REBUILD applies")

    def _rebuild_domain_index(self, index: IndexDef) -> Cursor:
        """ALTER INDEX ... REBUILD on a domain index (§2.6 recovery).

        Drop + Create from the base table: the old index data is
        discarded via a best-effort ``ODCIIndexDrop`` (an UNUSABLE
        index's drop routine may itself fail — that must not block
        recovery), then ``ODCIIndexCreate`` rebuilds from the base
        table under ``IN_PROGRESS``.  Success restores ``VALID``;
        a failed rebuild leaves the index ``FAILED``.
        """
        db = self.db
        domain = index.domain
        self._ensure_methods(domain)
        db.catalog.set_index_state(index.name, IndexState.IN_PROGRESS)
        # barrier: crash mid-rebuild must recover as FAILED, never VALID
        self._checkpoint_barrier(reason="domain-rebuild")
        env = db.make_env(CallbackPhase.DEFINITION, domain)
        env.trace(f"ddl:rebuild({index.name})")
        try:
            db.dispatcher.call(
                "ODCIIndexDrop", domain.methods.index_drop,
                domain.index_info(), env,
                index_name=index.name, phase="definition")
        except CallbackError as exc:
            db._trace(f"ddl:rebuild({index.name}) drop phase failed, "
                      f"continuing [{exc.routine}]")
        env = db.make_env(CallbackPhase.DEFINITION, domain)
        env.trace(f"ddl:ODCIIndexCreate({domain.indextype_name}:"
                  f"{index.name})")
        try:
            db.dispatcher.call(
                "ODCIIndexCreate", domain.methods.index_create,
                domain.index_info(), domain.parameters, env,
                index_name=index.name, phase="definition")
        except CallbackError:
            db.catalog.set_index_state(index.name, IndexState.FAILED)
            self._checkpoint_barrier(reason="domain-rebuild")
            raise
        db.catalog.set_index_state(index.name, IndexState.VALID)
        self._checkpoint_barrier(reason="domain-rebuild")
        return Cursor(rowcount=0)

    def execute_drop_index(self, stmt: ast.DropIndex) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        index = db.catalog.get_index(stmt.name)
        self.drop_index_object(index, force=stmt.force)
        self._checkpoint_barrier()
        return Cursor(rowcount=0)

    def drop_index_object(self, index: IndexDef, force: bool) -> None:
        db = self.db
        if index.is_domain and index.domain is not None:
            try:
                self._ensure_methods(index.domain)
            except CatalogError:
                # the indextype was never re-registered after restart;
                # there is no cartridge state to drop in this process
                pass
            else:
                env = db.make_env(CallbackPhase.DEFINITION, index.domain)
                env.trace(f"ddl:ODCIIndexDrop({index.name})")
                try:
                    db.dispatcher.call(
                        "ODCIIndexDrop", index.domain.methods.index_drop,
                        index.domain.index_info(), env,
                        index_name=index.name, phase="definition")
                except DatabaseError as exc:
                    # DROP ... FORCE must win even when the cartridge's
                    # own drop routine is broken — the catalog entry goes
                    # away regardless (§2.6: FAILED indexes can always be
                    # dropped).
                    if not force:
                        raise
                    db._trace(f"ddl:drop force({index.name}) ignoring "
                              f"ODCIIndexDrop failure [{exc}]")
        db.catalog.drop_index(index.name)
        # the maintenance counters go where the catalog entry goes: an
        # index recreated under the same name starts from zero
        db.dispatcher.maintenance.pop(index.name, None)

    # ------------------------------------------------------------------
    # operators / indextypes / types / statistics
    # ------------------------------------------------------------------

    def execute_create_operator(self, stmt: ast.CreateOperator) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        bindings = []
        for raw in stmt.bindings:
            if not db.catalog.has_function(raw.function_name):
                raise CatalogError(
                    f"operator binding references unknown function "
                    f"{raw.function_name!r}; register it with "
                    "db.create_function first")
            bindings.append(OperatorBinding(
                arg_types=self._binding_types(raw.arg_types),
                return_type=self._scalar_datatype(raw.return_type, None),
                function_name=raw.function_name))
        operator = Operator(name=stmt.name, bindings=bindings,
                            ancillary_to=stmt.ancillary_to)
        db.catalog.add_operator(operator)
        return Cursor(rowcount=0)

    def execute_drop_operator(self, stmt: ast.DropOperator) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        operator = db.catalog.get_operator(stmt.name)
        users = [it.name for it in db.catalog.indextypes.values()
                 if it.supports(operator.name.split(".")[-1])]
        if users and not stmt.force:
            raise CatalogError(
                f"operator {operator.name} is supported by indextype(s) "
                f"{users}; use DROP OPERATOR ... FORCE")
        db.catalog.drop_operator(stmt.name)
        return Cursor(rowcount=0)

    def execute_create_indextype(self, stmt: ast.CreateIndextype) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        operators = []
        for raw in stmt.operators:
            if not db.catalog.has_operator(raw.name):
                # tolerate schema-qualified lookup
                binder = Binder(db.catalog, Scope([]))
                if binder.find_operator(raw.name) is None:
                    raise CatalogError(
                        f"indextype references unknown operator {raw.name!r}")
            operators.append(SupportedOperator(
                operator_name=raw.name.split(".")[-1],
                arg_types=tuple(self._binding_types(raw.arg_types))))
        # validates that the implementation type is registered
        db.catalog.get_method_type(stmt.using)
        indextype = Indextype(name=stmt.name, operators=operators,
                              implementation_name=stmt.using)
        db.catalog.add_indextype(indextype)
        return Cursor(rowcount=0)

    def execute_drop_indextype(self, stmt: ast.DropIndextype) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        if stmt.force:
            indextype = db.catalog.get_indextype(stmt.name)
            for index in list(db.catalog.indexes.values()):
                if index.is_domain and index.domain is not None and \
                        index.domain.indextype_name.lower() == indextype.key:
                    self.drop_index_object(index, force=True)
        db.catalog.drop_indextype(stmt.name)
        self._checkpoint_barrier()
        return Cursor(rowcount=0)

    def execute_create_type(self, stmt: ast.CreateType) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        attributes = [(a.name, self._column_datatype(a))
                      for a in stmt.attributes]
        db.create_object_type(stmt.name, attributes)
        return Cursor(rowcount=0)

    def execute_associate(self, stmt: ast.AssociateStatistics) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        db.catalog.get_stats_type(stmt.using)  # validates registration
        if stmt.kind == "indextypes":
            for name in stmt.names:
                db.catalog.get_indextype(name).stats_name = stmt.using
        else:
            for name in stmt.names:
                if not db.catalog.has_function(name):
                    raise CatalogError(f"no such function {name!r}")
                # the planner consults this for per-call function costs
                db.catalog.function_stats[name.lower()] = stmt.using
        # association changes cost estimates → cached plans are stale
        db.catalog.bump_version()
        return Cursor(rowcount=0)

    def execute_grant(self, stmt: ast.GrantStatement) -> Cursor:
        db = self.db
        db._autocommit_ddl()
        table = db.catalog.get_table(stmt.table)
        db._check_table_ownership(
            table, "revoke privileges on" if stmt.revoke
            else "grant privileges on")
        if stmt.revoke:
            db.catalog.revoke(stmt.grantee, table.key, stmt.privileges)
        else:
            db.catalog.grant(stmt.grantee, table.key, stmt.privileges)
        self._checkpoint_barrier()
        return Cursor(rowcount=0)

    def execute_analyze(self, stmt: ast.AnalyzeTable) -> Cursor:
        db = self.db
        table = db.catalog.get_table(stmt.name)
        stats = TableStats(row_count=table.storage.row_count,
                           page_count=table.storage.page_count,
                           analyzed=True)
        distinct: Dict[str, set] = {c.name: set() for c in table.columns}
        nulls: Dict[str, int] = {c.name: 0 for c in table.columns}
        mins: Dict[str, Any] = {}
        maxs: Dict[str, Any] = {}
        for __, row in table.storage.scan():
            for col, value in zip(table.columns, row):
                if is_null(value):
                    nulls[col.name] += 1
                    continue
                marker = value if isinstance(value, (int, float, str, bool)) \
                    else repr(value)
                distinct[col.name].add(marker)
                if isinstance(value, (int, float, str)) \
                        and not isinstance(value, bool):
                    if col.name not in mins or value < mins[col.name]:
                        mins[col.name] = value
                    if col.name not in maxs or value > maxs[col.name]:
                        maxs[col.name] = value
        for col in table.columns:
            stats.columns[col.name] = ColumnStats(
                ndv=len(distinct[col.name]), null_count=nulls[col.name],
                min_value=mins.get(col.name), max_value=maxs.get(col.name))
        table.stats = stats
        # ODCIStatsCollect for domain indexes with associated statistics
        for index in db.catalog.indexes_on(table.name):
            if not index.is_domain or index.domain is None:
                continue
            indextype = db.catalog.get_indextype(
                index.domain.indextype_name)
            if indextype.stats_name is None:
                continue
            stats_impl = db.catalog.get_stats_type(indextype.stats_name)()
            env = db.make_env(CallbackPhase.SCAN, index.domain)
            env.trace(f"analyze:ODCIStatsCollect({index.name})")
            # a broken statistics type must not abort ANALYZE: degrade
            # to "no domain stats collected" with a trace line
            collected = db.dispatcher.call_degraded(
                "ODCIStatsCollect", stats_impl.stats_collect,
                index.domain.index_info(), env,
                index_name=index.name, phase="definition")
            if collected is not None:
                db.catalog.domain_index_stats[index.key] = collected
        # fresh statistics change cost estimates → cached plans are stale
        db.catalog.bump_version()
        return Cursor(rowcount=0)
