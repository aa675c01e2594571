"""The catalog (data dictionary).

Holds every schema object: tables (with their storage), indexes (native
and domain), user-defined operators, indextypes, registered functions and
implementation types, object types, and optimizer statistics.  All names
are case-insensitive (stored lower-cased).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

from repro.core.domain_index import DomainIndex, IndexState
from repro.core.indextype import Indextype
from repro.core.odci import IndexMethods
from repro.core.operators import Operator
from repro.core.stats import StatsMethods
from repro.errors import CatalogError, IndexFormatError, StorageError
from repro.index import BTree
from repro.storage.heap import HeapTable
from repro.storage.iot import IndexOrganizedTable
from repro.types.datatypes import DataType
from repro.types.objects import ObjectType
from repro.types.values import is_null


@dataclass
class ColumnInfo:
    """One column of a table: name, SQL type, NOT NULL flag."""

    name: str
    datatype: DataType
    not_null: bool = False


@dataclass
class ColumnStats:
    """ANALYZE-collected statistics for one column."""

    ndv: int = 0
    null_count: int = 0
    min_value: Any = None
    max_value: Any = None


@dataclass
class TableStats:
    """ANALYZE-collected statistics for one table."""

    row_count: int = 0
    page_count: int = 0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    analyzed: bool = False


Storage = Union[HeapTable, IndexOrganizedTable]


@dataclass
class TableDef:
    """Catalog record of a table."""

    name: str
    columns: List[ColumnInfo]
    storage: Storage
    primary_key: List[str] = field(default_factory=list)
    is_iot: bool = False
    #: a data-dictionary view, built afresh by each lookup: read-only
    is_view: bool = False
    #: the table's indexes by name, in creation order: what
    #: :meth:`Catalog.indexes_on` answers from
    index_names: List[str] = field(default_factory=list)
    stats: TableStats = field(default_factory=TableStats)
    #: the user who created the table ("main" is the superuser)
    owner: str = "main"

    @property
    def key(self) -> str:
        return self.name.lower()

    def column_position(self, column: str) -> int:
        """0-based position of ``column`` (case-insensitive)."""
        target = column.lower()
        for i, col in enumerate(self.columns):
            if col.name.lower() == target:
                return i
        raise CatalogError(f"table {self.name} has no column {column!r}")

    def column_info(self, column: str) -> ColumnInfo:
        """The :class:`ColumnInfo` for ``column``."""
        return self.columns[self.column_position(column)]

    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]


def index_key(row: List[Any], positions: List[int]) -> Any:
    """The native-index key for ``row`` restricted to ``positions``.

    Returns None for rows with any NULL key column (NULL keys are not
    indexed, Oracle semantics); a bare value for single-column keys.
    """
    values = [row[p] for p in positions]
    if any(map(is_null, values)):
        return None
    return values[0] if len(values) == 1 else tuple(values)


def native_structure(name: str, kind: str, unique: bool,
                     stats: Any) -> BTree:
    """The empty structure behind native index ``name``: a B-tree whose
    node visits count as ``stats.logical_reads``.  ``"btree"`` is the
    one native kind; any other raises :class:`CatalogError`."""
    if kind != "btree":
        raise CatalogError(
            f"index {name} has unknown native index kind {kind!r}")
    return BTree(unique=unique, touch=stats.count_reads)


@dataclass
class IndexDef:
    """Catalog record of an index — a native B-tree (``kind="btree"``)
    or a domain index (``kind="domain"``)."""

    name: str
    table_name: str
    column_names: Tuple[str, ...]
    kind: str
    unique: bool = False
    structure: Optional[BTree] = None
    domain: Optional[DomainIndex] = None

    @property
    def key(self) -> str:
        return self.name.lower()

    @property
    def is_domain(self) -> bool:
        return self.kind == "domain"

    def build_native(self, table: TableDef) -> None:
        """Bulk-load the native structure from ``table``'s current rows,
        replacing what it held."""
        positions = [table.column_position(c) for c in self.column_names]
        width = range(len(positions))
        keys: List[Any] = []
        rowids: List[Any] = []
        for batch, columns in table.storage.scan_batches():
            for rowid, values in zip(batch, zip(*[columns[p]
                                                  for p in positions])):
                key = index_key(values, width)
                if key is not None:
                    keys.append(key)
                    rowids.append(rowid)
        # two columns, not a (key, rowid) pair per entry for the
        # collector to count
        self.structure.bulk_load_columns(keys, rowids)


@dataclass
class SQLFunction:
    """A registered SQL-visible function backed by a Python callable.

    ``cost`` is the optimizer's per-invocation CPU estimate, used when
    deciding functional vs index evaluation of operators (§2.4.2).
    """

    name: str
    fn: Callable[..., Any]
    cost: float = 1.0
    aggregate: bool = False

    @property
    def key(self) -> str:
        return self.name.lower()


class Catalog:
    """All schema objects of one database.

    ``version`` is a monotonic counter bumped on every schema change —
    DDL, ANALYZE, operator/indextype (re)registration — and is the
    invalidation signal for the shared plan cache: a compiled plan is
    only reusable while the catalog version it was built against is
    still current.
    """

    def __init__(self):
        #: latch serializing schema mutation and dict-iterating reads.
        #: Point lookups (``tables[key]``) stay latch-free — dict access
        #: is atomic under the GIL and DDL replaces entries wholesale.
        #: First in the engine latch order: catalog → plan cache →
        #: lock-manager internals → buffer cache.
        self.latch = threading.RLock()
        #: monotonic schema version (plan-cache invalidation signal)
        self.version = 0
        self.tables: Dict[str, TableDef] = {}
        self.indexes: Dict[str, IndexDef] = {}
        self.operators: Dict[str, Operator] = {}
        self.indextypes: Dict[str, Indextype] = {}
        self.functions: Dict[str, SQLFunction] = {}
        self.object_types: Dict[str, ObjectType] = {}
        #: registered IndexMethods implementation classes, by name
        self.method_types: Dict[str, Type[IndexMethods]] = {}
        #: registered StatsMethods classes, by name
        self.stats_types: Dict[str, Type[StatsMethods]] = {}
        #: domain-index statistics collected via ODCIStatsCollect
        self.domain_index_stats: Dict[str, dict] = {}
        #: function name -> stats type name (ASSOCIATE ... WITH FUNCTIONS)
        self.function_stats: Dict[str, str] = {}
        #: (user, table_key) -> set of granted privileges (§2.5)
        self.grants: Dict[Tuple[str, str], set] = {}
        #: optional name -> TableDef hook for synthesized dictionary views
        self.view_provider = None

    # -- schema versioning ----------------------------------------------

    def bump_version(self) -> int:
        """Advance the schema version (invalidates cached plans)."""
        with self.latch:
            self.version += 1
            return self.version

    # -- privileges ------------------------------------------------------

    def grant(self, user: str, table_key: str, privileges) -> None:
        """Add table privileges for ``user``."""
        key = (user.lower(), table_key.lower())
        with self.latch:
            self.grants.setdefault(key, set()).update(privileges)

    def revoke(self, user: str, table_key: str, privileges) -> None:
        """Remove table privileges for ``user``."""
        key = (user.lower(), table_key.lower())
        with self.latch:
            held = self.grants.get(key)
            if held is not None:
                held.difference_update(privileges)
                if not held:
                    del self.grants[key]

    def has_grant(self, user: str, table_key: str, privilege: str) -> bool:
        """True when ``user`` holds ``privilege`` on the table."""
        return privilege in self.grants.get(
            (user.lower(), table_key.lower()), ())

    # -- tables ---------------------------------------------------------

    def add_table(self, table: TableDef) -> None:
        with self.latch:
            if table.key in self.tables:
                raise CatalogError(f"table {table.name} already exists")
            self.tables[table.key] = table
            self.bump_version()

    def get_table(self, name: str) -> TableDef:
        try:
            return self.tables[name.lower()]
        except KeyError:
            if self.view_provider is not None:
                view = self.view_provider(name)
                if view is not None:
                    return view
            raise CatalogError(f"no such table {name!r}") from None

    def writable_table(self, name: str) -> TableDef:
        """``name``'s table as the target of DML or TRUNCATE: a
        data-dictionary view is refused before any row is read (each
        lookup builds the view afresh, so no row of it could change)."""
        table = self.get_table(name)
        if table.is_view:
            raise StorageError(f"{table.name} is a data dictionary view: "
                               "views are read-only")
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def drop_table(self, name: str) -> TableDef:
        with self.latch:
            table = self.get_table(name)
            del self.tables[table.key]
            self.bump_version()
            return table

    def indexes_on(self, table_name: str) -> List[IndexDef]:
        """Every index defined on ``table_name``, in creation order
        (snapshot list; none on a view or an unknown name)."""
        table = self.tables.get(table_name.lower())
        if table is None:
            return []
        indexes = self.indexes
        with self.latch:
            return [indexes[name.lower()] for name in table.index_names]

    # -- indexes ----------------------------------------------------------

    def add_index(self, index: IndexDef) -> None:
        with self.latch:
            if index.key in self.indexes:
                raise CatalogError(f"index {index.name} already exists")
            table = self.tables.get(index.table_name.lower())
            if table is None:  # a view is no table: it takes no index
                raise CatalogError(f"no such table {index.table_name!r}")
            self.indexes[index.key] = index
            table.index_names.append(index.name)
            self.bump_version()

    def get_index(self, name: str) -> IndexDef:
        try:
            return self.indexes[name.lower()]
        except KeyError:
            raise CatalogError(f"no such index {name!r}") from None

    def has_index(self, name: str) -> bool:
        return name.lower() in self.indexes

    def set_index_state(self, name: str, state: "IndexState") -> IndexDef:
        """Transition a domain index's health state.

        Every transition bumps the catalog version so cached plans that
        chose (or deliberately avoided) the index are invalidated — a
        plan compiled against a VALID index must not survive the index
        going UNUSABLE, and vice versa after REBUILD.
        """
        with self.latch:
            index = self.get_index(name)
            if index.domain is None:
                raise CatalogError(
                    f"index {index.name} is not a domain index")
            if index.domain.state is not state:
                index.domain.state = state
                self.bump_version()
            return index

    def drop_index(self, name: str) -> IndexDef:
        with self.latch:
            index = self.get_index(name)
            del self.indexes[index.key]
            table = self.tables.get(index.table_name.lower())
            if table and index.name in table.index_names:
                table.index_names.remove(index.name)
            self.domain_index_stats.pop(index.key, None)
            self.bump_version()
            return index

    # -- operators -----------------------------------------------------------

    def add_operator(self, operator: Operator) -> None:
        with self.latch:
            if operator.key in self.operators:
                raise CatalogError(
                    f"operator {operator.name} already exists")
            self.operators[operator.key] = operator
            self.bump_version()

    def get_operator(self, name: str) -> Operator:
        try:
            return self.operators[name.lower()]
        except KeyError:
            raise CatalogError(f"no such operator {name!r}") from None

    def has_operator(self, name: str) -> bool:
        return name.lower() in self.operators

    def drop_operator(self, name: str) -> Operator:
        with self.latch:
            operator = self.get_operator(name)
            del self.operators[operator.key]
            self.bump_version()
            return operator

    # -- indextypes -------------------------------------------------------------

    def add_indextype(self, indextype: Indextype) -> None:
        """Register ``indextype`` and open the restored domain indexes
        that name it (an application re-registers its indextypes after
        restart recovery restored their indexes)."""
        with self.latch:
            if indextype.key in self.indextypes:
                raise CatalogError(
                    f"indextype {indextype.name} already exists")
            self.indextypes[indextype.key] = indextype
            for index in self.indexes.values():
                domain = index.domain
                if (domain is not None and
                        domain.indextype_name.lower() == indextype.key):
                    self.open_domain_index(domain)
            self.bump_version()

    def open_domain_index(self, domain: DomainIndex) -> None:
        """Hold a restored domain index to its routines' data format.

        An index whose recorded ``format_version`` differs from its
        indextype's ``IndexMethods.format_version`` was written by other
        code: its stored keys may not be the ones today's routines look
        up, so it goes UNUSABLE (a FAILED one stays FAILED) carrying an
        :class:`IndexFormatError` until REBUILD.  A no-op until both the
        indextype and its implementation class are registered.
        """
        indextype = self.indextypes.get(domain.indextype_name.lower())
        methods = indextype and self.method_types.get(
            indextype.implementation_name.lower())
        if methods is None or domain.format_version == methods.format_version:
            return
        domain.error = IndexFormatError(domain.name, domain.format_version,
                                        methods.format_version)
        if domain.state is not IndexState.FAILED:
            domain.state = IndexState.UNUSABLE
        self.bump_version()

    def get_indextype(self, name: str) -> Indextype:
        try:
            return self.indextypes[name.lower()]
        except KeyError:
            raise CatalogError(f"no such indextype {name!r}") from None

    def has_indextype(self, name: str) -> bool:
        return name.lower() in self.indextypes

    def drop_indextype(self, name: str) -> Indextype:
        with self.latch:
            return self._drop_indextype(name)

    def _drop_indextype(self, name: str) -> Indextype:
        indextype = self.get_indextype(name)
        used_by = [idx.name for idx in self.indexes.values()
                   if idx.is_domain and idx.domain
                   and idx.domain.indextype_name.lower() == indextype.key]
        if used_by:
            raise CatalogError(
                f"indextype {indextype.name} is used by domain index(es) "
                f"{used_by}; drop them first (or use FORCE)")
        del self.indextypes[indextype.key]
        self.bump_version()
        return indextype

    def indextypes_supporting(self, operator_name: str) -> List[Indextype]:
        """Every indextype that lists ``operator_name`` as supported."""
        with self.latch:
            return [it for it in self.indextypes.values()
                    if it.supports(operator_name)]

    # -- functions -------------------------------------------------------------

    def add_function(self, function: SQLFunction) -> None:
        with self.latch:
            self.functions[function.key] = function
            self.bump_version()

    def get_function(self, name: str) -> SQLFunction:
        try:
            return self.functions[name.lower()]
        except KeyError:
            raise CatalogError(f"no such function {name!r}") from None

    def has_function(self, name: str) -> bool:
        return name.lower() in self.functions

    # -- object types ----------------------------------------------------------

    def add_object_type(self, object_type: ObjectType) -> None:
        key = object_type.type_name.lower()
        with self.latch:
            if key in self.object_types:
                raise CatalogError(
                    f"type {object_type.type_name} already exists")
            self.object_types[key] = object_type
            self.bump_version()

    def get_object_type(self, name: str) -> ObjectType:
        try:
            return self.object_types[name.lower()]
        except KeyError:
            raise CatalogError(f"no such object type {name!r}") from None

    def has_object_type(self, name: str) -> bool:
        return name.lower() in self.object_types

    # -- implementation registries -----------------------------------------------

    def register_method_type(self, name: str,
                             cls: Type[IndexMethods]) -> None:
        """Register an ODCIIndex implementation class under ``name``."""
        if not (isinstance(cls, type) and issubclass(cls, IndexMethods)):
            raise CatalogError(
                f"{name}: implementation must subclass IndexMethods")
        unwritten = cls.unwritten_routines()
        if unwritten:
            raise CatalogError(
                f"{name}: implementation writes neither form of "
                f"{', '.join(unwritten)}")
        with self.latch:
            self.method_types[name.lower()] = cls
            self.bump_version()

    def get_method_type(self, name: str) -> Type[IndexMethods]:
        try:
            return self.method_types[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no registered implementation type {name!r}; call "
                f"db.register_methods({name!r}, cls) first") from None

    def register_stats_type(self, name: str, cls: Type[StatsMethods]) -> None:
        """Register an ODCIStats implementation class under ``name``."""
        if not (isinstance(cls, type) and issubclass(cls, StatsMethods)):
            raise CatalogError(
                f"{name}: statistics type must subclass StatsMethods")
        with self.latch:
            self.stats_types[name.lower()] = cls
            self.bump_version()

    def get_stats_type(self, name: str) -> Type[StatsMethods]:
        try:
            return self.stats_types[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no registered statistics type {name!r}") from None
