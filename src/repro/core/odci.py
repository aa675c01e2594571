"""The ODCIIndex interface: what a cartridge implements.

Section 2.2.3 of the paper defines three groups of routines a cartridge
supplies as methods of a type:

* **definition** — ``ODCIIndexCreate/Alter/Truncate/Drop``,
* **maintenance** — ``ODCIIndexInsert/Update/Delete``,
* **scan** — ``ODCIIndexStart/Fetch/Close``.

:class:`IndexMethods` is that type.  The server (the session layer)
instantiates the registered class once per domain index and invokes the
routines at the appropriate points, passing an :class:`ODCIIndexInfo`
describing the index, an :class:`ODCIEnv` giving access to server
callbacks, and — for scans — an :class:`ODCIPredInfo` /
:class:`ODCIQueryInfo` pair describing the operator predicate being
evaluated, exactly as in the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import ODCIError


@dataclass
class ODCIIndexInfo:
    """Metadata describing the domain index an ODCI routine operates on.

    "The domain index metadata information such as the index name, table
    name, and names of the indexed columns and their data types, are
    passed in as arguments to all the ODCIIndex routines." (§2.2.3)
    """

    index_name: str
    index_schema: str
    table_name: str
    column_names: Tuple[str, ...]
    column_types: Tuple[Any, ...]
    parameters: str = ""


@dataclass
class ODCIPredInfo:
    """The operator predicate an index scan must evaluate.

    §2.4.2: predicates of the form ``op(...) relop <value>`` are the
    candidates for index-scan evaluation; the bounds on the operator's
    return value arrive here as ``lower_bound``/``upper_bound`` (either
    may be None for an open side).
    """

    operator_name: str
    operator_args: Tuple[Any, ...] = ()
    lower_bound: Optional[Any] = None
    upper_bound: Optional[Any] = None
    include_lower: bool = True
    include_upper: bool = True
    flags: frozenset = frozenset()

    def with_args(self, operator_args: Tuple[Any, ...]) -> "ODCIPredInfo":
        """A copy of this descriptor carrying per-execution argument values.

        Plans live in the shared plan cache, so the descriptor attached
        to a plan node is immutable template state; each execution gets
        its own copy with that run's evaluated operator arguments.
        """
        return replace(self, operator_args=operator_args)

    def bound_accepts(self, value: Any) -> bool:
        """True when ``value`` satisfies the return-value bounds."""
        if self.lower_bound is not None:
            if value < self.lower_bound:
                return False
            if not self.include_lower and value == self.lower_bound:
                return False
        if self.upper_bound is not None:
            if value > self.upper_bound:
                return False
            if not self.include_upper and value == self.upper_bound:
                return False
        return True


@dataclass
class ODCIQueryInfo:
    """Query-level context for a scan.

    ``first_rows`` tells the cartridge the optimizer wants streaming
    behaviour (time-to-first-row); ``ancillary_label`` is set when an
    ancillary operator (e.g. ``Score``) will consume auxiliary output of
    this scan (§2.4.2).
    """

    first_rows: bool = False
    ancillary_label: Optional[int] = None


@dataclass
class FetchResult:
    """Result of one ``ODCIIndexFetch`` call.

    ``rowids`` holds up to the requested batch; ``aux`` optionally holds
    one auxiliary value per rowid (consumed by ancillary operators).
    ``done`` is the null-rowid terminator of the paper: "The end of the
    scan can be indicated by returning a null row identifier."
    """

    rowids: List[Any] = field(default_factory=list)
    aux: Optional[List[Any]] = None
    done: bool = False


class ODCIEnv:
    """Execution environment passed to every ODCI routine.

    ``callback`` is the restricted SQL session (server callbacks, §2.5);
    ``workspace`` allocates return-handle scan state (§2.2.3); ``stats``
    exposes the shared I/O counters so cartridges can account index work.
    There is no build-mode flag: ``ODCIIndexCreate`` always builds from
    the whole base table, with whatever bulk construction the cartridge
    has.
    """

    def __init__(self, callback: Any, workspace: Any, stats: Any,
                 trace: Optional[Any] = None, invoker: str = "",
                 definer: str = "", lobs: Any = None, files: Any = None,
                 events: Any = None):
        self.callback = callback
        self.workspace = workspace
        self.stats = stats
        self._trace = trace
        self.invoker = invoker
        self.definer = definer
        #: LOB manager — index data "stored ... in Large Objects (LOBs)"
        self.lobs = lobs
        #: external file store — index data "stored outside the database"
        self.files = files
        #: database-event manager (§5's commit/rollback hooks)
        self.events = events

    @property
    def trace_enabled(self) -> bool:
        """Whether trace lines are being recorded.

        Hot paths check this before *building* a trace message, so the
        per-row f-string cost disappears entirely when tracing is off.
        """
        return self._trace is not None

    def trace(self, message: str) -> None:
        """Record a framework-trace line (architecture figure F1)."""
        if self._trace is not None:
            self._trace.append(message)


@dataclass(frozen=True)
class IndexTable:
    """A table an indextype keeps index data in: ``<index>_<suffix>``,
    with ``columns`` as its column and key list, an IOT when
    ``organization_index``, and a B-tree ``<table>_<column>`` on each
    column in ``indexes``."""

    suffix: str
    columns: str
    organization_index: bool = False
    indexes: Tuple[str, ...] = ()

    def name(self, ia: ODCIIndexInfo) -> str:
        return f"{ia.index_name.lower()}_{self.suffix}"


def base_table_rows(ia: ODCIIndexInfo, env: ODCIEnv) -> List[Any]:
    """The indexed table's ``(rowid, value...)`` rows: what a build loads."""
    return env.callback.query(
        f"SELECT rowid, {', '.join(ia.column_names)} FROM {ia.table_name}")


class IndexMethods(abc.ABC):
    """Base class for an indextype's implementation type.

    Cartridge developers subclass this and register the subclass with
    the database (``db.register_methods``); ``CREATE INDEXTYPE ... USING
    <name>`` then ties an indextype to it.  Routines the paper makes
    optional have default implementations, and :meth:`index_start` is
    the one abstract routine.

    A cartridge declares the tables its index keeps
    (:attr:`index_tables`); the definition defaults create, fill,
    truncate and drop them.  Insert and delete are each written in
    their scalar or their array form; update defaults to deleting the
    old entries and inserting the new ones.

    Scan protocol: :meth:`index_start` returns either a scan-context
    object (*return state*) or an integer workspace handle obtained from
    ``env.workspace`` (*return handle*); whatever it returns is passed
    back to :meth:`index_fetch` and :meth:`index_close` (§2.2.3).  When
    that state is a :class:`~repro.core.scan_context.ScanContext`, the
    defaults serve both: Fetch returns its next batch, Close closes it
    and frees the handle.  A cartridge overrides them only for state of
    another kind.
    """

    #: Version of the data these routines write and read.  A domain index
    #: records it at CREATE and REBUILD; one opened under another version
    #: is UNUSABLE (``IndexFormatError``) until ``ALTER INDEX ... REBUILD``.
    #: Bump it whenever what the index stores changes meaning.
    format_version: int = 1

    #: The tables the index keeps its data in; data kept elsewhere (a
    #: LOB, a file, memory) needs definition routines of its own.
    index_tables: Tuple[IndexTable, ...] = ()

    # -- index definition routines -----------------------------------------

    def parse_parameters(self, parameters: str, current: str) -> str:
        """The canonical string of ``parameters`` merged onto ``current``
        (empty at CREATE): the catalog stores it, and every routine
        reads it as ``ia.parameters``.  Raise :class:`ODCIError` for a
        malformed string.  The default, for indextypes without
        parameters, keeps both strings as given."""
        return " ".join(filter(None, (current, parameters)))

    def index_create(self, ia: ODCIIndexInfo, parameters: str,
                     env: ODCIEnv) -> None:
        """ODCIIndexCreate: create the declared tables, then load the
        base table's rows."""
        for table in self.index_tables:
            name = table.name(ia)
            iot = " ORGANIZATION INDEX" if table.organization_index else ""
            env.callback.execute(
                f"CREATE TABLE {name} ({table.columns}){iot}")
            for column in table.indexes:
                env.callback.execute(
                    f"CREATE INDEX {name}_{column} ON {name}({column})")
        self.index_load(ia, base_table_rows(ia, env), env)

    def index_load(self, ia: ODCIIndexInfo, rows: List[Any],
                   env: ODCIEnv) -> None:
        """Fill the new index from the base table's rows: one array
        insert of them all, unless a cartridge has a faster builder."""
        self.index_insert_batch(ia, [(row[0], row[1:]) for row in rows],
                                env)

    def index_alter(self, ia: ODCIIndexInfo, parameters: str,
                    env: ODCIEnv) -> None:
        """ODCIIndexAlter: apply the merged ``ia.parameters`` (default:
        error)."""
        raise ODCIError("ODCIIndexAlter",
                        f"indextype {type(self).__name__} does not support ALTER")

    def index_drop(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        """ODCIIndexDrop: drop the declared tables."""
        for table in self.index_tables:
            env.callback.execute(f"DROP TABLE {table.name(ia)}")

    def index_truncate(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        """ODCIIndexTruncate: empty the declared tables."""
        for table in self.index_tables:
            env.callback.execute(f"TRUNCATE TABLE {table.name(ia)}")

    # -- index maintenance routines ---------------------------------------
    #
    # Each routine has two forms: the paper's scalar one (one row) and an
    # array one (one index's slice of a statement's maintenance queue, in
    # row order, each rowid at most once).  DML always calls the array
    # form, once per index per statement.  A cartridge writes whichever
    # form it runs and the defaults below bridge the other: a scalar
    # routine hands its row to the array routine, an array routine loops
    # the scalar one.  Update needs neither form (see
    # :meth:`index_update_batch`).  ``register_methods`` refuses a class
    # that writes neither form of insert or of delete (see
    # :meth:`unwritten_routines`).

    def index_insert(self, ia: ODCIIndexInfo, rowid: Any, new_values: Sequence[Any],
                     env: ODCIEnv) -> None:
        """ODCIIndexInsert: add entries for a newly inserted row."""
        self.index_insert_batch(ia, [(rowid, new_values)], env)

    def index_delete(self, ia: ODCIIndexInfo, rowid: Any, old_values: Sequence[Any],
                     env: ODCIEnv) -> None:
        """ODCIIndexDelete: remove entries for a deleted row."""
        self.index_delete_batch(ia, [(rowid, old_values)], env)

    def index_update(self, ia: ODCIIndexInfo, rowid: Any,
                     old_values: Sequence[Any], new_values: Sequence[Any],
                     env: ODCIEnv) -> None:
        """ODCIIndexUpdate: replace a row's entries."""
        self.index_update_batch(ia, [(rowid, old_values, new_values)], env)

    def index_insert_batch(self, ia: ODCIIndexInfo,
                           entries: Sequence[Tuple[Any, Sequence[Any]]],
                           env: ODCIEnv) -> None:
        """ODCIIndexInsertBatch: add entries for ``(rowid, new_values)`` pairs."""
        for rowid, new_values in entries:
            self.index_insert(ia, rowid, new_values, env)

    def index_delete_batch(self, ia: ODCIIndexInfo,
                           entries: Sequence[Tuple[Any, Sequence[Any]]],
                           env: ODCIEnv) -> None:
        """ODCIIndexDeleteBatch: remove entries for ``(rowid, old_values)`` pairs."""
        for rowid, old_values in entries:
            self.index_delete(ia, rowid, old_values, env)

    def index_update_batch(
            self, ia: ODCIIndexInfo,
            entries: Sequence[Tuple[Any, Sequence[Any], Sequence[Any]]],
            env: ODCIEnv) -> None:
        """ODCIIndexUpdateBatch: apply ``(rowid, old_values, new_values)``
        tuples.  The default is the paper's delete-old + insert-new
        (§2.2.3): one array delete of every old entry, then one array
        insert of the new ones — safe because a batch holds each rowid
        at most once.  A class that writes the scalar update has it run
        per entry instead."""
        if type(self).index_update is not IndexMethods.index_update:
            for rowid, old_values, new_values in entries:
                self.index_update(ia, rowid, old_values, new_values, env)
            return
        self.index_delete_batch(
            ia, [(rowid, old) for rowid, old, __ in entries], env)
        self.index_insert_batch(
            ia, [(rowid, new) for rowid, __, new in entries], env)

    @classmethod
    def unwritten_routines(cls) -> List[str]:
        """The insert/delete routines ``cls`` writes in neither form:
        for those the two defaults would only call each other."""
        return [f"{scalar}/{scalar}_batch"
                for scalar in ("index_insert", "index_delete")
                if getattr(cls, scalar) is getattr(IndexMethods, scalar)
                and getattr(cls, f"{scalar}_batch")
                is getattr(IndexMethods, f"{scalar}_batch")]

    # -- index scan routines -------------------------------------------------

    @abc.abstractmethod
    def index_start(self, ia: ODCIIndexInfo, op_info: ODCIPredInfo,
                    query_info: ODCIQueryInfo, env: ODCIEnv) -> Any:
        """ODCIIndexStart: begin a scan; returns scan state or a handle."""

    def index_fetch(self, context: Any, nrows: int, env: ODCIEnv) -> FetchResult:
        """ODCIIndexFetch: return up to ``nrows`` rowids (batch interface)."""
        return _scan_state(context, env).fetch(nrows)

    def index_close(self, context: Any, env: ODCIEnv) -> None:
        """ODCIIndexClose: release scan resources (and the handle)."""
        _scan_state(context, env).close()
        if isinstance(context, int):
            env.workspace.free(context)


def _scan_state(context: Any, env: ODCIEnv) -> Any:
    """The scan state ``index_start`` returned: parked in the workspace
    under an integer handle, or the object itself."""
    if isinstance(context, int):  # return handle
        return env.workspace.resolve(context)
    return context  # return state
