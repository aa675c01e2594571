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
    """

    def __init__(self, callback: Any, workspace: Any, stats: Any,
                 trace: Optional[Any] = None, invoker: str = "",
                 definer: str = "", lobs: Any = None, files: Any = None,
                 events: Any = None, bulk_build: bool = True):
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
        #: whether CREATE/REBUILD may use the cartridge's bulk-build path
        #: (the ``bulk_index_build`` session setting); cartridges that
        #: support sorted/packed construction consult this and fall back
        #: to row-at-a-time loading when it is off
        self.bulk_build = bulk_build

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


class IndexMethods(abc.ABC):
    """Base class for an indextype's implementation type.

    Cartridge developers subclass this and register the subclass with
    the database (``db.register_methods``); ``CREATE INDEXTYPE ... USING
    <name>`` then ties an indextype to it.  Routines the paper makes
    optional have default implementations; the definition, maintenance,
    and scan cores are abstract.

    Scan protocol: :meth:`index_start` returns either a scan-context
    object (*return state*) or an integer workspace handle obtained from
    ``env.workspace`` (*return handle*); whatever it returns is passed
    back to :meth:`index_fetch` and :meth:`index_close` (§2.2.3).
    """

    # -- index definition routines -----------------------------------------

    @abc.abstractmethod
    def index_create(self, ia: ODCIIndexInfo, parameters: str,
                     env: ODCIEnv) -> None:
        """ODCIIndexCreate: build storage for the index and load existing rows."""

    def index_alter(self, ia: ODCIIndexInfo, parameters: str,
                    env: ODCIEnv) -> None:
        """ODCIIndexAlter: apply a new PARAMETERS string (default: error)."""
        raise ODCIError("ODCIIndexAlter",
                        f"indextype {type(self).__name__} does not support ALTER")

    @abc.abstractmethod
    def index_drop(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        """ODCIIndexDrop: drop the index storage."""

    def index_truncate(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        """ODCIIndexTruncate: clear index data (default: drop + create)."""
        self.index_drop(ia, env)
        self.index_create(ia, ia.parameters, env)

    # -- index maintenance routines ---------------------------------------

    @abc.abstractmethod
    def index_insert(self, ia: ODCIIndexInfo, rowid: Any, new_values: Sequence[Any],
                     env: ODCIEnv) -> None:
        """ODCIIndexInsert: add entries for a newly inserted row."""

    @abc.abstractmethod
    def index_delete(self, ia: ODCIIndexInfo, rowid: Any, old_values: Sequence[Any],
                     env: ODCIEnv) -> None:
        """ODCIIndexDelete: remove entries for a deleted row."""

    def index_update(self, ia: ODCIIndexInfo, rowid: Any,
                     old_values: Sequence[Any], new_values: Sequence[Any],
                     env: ODCIEnv) -> None:
        """ODCIIndexUpdate: default is delete-old + insert-new (§2.2.3)."""
        self.index_delete(ia, rowid, old_values, env)
        self.index_insert(ia, rowid, new_values, env)

    # -- array maintenance routines ----------------------------------------
    #
    # One call per index per *statement* instead of per row.  ``entries``
    # carries the statement's maintenance queue for this index, in row
    # order, each rowid at most once.  The defaults loop the scalar routines, so scalar-only
    # indextypes keep working unchanged; when a cartridge overrides one
    # of these, the dispatcher routes the whole batch through it in a
    # single callback crossing (per-entry fault attribution is preserved
    # by the dispatch seam, not by the cartridge).

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
        """ODCIIndexUpdateBatch: apply ``(rowid, old_values, new_values)`` tuples."""
        for rowid, old_values, new_values in entries:
            self.index_update(ia, rowid, old_values, new_values, env)

    # -- index scan routines -------------------------------------------------

    @abc.abstractmethod
    def index_start(self, ia: ODCIIndexInfo, op_info: ODCIPredInfo,
                    query_info: ODCIQueryInfo, env: ODCIEnv) -> Any:
        """ODCIIndexStart: begin a scan; returns scan state or a handle."""

    @abc.abstractmethod
    def index_fetch(self, context: Any, nrows: int, env: ODCIEnv) -> FetchResult:
        """ODCIIndexFetch: return up to ``nrows`` rowids (batch interface)."""

    @abc.abstractmethod
    def index_close(self, context: Any, env: ODCIEnv) -> None:
        """ODCIIndexClose: release scan resources."""
