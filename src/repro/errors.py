"""Exception hierarchy for the repro engine.

Every error raised by the engine derives from :class:`DatabaseError`, so
applications can catch one base class.  The subclasses mirror the error
categories a real server distinguishes: syntax/parse errors, semantic
(catalog) errors, runtime evaluation errors, transaction errors, and the
extensible-indexing specific errors the paper's framework defines
(callback restriction violations, ODCI routine failures).
"""

from __future__ import annotations

from typing import Optional, Sequence


class DatabaseError(Exception):
    """Base class for all errors raised by the repro engine."""


class ParseError(DatabaseError):
    """SQL text could not be lexed or parsed."""

    def __init__(self, message: str, position: int = -1, sql: str = ""):
        super().__init__(message)
        self.position = position
        self.sql = sql

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position >= 0 and self.sql:
            snippet = self.sql[max(0, self.position - 20):self.position + 20]
            return f"{base} (near position {self.position}: ...{snippet!r}...)"
        return base


class CatalogError(DatabaseError):
    """A schema object is missing, duplicated, or used inconsistently."""


class TypeMismatchError(DatabaseError):
    """A value or expression has the wrong SQL type for its context."""


class ConstraintError(DatabaseError):
    """A declared constraint (NOT NULL, UNIQUE, PRIMARY KEY) was violated."""


class ExecutionError(DatabaseError):
    """A runtime failure while executing a statement."""


class PrivilegeError(DatabaseError):
    """The session user lacks the privilege for the attempted operation."""


class TransactionError(DatabaseError):
    """Illegal transaction state transition or conflicting lock request."""


class LockTimeoutError(TransactionError):
    """A lock could not be acquired within the requested timeout."""


class DeadlockError(TransactionError):
    """A lock wait would never finish: the wait-for graph has a cycle.

    The lock manager breaks the cycle by dooming its youngest
    transaction (largest txn id); that transaction's pending ``acquire``
    raises this error.  Oracle semantics (ORA-00060): the *statement* is
    rolled back, the transaction stays open, and the application is
    expected to roll back or retry.
    """

    def __init__(self, message: str, victim: Optional[int] = None,
                 cycle: Sequence[int] = ()):
        super().__init__(message)
        #: txn id chosen as the deadlock victim
        self.victim = victim
        #: txn ids on the wait-for cycle that was broken
        self.cycle = tuple(cycle)


class StorageError(DatabaseError):
    """Low-level storage failure (bad rowid, LOB out of range, ...)."""


class InvalidRowIdError(StorageError):
    """A rowid does not identify a live row."""


class WALError(StorageError):
    """The write-ahead log (or its device) failed.

    Raised on log-device I/O errors and on any operation attempted
    after the log device has failed: like Oracle after an LGWR error,
    the instance cannot guarantee durability anymore, so it refuses
    further work until the process restarts and runs recovery.
    """


# ---------------------------------------------------------------------------
# Extensible-indexing errors (the framework of the paper)
# ---------------------------------------------------------------------------

class ExtensibleIndexError(DatabaseError):
    """Base class for errors raised by the extensible indexing framework."""


class ODCIError(ExtensibleIndexError):
    """A user-supplied ODCIIndex routine raised or returned a failure."""

    def __init__(self, routine: str, message: str):
        super().__init__(f"{routine}: {message}")
        self.routine = routine
        #: the raw message, before the "routine: " prefix — kept so the
        #: exception can be reconstructed (pickled across the network
        #: protocol) through the same constructor
        self.message = message

    def __reduce__(self):
        # Exception's default reduce replays ``args`` (the formatted
        # string) into __init__, which takes (routine, message) — so
        # these errors would not cross a pickle boundary without this.
        return (self.__class__, (self.routine, self.message))


class CallbackError(ODCIError):
    """A cartridge routine failed inside the dispatch seam.

    Every ODCI invocation is routed through the
    :class:`~repro.core.dispatch.CallbackDispatcher`, which catches
    whatever the cartridge raised and re-raises it as this type so the
    server layers above can react (mark the index UNUSABLE, retry the
    statement, degrade to functional evaluation) without ever seeing a
    raw cartridge exception.  ``cause`` preserves the original
    exception; ``index_name`` and ``phase`` say which domain index and
    which routine class (definition/maintenance/scan) was executing.
    """

    def __init__(self, routine: str, message: str, index_name: str = "",
                 phase: str = "", cause: "Exception | None" = None):
        super().__init__(routine, message)
        self.index_name = index_name
        self.phase = phase
        self.cause = cause

    def __reduce__(self):
        return (self.__class__, (self.routine, self.message,
                                 self.index_name, self.phase, self.cause))


class TransientCallbackError(ODCIError):
    """A cartridge routine hit a retryable condition.

    Cartridges (and the fault-injection harness) raise this to signal
    "try again"; the dispatcher retries the routine a bounded,
    deterministic number of times before giving up and wrapping the
    last failure in a :class:`CallbackError`.
    """

    def __init__(self, routine: str, message: str = "transient failure"):
        super().__init__(routine, message)


class CallbackTimeoutError(CallbackError):
    """A cartridge routine exceeded its wall-clock budget.

    The dispatcher checks elapsed time around each call (no threads);
    a routine that returns after its budget has already been spent
    fails the statement exactly as if it had raised.
    """

    def __init__(self, routine: str, index_name: str = "", phase: str = "",
                 budget: float = 0.0, elapsed: float = 0.0):
        super().__init__(
            routine,
            f"exceeded wall-clock budget ({elapsed:.3f}s > {budget:.3f}s)",
            index_name=index_name, phase=phase)
        self.budget = budget
        self.elapsed = elapsed

    def __reduce__(self):
        return (self.__class__, (self.routine, self.index_name, self.phase,
                                 self.budget, self.elapsed))


class FatalCallbackError(CallbackError):
    """A cartridge routine crashed with a non-database exception.

    TypeError/ZeroDivisionError/etc. out of cartridge code indicate a
    bug rather than an index-data condition; they are never retried and
    are reported with the original traceback chained as ``cause``.
    """


class IndexUnusableError(ExtensibleIndexError):
    """DML touched a non-VALID domain index with skip_unusable_indexes off.

    Mirrors ORA-01502: when the session setting is disabled, a statement
    that would need maintenance on an UNUSABLE/FAILED index fails
    instead of silently skipping it.
    """

    def __init__(self, index_name: str, state: str):
        super().__init__(
            f"index {index_name} is {state}; DML requires a VALID index "
            "(or session setting skip_unusable_indexes = TRUE)")
        self.index_name = index_name
        self.state = state

    def __reduce__(self):
        return (self.__class__, (self.index_name, self.state))


class IndexFormatError(IndexUnusableError):
    """A domain index holds data in another format than its routines read.

    Every indextype declares ``IndexMethods.format_version``; a domain
    index records the version that wrote it at CREATE and REBUILD.  An
    index opened under a different version is UNUSABLE (its stored keys
    would silently miss) until ``ALTER INDEX <name> REBUILD`` rewrites it.
    """

    def __init__(self, index_name: str, stored: int, expected: int):
        ExtensibleIndexError.__init__(
            self,
            f"index {index_name} holds format version {stored} data; its "
            f"indextype reads version {expected}: run ALTER INDEX "
            f"{index_name} REBUILD")
        self.index_name = index_name
        self.state = "UNUSABLE"
        self.stored = stored
        self.expected = expected

    def __reduce__(self):
        return (self.__class__,
                (self.index_name, self.stored, self.expected))


class CallbackViolation(ExtensibleIndexError):
    """An indextype routine issued a SQL callback its phase forbids.

    Section 2.5 of the paper: maintenance routines cannot execute DDL nor
    update the base table; scan routines can only execute queries.
    """


class OperatorBindingError(ExtensibleIndexError):
    """No operator binding matches the call-site argument types."""


class IndextypeError(ExtensibleIndexError):
    """Indextype definition or use is inconsistent (unsupported operator,
    missing implementation type, ...)."""
