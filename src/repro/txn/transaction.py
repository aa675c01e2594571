"""Transactions with undo logging.

Section 2.5 of the paper: "transactional semantics are also
automatically ensured for the user index data, if the index data resides
within the database.  Updates to the index data are within the same
transactional boundaries as updates to the base table."  That property
falls out here because every table mutation — base table *or* a
cartridge's index table, mutated through server callbacks — records an
undo action in the *same* transaction, and rollback replays them in
reverse.

Index data stored outside the database (the file store) records no undo,
reproducing §5's gap.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.errors import TransactionError

UndoAction = Callable[..., None]


class Transaction:
    """One transaction: an id, an undo log, and a savepoint stack."""

    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        self.active = True
        #: ``(action, *args)`` entries, run newest first
        self._undo: List[Tuple[Any, ...]] = []
        self._savepoints: dict = {}
        #: row versions created by this txn; commit stamps them with the
        #: commit SCN (see :mod:`repro.txn.mvcc`)
        self.versions: list = []
        #: rows this txn bulk-loaded under a fence, which commit counts
        #: toward the next prune pass as it counts stamped versions
        self.loaded = 0
        #: transaction-duration snapshot (SET TRANSACTION READ ONLY /
        #: ISOLATION LEVEL SERIALIZABLE); None → statement snapshots
        self.snapshot = None
        self.read_only = False
        #: LSN of this txn's most recent WAL record (undo chain head);
        #: None until the txn logs something
        self.last_lsn: Optional[int] = None
        #: True once any WAL record was written — read-only transactions
        #: stay unlogged and skip the commit fsync entirely
        self.logged = False
        #: SCN assigned at commit (set by MVCCManager.commit_transaction)
        self.commit_scn: Optional[int] = None

    def track_version(self, version) -> None:
        """Register a row version for commit-time SCN stamping."""
        self.versions.append(version)

    def record_undo(self, action: UndoAction, *args: Any) -> None:
        """Register ``action(*args)`` to run on rollback.

        An entry is one tuple, where a closure would be a function, its
        cells and their tuple, and a bound method or ``partial`` one
        more object: a large transaction's undo log is that much less
        for the cyclic collector to walk.  A row change leaves exactly
        one entry (the DML layer's ``_undo_change``), which restores the
        slot, logs the compensation record on a durable engine and
        unlinks the row version.
        """
        if not self.active:
            raise TransactionError("transaction is not active")
        self._undo.append((action, *args))

    @property
    def undo_depth(self) -> int:
        """Number of pending undo actions (diagnostics/tests)."""
        return len(self._undo)

    def savepoint(self, name: str) -> None:
        """Mark the current undo position under ``name``."""
        self._savepoints[name.lower()] = len(self._undo)

    def rollback_to_savepoint(self, name: str) -> None:
        """Undo everything recorded after savepoint ``name``."""
        mark = self._savepoints.get(name.lower())
        if mark is None:
            raise TransactionError(f"no savepoint {name!r}")
        self._unwind(mark)
        # later savepoints are now invalid
        for key in [k for k, v in self._savepoints.items() if v > mark]:
            del self._savepoints[key]

    def commit(self) -> None:
        """Discard the undo log; changes become permanent."""
        self._require_active()
        self._undo.clear()
        self._savepoints.clear()
        self.versions = []
        self.snapshot = None
        self.active = False

    def rollback(self) -> None:
        """Run the undo log in reverse, restoring the pre-transaction state."""
        self._require_active()
        self._unwind(0)
        self._savepoints.clear()
        self.versions = []
        self.snapshot = None
        self.active = False

    def _unwind(self, mark: int) -> None:
        while len(self._undo) > mark:
            action, *args = self._undo.pop()
            action(*args)

    def _require_active(self) -> None:
        if not self.active:
            raise TransactionError("transaction is not active")


class TransactionManager:
    """Hands out transactions and tracks the current one.

    One manager per *session*: at most one transaction is current per
    session.  DML with no explicit transaction runs in autocommit (a
    transaction is opened and committed around the statement by the
    session layer).  Sessions sharing an engine pass the engine's
    ``id_allocator`` so txn ids are globally unique and ordered —
    deadlock victim selection ("youngest dies") compares them across
    sessions.  A bare ``TransactionManager()`` allocates locally.
    """

    def __init__(self, id_allocator: Optional[Callable[[], int]] = None):
        self._next_id = 1
        self._allocate = id_allocator or self._allocate_local
        self.current: Optional[Transaction] = None

    def _allocate_local(self) -> int:
        txn_id = self._next_id
        self._next_id += 1
        return txn_id

    def begin(self) -> Transaction:
        """Start a transaction; error if one is already open."""
        if self.current is not None and self.current.active:
            raise TransactionError("a transaction is already active")
        txn = Transaction(self._allocate())
        self.current = txn
        return txn

    def ensure(self) -> Transaction:
        """Return the active transaction, starting one when none is open."""
        if self.current is None or not self.current.active:
            return self.begin()
        return self.current

    @property
    def in_transaction(self) -> bool:
        """True when a transaction is open."""
        return self.current is not None and self.current.active
