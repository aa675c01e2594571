"""Server callbacks: SQL executed by indextype routines, with restrictions.

Section 2.5: "The index routines typically use SQL to access and
manipulate index data.  The SQL statements executed by the indexing logic
are referred to as server callbacks."  And the restrictions: "Index
maintenance routines can not execute DDL statements.  Also, these
routines cannot update the base table on which the domain index is
created.  Index scan routines can only execute SQL query statements.
There are no restrictions on the index definition routines."

:class:`CallbackSession` wraps the database session and enforces exactly
those rules per phase, raising :class:`~repro.errors.CallbackViolation`
on a breach.  Callbacks run inside the invoking statement's transaction,
which is how index data stored in database tables gets transactional
rollback "for free" (§2.5).
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.errors import CallbackViolation
from repro.sql import ast_nodes as ast


class CallbackPhase(enum.Enum):
    """Which class of ODCI routine is currently executing."""

    DEFINITION = "definition"
    MAINTENANCE = "maintenance"
    SCAN = "scan"


_DDL_TYPES = (
    ast.CreateTable, ast.DropTable, ast.TruncateTable,
    ast.CreateIndex, ast.AlterIndex, ast.DropIndex,
    ast.CreateOperator, ast.DropOperator,
    ast.CreateIndextype, ast.DropIndextype,
    ast.CreateType, ast.AssociateStatistics, ast.GrantStatement,
)

_DML_TYPES = (ast.Insert, ast.Update, ast.Delete)

_QUERY_TYPES = (ast.Select, ast.Explain)

_TXN_TYPES = (ast.Commit, ast.Rollback, ast.BeginTransaction, ast.Savepoint,
              ast.SetTransaction)


class CallbackSession:
    """A phase-restricted SQL session handed to ODCI routines via ODCIEnv."""

    def __init__(self, database: Any, phase: CallbackPhase,
                 base_table: Optional[str] = None, definer: str = "main",
                 snapshot: Optional[Any] = None):
        self._db = database
        self.phase = phase
        self.base_table = (base_table or "").lower()
        self.definer = definer
        #: the invoking statement's MVCC snapshot (scan phase): every
        #: callback query this session runs resolves against it, so
        #: ODCIIndexStart/Fetch observe one frozen database state
        self.snapshot = snapshot

    def execute(self, sql: str, params: Optional[Any] = None):
        """Run a callback statement after phase validation.

        ``params`` supplies bind-variable values (the PL/SQL-bind
        analogue), which is how rowids and other non-literal values
        travel through callback SQL.  Returns the same cursor a
        top-level ``db.execute`` returns.

        Callback SQL shares the server's plan cache, DML included, so
        maintenance DML is parsed and planned once per statement shape.
        Phase validation runs via the pipeline's ``check`` hook on every
        execution: after Parse on a miss, and against the cached parsed
        statement on a hit.
        """
        # §2.5 definer rights: "Indextype routines always execute under
        # the privileges of the owner of the index."
        with self._db.as_user(self.definer):
            with self._db._pin_snapshot(self.snapshot):
                return self._db.pipeline.execute(sql, params,
                                                 check=self._check)

    # convenience wrappers used heavily by the cartridges ----------------

    def query(self, sql: str, params: Optional[Any] = None):
        """Execute a SELECT and return all rows."""
        return self.execute(sql, params).fetchall()

    def query_one(self, sql: str, params: Optional[Any] = None):
        """Execute a SELECT and return the single row (or None)."""
        rows = self.execute(sql, params).fetchall()
        return rows[0] if rows else None

    def fetch_row(self, table_name: str, rowid: Any):
        """Table access by rowid (a read — allowed in every phase).

        Returns the row's values or None for a dead rowid.  This is how
        a scan routine applies an exact filter to primary-filter
        candidates without re-scanning the base table.
        """
        table = self._db.catalog.get_table(table_name)
        return self._fetch(table.storage, rowid)

    def fetch_value(self, table_name: str, rowid: Any, column: str):
        """Read one column of one row by rowid (None for a dead rowid)."""
        table = self._db.catalog.get_table(table_name)
        row = self._fetch(table.storage, rowid)
        if row is None:
            return None
        return row[table.column_position(column)]

    def _fetch(self, storage: Any, rowid: Any):
        """One rowid's row as the pinned snapshot sees it (current mode
        when none is pinned), or None: a batch of one."""
        __, rows = storage.fetch_batch([rowid], self.snapshot)
        return rows[0] if rows else None

    def insert_row(self, table_name: str, values: Any):
        """Bulk-bind insert of one row of Python values (maintenance DML)."""
        fake = ast.Insert(table=table_name, columns=None, rows=[])
        self._check(fake, f"INSERT INTO {table_name} (bulk bind)")
        with self._db.as_user(self.definer):
            return self._db.insert_row(table_name, values)

    def insert_rows(self, table_name: str, rows: Any):
        """Bulk-bind insert of many rows (batch interface, §2.5)."""
        fake = ast.Insert(table=table_name, columns=None, rows=[])
        self._check(fake, f"INSERT INTO {table_name} (bulk bind)")
        with self._db.as_user(self.definer):
            return self._db.insert_rows(table_name, rows)

    def delete_rows(self, table_name: str, keys: Any):
        """Bulk-bind delete by full primary key from an index-organized
        index table (the mirror of :meth:`insert_rows`).

        How a maintenance routine removes a row's entries: it derives
        their keys from the old column value the framework hands it and
        deletes exactly those, so the cost is the row's entries, not
        the index.  Keys that are not in the table are skipped; returns
        the number of rows deleted.
        """
        fake = ast.Delete(table=table_name, alias=None, where=None)
        self._check(fake, f"DELETE FROM {table_name} (bulk bind)")
        with self._db.as_user(self.definer):
            return self._db.delete_rows(table_name, keys)

    def direct_load(self, table_name: str, rows: Any, payloads: Any = None,
                    presorted: bool = False):
        """Direct-path load of cartridge-built rows into an index table.

        The analogue of a direct-path insert: skips per-row type
        validation because the rows were derived from already-validated
        base-table values by the calling routine.  An index-organized
        table takes the load as two aligned columns — ``rows`` the key
        tuples, ``payloads`` the payload tuples — so the routine builds
        no row per entry; only each column's arity is checked.
        ``presorted`` promises strictly increasing key order (verified
        by the storage layer).
        """
        fake = ast.Insert(table=table_name, columns=None, rows=[])
        self._check(fake, f"INSERT INTO {table_name} (direct path)")
        with self._db.as_user(self.definer):
            return self._db.direct_load(table_name, rows, payloads,
                                        presorted)

    # -- validation ---------------------------------------------------------

    def _check(self, statement: ast.Statement, sql: str) -> None:
        if isinstance(statement, _TXN_TYPES):
            raise CallbackViolation(
                f"{self.phase.value} callback may not control transactions: "
                f"{sql.strip()[:60]!r}")
        if self.phase is CallbackPhase.DEFINITION:
            return  # "no restrictions on the index definition routines"
        if self.phase is CallbackPhase.SCAN:
            if not isinstance(statement, _QUERY_TYPES):
                raise CallbackViolation(
                    "index scan routines can only execute SQL query "
                    f"statements: {sql.strip()[:60]!r}")
            return
        # maintenance phase
        if isinstance(statement, _DDL_TYPES):
            raise CallbackViolation(
                "index maintenance routines cannot execute DDL statements: "
                f"{sql.strip()[:60]!r}")
        if isinstance(statement, _DML_TYPES):
            target = statement.table.lower()
            if self.base_table and target == self.base_table:
                raise CallbackViolation(
                    "index maintenance routines cannot update the base table "
                    f"{self.base_table!r} on which the domain index is created")
