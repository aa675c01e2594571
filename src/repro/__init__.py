"""repro — a reproduction of "Extensible Indexing: A Framework for
Integrating Domain-Specific Indexing Schemes into Oracle8i" (ICDE 2000).

The package provides:

* a from-scratch relational engine (:class:`repro.Engine`) with SQL,
  heap/index-organized storage, LOBs, native B-tree indexes,
  transactions, and a cost-based optimizer;
* the paper's extensible indexing framework (:mod:`repro.core`) —
  user-defined operators, indextypes, domain indexes driven through the
  ODCIIndex interface, and extensible optimizer statistics;
* the four cartridge case studies (:mod:`repro.cartridges`): interMedia
  Text, Spatial, Visual Information Retrieval, and the Daylight-style
  chemistry cartridge, each with its pre-Oracle8i baseline.

Quickstart::

    from repro import dbapi
    from repro.cartridges import text

    conn = dbapi.connect()          # "file:/path" for a durable engine
    text.install(conn.session)
    cur = conn.cursor()
    cur.execute("CREATE TABLE employees (name VARCHAR2(128), id INTEGER,"
                " resume VARCHAR2(1024))")
    cur.execute("INSERT INTO employees VALUES ('Amy', 1,"
                " 'Oracle and UNIX expert')")
    cur.execute("CREATE INDEX resume_text_idx ON employees(resume)"
                " INDEXTYPE IS TextIndexType")
    cur.execute("SELECT name FROM employees"
                " WHERE Contains(resume, 'Oracle AND UNIX')")
    rows = cur.fetchall()
    conn.close()                    # also shuts the private engine down
"""

from repro.errors import (
    CallbackError,
    CallbackTimeoutError,
    CallbackViolation,
    CatalogError,
    ConstraintError,
    DatabaseError,
    DeadlockError,
    ExecutionError,
    ExtensibleIndexError,
    FatalCallbackError,
    IndexFormatError,
    IndextypeError,
    IndexUnusableError,
    LockTimeoutError,
    ODCIError,
    OperatorBindingError,
    ParseError,
    PrivilegeError,
    StorageError,
    TransactionError,
    TransientCallbackError,
    TypeMismatchError,
    WALError,
)
from repro.sql.engine import Engine
from repro.sql.session import Cursor, Session
from repro.core import (
    FetchResult,
    IndexMethods,
    IndexTable,
    IndexCost,
    IndexState,
    ODCIEnv,
    ODCIIndexInfo,
    ODCIPredInfo,
    ODCIQueryInfo,
    PrecomputedScan,
    ScanContext,
    StatsMethods,
)
from repro.types.values import NULL

__version__ = "1.0.0"

__all__ = [
    "Engine",
    "Session",
    "Cursor",
    "NULL",
    "IndexMethods",
    "IndexTable",
    "StatsMethods",
    "IndexCost",
    "FetchResult",
    "ODCIEnv",
    "ODCIIndexInfo",
    "ODCIPredInfo",
    "ODCIQueryInfo",
    "ScanContext",
    "PrecomputedScan",
    "DatabaseError",
    "ParseError",
    "CatalogError",
    "TypeMismatchError",
    "ConstraintError",
    "ExecutionError",
    "PrivilegeError",
    "TransactionError",
    "LockTimeoutError",
    "DeadlockError",
    "StorageError",
    "WALError",
    "ExtensibleIndexError",
    "ODCIError",
    "CallbackError",
    "TransientCallbackError",
    "CallbackTimeoutError",
    "FatalCallbackError",
    "IndexUnusableError",
    "IndexFormatError",
    "IndexState",
    "CallbackViolation",
    "OperatorBindingError",
    "IndextypeError",
    "__version__",
]
