"""Abstract syntax tree for the SQL dialect.

Expressions and statements are small frozen-ish dataclasses; the planner
and executor pattern-match on their types.  Column references carry the
raw dotted path from the parser (``r.geometry`` → ["r", "geometry"]) and
are resolved to (alias, column, attribute-path) during binding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes."""


@dataclass
class Literal(Expr):
    """A constant: number, string, boolean, or NULL."""

    value: Any

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


@dataclass
class ColumnRef(Expr):
    """A possibly-dotted name path; resolved during binding.

    After binding, ``alias``/``column``/``attr_path`` are filled in:
    ``r.geometry.gtype`` becomes alias="r", column="geometry",
    attr_path=["gtype"].
    """

    path: List[str]
    alias: Optional[str] = None
    column: Optional[str] = None
    attr_path: List[str] = field(default_factory=list)

    @property
    def bound(self) -> bool:
        return self.column is not None

    def display(self) -> str:
        """Source-like rendering of the reference."""
        return ".".join(self.path)

    def __repr__(self) -> str:
        if self.bound:
            suffix = "".join("." + a for a in self.attr_path)
            return f"Col({self.alias}.{self.column}{suffix})"
        return f"Col(?{'.'.join(self.path)})"


@dataclass
class BindParam(Expr):
    """A bind placeholder ``:name`` / ``:1``, replaced before execution.

    Bind variables are how application and cartridge code passes
    non-literal values (rowids, object instances, LOB locators) into SQL
    — the analogue of PL/SQL bind variables in the paper's callbacks.
    """

    name: str

    def __repr__(self) -> str:
        return f"Bind(:{self.name})"


@dataclass
class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    alias: Optional[str] = None


@dataclass
class BinaryOp(Expr):
    """Arithmetic, comparison, or string concatenation."""

    op: str  # one of + - * / = != < <= > >= ||
    left: Expr
    right: Expr


@dataclass
class BoolOp(Expr):
    """AND/OR over two operands."""

    op: str  # AND | OR
    left: Expr
    right: Expr


@dataclass
class NotOp(Expr):
    """Logical negation."""

    operand: Expr


@dataclass
class UnaryMinus(Expr):
    """Numeric negation."""

    operand: Expr


@dataclass
class IsNullOp(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass
class LikeOp(Expr):
    """``expr [NOT] LIKE pattern``."""

    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass
class BetweenOp(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class InListOp(Expr):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expr
    items: List[Expr]
    negated: bool = False


@dataclass
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)`` — uncorrelated, materialized at
    planning time."""

    operand: Expr
    query: "Select" = None  # type: ignore[assignment]
    negated: bool = False


@dataclass
class ExistsSubquery(Expr):
    """``EXISTS (SELECT ...)`` — uncorrelated, materialized at planning."""

    query: "Select" = None  # type: ignore[assignment]
    negated: bool = False


@dataclass
class FuncCall(Expr):
    """A call ``name(args)``; ``name`` may be dotted (``sdo_geom.relate``).

    Whether this is a built-in function, a user function, a user-defined
    operator, or an aggregate is decided at binding time against the
    catalog.
    """

    name: str
    args: List[Expr]
    distinct: bool = False

    def __repr__(self) -> str:
        return f"Func({self.name}, {self.args!r})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement:
    """Base class for statement nodes."""


@dataclass
class ColumnDef:
    """One column in CREATE TABLE (or attribute in CREATE TYPE).

    For collection columns (``VARRAY(10) OF VARCHAR2(64)``,
    ``TABLE OF NUMBER``) the element type goes in ``elem_type_name``/
    ``elem_length`` and ``collection`` is "varray" or "table".
    """

    name: str
    type_name: str
    length: Optional[int] = None
    not_null: bool = False
    primary_key: bool = False
    collection: Optional[str] = None
    elem_type_name: Optional[str] = None
    elem_length: Optional[int] = None
    limit: Optional[int] = None


@dataclass
class CreateTable(Statement):
    name: str
    columns: List[ColumnDef]
    primary_key: List[str] = field(default_factory=list)
    organization_index: bool = False


@dataclass
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass
class TruncateTable(Statement):
    name: str


@dataclass
class CreateIndex(Statement):
    name: str
    table: str
    columns: List[str]
    unique: bool = False
    kind: str = "btree"  # btree | domain
    indextype: Optional[str] = None
    parameters: Optional[str] = None


@dataclass
class AlterIndex(Statement):
    name: str
    parameters: Optional[str] = None
    rebuild: bool = False
    #: ALTER INDEX ... UNUSABLE — administratively degrade the index
    unusable: bool = False


@dataclass
class DropIndex(Statement):
    name: str
    force: bool = False


@dataclass
class OperatorBinding:
    """One BINDING clause of CREATE OPERATOR."""

    arg_types: List[Tuple[str, Optional[int]]]
    return_type: str
    function_name: str


@dataclass
class CreateOperator(Statement):
    name: str
    bindings: List[OperatorBinding]
    ancillary_to: Optional[str] = None


@dataclass
class DropOperator(Statement):
    name: str
    force: bool = False


@dataclass
class IndextypeOperator:
    """One supported operator in CREATE INDEXTYPE ... FOR."""

    name: str
    arg_types: List[Tuple[str, Optional[int]]]


@dataclass
class CreateIndextype(Statement):
    name: str
    operators: List[IndextypeOperator]
    using: str


@dataclass
class DropIndextype(Statement):
    name: str
    force: bool = False


@dataclass
class AssociateStatistics(Statement):
    """ASSOCIATE STATISTICS WITH INDEXTYPES name USING stats_class."""

    kind: str  # "indextypes" | "functions"
    names: List[str]
    using: str


@dataclass
class AnalyzeTable(Statement):
    name: str


@dataclass
class Insert(Statement):
    table: str
    columns: Optional[List[str]]
    rows: List[List[Expr]]
    select: Optional["Select"] = None


@dataclass
class Update(Statement):
    table: str
    alias: Optional[str]
    assignments: List[Tuple[str, Expr]]
    where: Optional[Expr]


@dataclass
class Delete(Statement):
    table: str
    alias: Optional[str]
    where: Optional[Expr]


@dataclass
class SelectItem:
    """One select-list entry: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None


@dataclass
class TableRef:
    """A FROM-list entry: table name plus optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return (self.alias or self.name).lower()


@dataclass
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class Select(Statement):
    items: List[SelectItem]
    tables: List[TableRef]
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    distinct: bool = False
    limit: Optional[int] = None
    offset: Optional[int] = None


@dataclass
class Explain(Statement):
    query: Select


@dataclass
class Commit(Statement):
    pass


@dataclass
class Rollback(Statement):
    savepoint: Optional[str] = None


@dataclass
class BeginTransaction(Statement):
    pass


@dataclass
class Savepoint(Statement):
    name: str = ""


@dataclass
class SetTransaction(Statement):
    """SET TRANSACTION READ ONLY / READ WRITE / ISOLATION LEVEL ...

    ``read_only`` pins the transaction to a single snapshot and rejects
    DML; ``isolation`` is ``"SERIALIZABLE"`` or ``"READ COMMITTED"``.
    """

    read_only: bool = False
    isolation: Optional[str] = None


@dataclass
class GrantStatement(Statement):
    """GRANT/REVOKE privileges ON table TO/FROM user (§2.5 privileges)."""

    privileges: List[str]  # lower-cased: select/insert/update/delete
    table: str = ""
    grantee: str = ""
    revoke: bool = False


@dataclass
class CreateType(Statement):
    """CREATE TYPE name AS OBJECT (attr type, ...)."""

    name: str
    attributes: List[ColumnDef] = field(default_factory=list)
