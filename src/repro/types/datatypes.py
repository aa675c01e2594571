"""SQL scalar data types.

Each type knows how to validate and coerce Python values, mirroring the
small set of predefined types the paper assumes the server supports
natively (numbers, strings, ...) plus the LOB types the cartridges store
index data in.  Types are singletons for the common unparameterized cases
(:data:`NUMBER`, :data:`INTEGER`, ...) and small value objects when
parameterized (``VARCHAR2(128)``).
"""

from __future__ import annotations

import datetime
from typing import Any, Optional

from repro.errors import TypeMismatchError
from repro.types.values import NULL, is_null


class DataType:
    """Base class for SQL data types.

    Subclasses implement :meth:`validate`, which either returns a value
    coerced to the canonical Python representation for the type or raises
    :class:`TypeMismatchError`.
    """

    #: Upper-cased SQL name of the type family (``VARCHAR2``, ``NUMBER``, ...)
    name: str = "ANY"

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` to this type, or raise :class:`TypeMismatchError`."""
        raise NotImplementedError

    def accepts(self, value: Any) -> bool:
        """Return True when ``value`` can be coerced to this type."""
        if is_null(value):
            return True
        try:
            self.validate(value)
        except TypeMismatchError:
            return False
        return True

    def is_compatible_with(self, other: "DataType") -> bool:
        """Return True when a value of this type may bind to ``other``.

        Used by operator-binding resolution: an argument of this type may
        be passed where ``other`` is declared.
        """
        if isinstance(other, AnyType) or isinstance(self, AnyType):
            return True
        if self.name == other.name:
            return True
        numeric = {"NUMBER", "INTEGER"}
        if self.name in numeric and other.name in numeric:
            return True
        texty = {"VARCHAR2", "CLOB"}
        if self.name in texty and other.name in texty:
            return True
        return False

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DataType) and repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))


class NumberType(DataType):
    """Arbitrary-precision numeric type (``NUMBER``); stored as int or float."""

    name = "NUMBER"

    def validate(self, value: Any) -> Any:
        if is_null(value):
            return NULL
        if isinstance(value, bool):
            raise TypeMismatchError(f"expected NUMBER, got boolean {value!r}")
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, str):
            try:
                if any(ch in value for ch in ".eE"):
                    return float(value)
                return int(value)
            except ValueError:
                raise TypeMismatchError(f"cannot convert {value!r} to NUMBER") from None
        raise TypeMismatchError(f"expected NUMBER, got {type(value).__name__}")


class IntegerType(NumberType):
    """Integral numeric type (``INTEGER``); floats must be whole numbers."""

    name = "INTEGER"

    def validate(self, value: Any) -> Any:
        value = super().validate(value)
        if is_null(value):
            return NULL
        if isinstance(value, float):
            if not value.is_integer():
                raise TypeMismatchError(f"{value!r} is not an INTEGER")
            return int(value)
        return int(value)


class VarcharType(DataType):
    """Bounded character string (``VARCHAR2(n)``)."""

    name = "VARCHAR2"

    def __init__(self, length: Optional[int] = None):
        self.length = length

    def validate(self, value: Any) -> Any:
        if is_null(value):
            return NULL
        if not isinstance(value, str):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = repr(value)
            else:
                raise TypeMismatchError(
                    f"expected VARCHAR2, got {type(value).__name__}")
        if self.length is not None and len(value) > self.length:
            raise TypeMismatchError(
                f"value of length {len(value)} exceeds VARCHAR2({self.length})")
        return value

    def __repr__(self) -> str:
        if self.length is None:
            return "VARCHAR2"
        return f"VARCHAR2({self.length})"


class BooleanType(DataType):
    """Boolean type; SQL TRUE/FALSE plus NULL."""

    name = "BOOLEAN"

    def validate(self, value: Any) -> Any:
        if is_null(value):
            return NULL
        if isinstance(value, bool):
            return value
        if value in (0, 1):
            return bool(value)
        raise TypeMismatchError(f"expected BOOLEAN, got {value!r}")


class DateType(DataType):
    """Date type; accepts ``datetime.date``/``datetime.datetime`` or ISO strings."""

    name = "DATE"

    def validate(self, value: Any) -> Any:
        if is_null(value):
            return NULL
        if isinstance(value, datetime.datetime):
            return value
        if isinstance(value, datetime.date):
            return datetime.datetime(value.year, value.month, value.day)
        if isinstance(value, str):
            try:
                return datetime.datetime.fromisoformat(value)
            except ValueError:
                raise TypeMismatchError(f"cannot parse {value!r} as DATE") from None
        raise TypeMismatchError(f"expected DATE, got {type(value).__name__}")


class ClobType(DataType):
    """Character large object; values are strings or LOB locators."""

    name = "CLOB"

    def validate(self, value: Any) -> Any:
        if is_null(value):
            return NULL
        if isinstance(value, str):
            return value
        if hasattr(value, "read") and hasattr(value, "lob_id"):
            return value
        raise TypeMismatchError(f"expected CLOB, got {type(value).__name__}")


class BlobType(DataType):
    """Binary large object; values are bytes or LOB locators."""

    name = "BLOB"

    def validate(self, value: Any) -> Any:
        if is_null(value):
            return NULL
        if isinstance(value, (bytes, bytearray)):
            return bytes(value)
        if hasattr(value, "read") and hasattr(value, "lob_id"):
            return value
        raise TypeMismatchError(f"expected BLOB, got {type(value).__name__}")


class RowIdType(DataType):
    """Row identifier type (``ROWID``): a heap row's physical rowid, the
    tuple ``(segment, page, slot)``, or an index-organized row's
    :class:`~repro.storage.iot.LogicalRowId`."""

    name = "ROWID"
    _logical_cls = None  # resolved lazily: import cycle with storage

    def validate(self, value: Any) -> Any:
        if is_null(value):
            return NULL
        if value.__class__ is tuple and len(value) == 3:
            return value
        cls = RowIdType._logical_cls
        if cls is None:
            from repro.storage.iot import LogicalRowId
            cls = RowIdType._logical_cls = LogicalRowId
        if value.__class__ is cls:
            return value
        raise TypeMismatchError(f"expected ROWID, got {type(value).__name__}")


class AnyType(DataType):
    """Wildcard type used for operator bindings over object/collection types."""

    name = "ANY"

    def validate(self, value: Any) -> Any:
        return value


#: Shared singleton instances for the unparameterized types.
NUMBER = NumberType()
INTEGER = IntegerType()
VARCHAR2 = VarcharType()
BOOLEAN = BooleanType()
DATE = DateType()
CLOB = ClobType()
BLOB = BlobType()
ROWID = RowIdType()
ANY = AnyType()

_BY_NAME = {
    "NUMBER": NUMBER,
    "INTEGER": INTEGER,
    "INT": INTEGER,
    "SMALLINT": INTEGER,
    "VARCHAR": VARCHAR2,
    "VARCHAR2": VARCHAR2,
    "CHAR": VARCHAR2,
    "BOOLEAN": BOOLEAN,
    "DATE": DATE,
    "CLOB": CLOB,
    "BLOB": BLOB,
    "ROWID": ROWID,
    "ANY": ANY,
    "ANYDATA": ANY,
}


def type_from_name(name: str, length: Optional[int] = None) -> DataType:
    """Resolve a SQL type name (optionally parameterized) to a :class:`DataType`.

    ``type_from_name("VARCHAR2", 128)`` returns a bounded string type;
    unknown names raise :class:`TypeMismatchError`.
    """
    key = name.upper()
    if key in ("VARCHAR", "VARCHAR2", "CHAR") and length is not None:
        return VarcharType(length)
    if key not in _BY_NAME:
        raise TypeMismatchError(f"unknown data type {name!r}")
    if length is not None and key not in ("VARCHAR", "VARCHAR2", "CHAR",
                                          "NUMBER", "INTEGER", "INT"):
        raise TypeMismatchError(f"type {name} does not take a length")
    return _BY_NAME[key]
