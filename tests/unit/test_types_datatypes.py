"""Scalar data types: validation, coercion, compatibility."""

import datetime

import pytest

from repro.errors import TypeMismatchError
from repro.types.datatypes import (
    ANY, BLOB, BOOLEAN, CLOB, DATE, INTEGER, NUMBER, ROWID, VARCHAR2,
    VarcharType, type_from_name)
from repro.types.values import NULL, is_null


class TestNumber:
    def test_accepts_int_and_float(self):
        assert NUMBER.validate(5) == 5
        assert NUMBER.validate(2.5) == 2.5

    def test_coerces_numeric_strings(self):
        assert NUMBER.validate("42") == 42
        assert NUMBER.validate("2.5") == 2.5
        assert NUMBER.validate("1e3") == 1000.0

    def test_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            NUMBER.validate(True)

    def test_rejects_garbage_string(self):
        with pytest.raises(TypeMismatchError):
            NUMBER.validate("abc")

    def test_null_passes_through(self):
        assert is_null(NUMBER.validate(NULL))
        assert is_null(NUMBER.validate(None))


class TestInteger:
    def test_whole_float_coerces(self):
        assert INTEGER.validate(3.0) == 3
        assert isinstance(INTEGER.validate(3.0), int)

    def test_fractional_float_rejected(self):
        with pytest.raises(TypeMismatchError):
            INTEGER.validate(3.5)

    def test_string_coerces(self):
        assert INTEGER.validate("7") == 7


class TestVarchar:
    def test_unbounded(self):
        assert VARCHAR2.validate("x" * 10000) == "x" * 10000

    def test_bounded_length_enforced(self):
        bounded = VarcharType(5)
        assert bounded.validate("abcde") == "abcde"
        with pytest.raises(TypeMismatchError):
            bounded.validate("abcdef")

    def test_numbers_coerce_to_string(self):
        assert VARCHAR2.validate(12) == "12"

    def test_repr_carries_length(self):
        assert repr(VarcharType(128)) == "VARCHAR2(128)"
        assert repr(VARCHAR2) == "VARCHAR2"


class TestBooleanDateLobs:
    def test_boolean(self):
        assert BOOLEAN.validate(True) is True
        assert BOOLEAN.validate(0) is False
        with pytest.raises(TypeMismatchError):
            BOOLEAN.validate("yes")

    def test_date_from_iso_string(self):
        value = DATE.validate("2000-02-28")
        assert value == datetime.datetime(2000, 2, 28)

    def test_date_from_date_object(self):
        value = DATE.validate(datetime.date(1999, 12, 31))
        assert value.year == 1999

    def test_date_bad_string(self):
        with pytest.raises(TypeMismatchError):
            DATE.validate("not-a-date")

    def test_clob_accepts_strings(self):
        assert CLOB.validate("text") == "text"
        with pytest.raises(TypeMismatchError):
            CLOB.validate(12)

    def test_blob_accepts_bytes(self):
        assert BLOB.validate(b"\x00\x01") == b"\x00\x01"
        assert BLOB.validate(bytearray(b"ab")) == b"ab"
        with pytest.raises(TypeMismatchError):
            BLOB.validate("text")


class TestRowIdType:
    def test_accepts_rowid(self):
        rid = (1, 0, 0)
        assert ROWID.validate(rid) is rid

    def test_rejects_int(self):
        with pytest.raises(TypeMismatchError):
            ROWID.validate(5)


class TestCompatibility:
    def test_any_is_compatible_both_ways(self):
        assert ANY.is_compatible_with(NUMBER)
        assert NUMBER.is_compatible_with(ANY)

    def test_numeric_family(self):
        assert INTEGER.is_compatible_with(NUMBER)
        assert NUMBER.is_compatible_with(INTEGER)

    def test_text_family(self):
        assert VARCHAR2.is_compatible_with(CLOB)

    def test_cross_family_incompatible(self):
        assert not VARCHAR2.is_compatible_with(NUMBER)
        assert not BOOLEAN.is_compatible_with(NUMBER)


class TestTypeFromName:
    def test_known_names(self):
        assert type_from_name("NUMBER") is NUMBER
        assert type_from_name("integer") is INTEGER
        assert type_from_name("varchar2") is VARCHAR2

    def test_parameterized_varchar(self):
        bounded = type_from_name("VARCHAR2", 64)
        assert isinstance(bounded, VarcharType)
        assert bounded.length == 64

    def test_unknown_raises(self):
        with pytest.raises(TypeMismatchError):
            type_from_name("GEOMETRY")

    def test_length_on_lengthless_type_raises(self):
        with pytest.raises(TypeMismatchError):
            type_from_name("DATE", 5)
