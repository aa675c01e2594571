"""Object and collection types (the non-scalar columns of §3.1)."""

import pytest

from repro import Engine
from repro.errors import TypeMismatchError
from repro.types.datatypes import INTEGER, NUMBER, VARCHAR2
from repro.types.objects import (
    NestedTable, ObjectType, ObjectValue, Varray, collection_contains)
from repro.types.values import NULL, is_null


@pytest.fixture
def point_type():
    return ObjectType("POINT_T", [("x", NUMBER), ("y", NUMBER)])


class TestObjectType:
    def test_constructor_positional(self, point_type):
        value = point_type.new(1, 2)
        assert value.get("x") == 1
        assert value.get("y") == 2

    def test_constructor_keyword(self, point_type):
        value = point_type.new(y=5)
        assert is_null(value.get("x"))
        assert value.get("y") == 5

    def test_attribute_access_case_insensitive(self, point_type):
        value = point_type.new(1, 2)
        assert value.get("X") == 1

    def test_python_attribute_access(self, point_type):
        assert point_type.new(3, 4).x == 3

    def test_unknown_attribute_raises(self, point_type):
        with pytest.raises(TypeMismatchError):
            point_type.new(1, 2).get("z")

    def test_too_many_args_raises(self, point_type):
        with pytest.raises(TypeMismatchError):
            point_type.new(1, 2, 3)

    def test_attribute_values_validated(self, point_type):
        with pytest.raises(TypeMismatchError):
            point_type.new("not-a-number", 2)

    def test_validate_accepts_own_instances(self, point_type):
        value = point_type.new(1, 2)
        assert point_type.validate(value) is value

    def test_validate_rejects_other_types(self, point_type):
        other = ObjectType("OTHER_T", [("x", NUMBER)])
        with pytest.raises(TypeMismatchError):
            point_type.validate(other.new(1))

    def test_validate_from_dict(self, point_type):
        value = point_type.validate({"x": 1, "y": 2})
        assert isinstance(value, ObjectValue)
        assert value.y == 2

    def test_equality_and_hash(self, point_type):
        assert point_type.new(1, 2) == point_type.new(1, 2)
        assert point_type.new(1, 2) != point_type.new(1, 3)
        assert hash(point_type.new(1, 2)) == hash(point_type.new(1, 2))

    def test_attribute_type_lookup(self, point_type):
        assert point_type.attribute_type("x") is NUMBER
        with pytest.raises(TypeMismatchError):
            point_type.attribute_type("z")

    def test_as_dict(self, point_type):
        assert point_type.new(1, 2).as_dict() == {"x": 1, "y": 2}


class TestCreateTypeThroughSql:
    def test_object_column_of_a_created_type(self):
        db = Engine().connect()
        db.execute("CREATE TYPE point_t AS OBJECT (x NUMBER, y NUMBER)")
        db.execute("CREATE TABLE p (id NUMBER, pt point_t)")
        db.execute("INSERT INTO p VALUES (1, point_t(3, 4))")
        assert db.execute("SELECT id, p.pt.x FROM p p").fetchall() \
            == [(1, 3)]


class TestVarray:
    def test_validates_elements(self):
        varray = Varray(INTEGER, limit=3)
        assert varray.validate([1, 2]) == (1, 2)

    def test_limit_enforced(self):
        varray = Varray(INTEGER, limit=2)
        with pytest.raises(TypeMismatchError):
            varray.validate([1, 2, 3])

    def test_element_type_enforced(self):
        varray = Varray(INTEGER)
        with pytest.raises(TypeMismatchError):
            varray.validate([1, "x"])

    def test_null_collection(self):
        assert is_null(Varray(INTEGER).validate(NULL))

    def test_repr(self):
        assert "VARRAY(3)" in repr(Varray(VARCHAR2, 3))


class TestNestedTable:
    def test_validates(self):
        table = NestedTable(VARCHAR2)
        assert table.validate(["a", "b"]) == ("a", "b")

    def test_accepts_sets(self):
        table = NestedTable(INTEGER)
        assert sorted(table.validate({1, 2})) == [1, 2]

    def test_rejects_scalar(self):
        with pytest.raises(TypeMismatchError):
            NestedTable(INTEGER).validate(5)


class TestCollectionContains:
    def test_membership(self):
        assert collection_contains(("a", "b"), "a")
        assert not collection_contains(("a", "b"), "c")

    def test_null_collection_is_empty(self):
        assert not collection_contains(NULL, "a")

    def test_null_elements_never_match(self):
        assert not collection_contains((NULL,), NULL)
