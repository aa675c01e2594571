"""Collection cartridge: the §3.1 'Contains(Hobbies, Skiing)' example."""

import pytest

from repro import Engine
from repro.cartridges import collection
from repro.types.values import NULL


@pytest.fixture
def hobbies_db():
    db = Engine().connect()
    collection.install(db)
    db.execute("CREATE TABLE employees (name VARCHAR2(40),"
               " hobbies VARRAY(10) OF VARCHAR2(64))")
    people = [
        ("Amy", ("Skiing", "Chess")),
        ("Bob", ("Go", "Skiing", "Skiing")),
        ("Cid", ("Running",)),
        ("Dee", NULL),
        ("Eve", ()),
    ]
    for name, hobbies in people:
        db.execute("INSERT INTO employees VALUES (:1, :2)", [name, hobbies])
    db.execute("CREATE INDEX hobbies_idx ON employees(hobbies)"
               " INDEXTYPE IS CollectionIndexType")
    return db


class TestFunctional:
    def test_counts_occurrences(self):
        assert collection.coll_contains(("a", "b", "a"), "a") == 2
        assert collection.coll_contains(("a",), "z") == 0

    def test_null_handling(self):
        assert collection.coll_contains(NULL, "a") == 0
        assert collection.coll_contains(("a",), NULL) == 0
        assert collection.coll_contains((NULL, "a"), "a") == 1

    def test_non_string_elements(self):
        assert collection.coll_contains((1, 2, 2), 2) == 2


class TestPaperQuery:
    def test_paper_example(self, hobbies_db):
        rows = hobbies_db.execute(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Skiing')").fetchall()
        assert sorted(r[0] for r in rows) == ["Amy", "Bob"]

    def test_plan_uses_domain_index(self, hobbies_db):
        # at five rows a full scan is cheaper; grow the table so the
        # cost-based choice favours the index
        hobbies_db.insert_rows(
            "employees",
            [[f"p{i}", (f"hobby{i % 7}",)] for i in range(300)])
        plan = hobbies_db.explain(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Skiing')")
        assert any("DOMAIN INDEX SCAN hobbies_idx" in line for line in plan)

    def test_functional_agrees_when_index_dropped(self, hobbies_db):
        indexed = hobbies_db.execute(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Skiing')").fetchall()
        hobbies_db.execute("DROP INDEX hobbies_idx")
        functional = hobbies_db.execute(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Skiing')").fetchall()
        assert sorted(indexed) == sorted(functional)

    def test_ancillary_occurrence_count(self, hobbies_db):
        rows = hobbies_db.execute(
            "SELECT name, Coll_Count(1) FROM employees"
            " WHERE Coll_Contains(hobbies, 'Skiing', 1)"
            " ORDER BY Coll_Count(1) DESC").fetchall()
        assert rows == [("Bob", 2), ("Amy", 1)]

    def test_bounded_predicate_uses_occurrences(self, hobbies_db):
        rows = hobbies_db.execute(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Skiing') >= 2").fetchall()
        assert [r[0] for r in rows] == ["Bob"]


class TestMaintenance:
    def test_insert(self, hobbies_db):
        hobbies_db.execute("INSERT INTO employees VALUES ('Fay', :1)",
                           [("Skiing",)])
        rows = hobbies_db.execute(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Skiing')").fetchall()
        assert "Fay" in [r[0] for r in rows]

    def test_update_collection(self, hobbies_db):
        hobbies_db.execute(
            "UPDATE employees SET hobbies = :1 WHERE name = 'Amy'",
            [("Baking",)])
        rows = hobbies_db.execute(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Skiing')").fetchall()
        assert sorted(r[0] for r in rows) == ["Bob"]
        rows = hobbies_db.execute(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Baking')").fetchall()
        assert [r[0] for r in rows] == ["Amy"]

    def test_delete(self, hobbies_db):
        hobbies_db.execute("DELETE FROM employees WHERE name = 'Bob'")
        rows = hobbies_db.execute(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Skiing')").fetchall()
        assert [r[0] for r in rows] == ["Amy"]

    def test_rollback(self, hobbies_db):
        hobbies_db.begin()
        hobbies_db.execute("DELETE FROM employees WHERE name = 'Amy'")
        hobbies_db.rollback()
        rows = hobbies_db.execute(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Skiing')").fetchall()
        assert sorted(r[0] for r in rows) == ["Amy", "Bob"]

    def test_varray_literal_via_sql_function(self, hobbies_db):
        hobbies_db.execute(
            "INSERT INTO employees VALUES ('Gus', varray('Skiing', 'Go'))")
        rows = hobbies_db.execute(
            "SELECT name FROM employees"
            " WHERE Coll_Contains(hobbies, 'Go')").fetchall()
        assert sorted(r[0] for r in rows) == ["Bob", "Gus"]
