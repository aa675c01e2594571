"""Collection cartridge: the §3.1 'Contains(Hobbies, Skiing)' example."""

from collections import Counter

import pytest

from repro import Engine
from repro.cartridges import collection
from repro.types.objects import iter_collection
from repro.types.values import NULL, is_null


_PEOPLE = [
    ("Amy", ("Skiing", "Chess")),
    ("Bob", ("Go", "Skiing", "Skiing")),
    ("Cid", ("Running",)),
    ("Dee", NULL),
    ("Eve", ()),
]

#: rows that make a full scan dearer than the domain index scan
_GROWTH = [[f"p{i}", (f"hobby{i % 7}",)] for i in range(300)]

#: elements every indexed answer is checked for
_ELEMENTS = ("Skiing", "Baking", "Go", "hobby3")

_QUERY = "SELECT name FROM {table} WHERE Coll_Contains(hobbies, :1)"


@pytest.fixture
def hobbies_db():
    db = Engine().connect()
    collection.install(db)
    db.execute("CREATE TABLE employees (name VARCHAR2(40),"
               " hobbies VARRAY(10) OF VARCHAR2(64))")
    for name, hobbies in _PEOPLE:
        db.execute("INSERT INTO employees VALUES (:1, :2)", [name, hobbies])
    db.execute("CREATE INDEX hobbies_idx ON employees(hobbies)"
               " INDEXTYPE IS CollectionIndexType")
    return db


@pytest.fixture
def grown_db(hobbies_db):
    """``hobbies_db`` grown (through index maintenance) until the planner
    picks the domain scan, beside ``plain``: the same rows, no index."""
    hobbies_db.execute("CREATE TABLE plain (name VARCHAR2(40),"
                       " hobbies VARRAY(10) OF VARCHAR2(64))")
    hobbies_db.insert_rows("plain", [list(person) for person in _PEOPLE])
    for table in ("employees", "plain"):
        hobbies_db.insert_rows(table, _GROWTH)
    return hobbies_db


def on_both(db, sql, params=None):
    """Run one DML statement on the indexed table and on its copy."""
    for table in ("employees", "plain"):
        db.execute(sql.format(table=table), params)


def assert_elements_match_rows(db):
    """The elements table holds exactly each live row's ``(elem, rid,
    occurrences)``: a delete that leaves a key behind shows here even
    where no query answer would (the base-table fetch drops the deleted
    row's rowid)."""
    expected = []
    for rid, hobbies in db.execute(
            "SELECT rowid, hobbies FROM employees").fetchall():
        if not is_null(hobbies):
            expected += [(element, rid, count) for element, count in Counter(
                item for item in iter_collection(hobbies)
                if not is_null(item)).items()]
    assert sorted(db.execute(
        "SELECT elem, rid, occurrences FROM hobbies_idx_elems").fetchall()) \
        == sorted(expected)


def indexed_names(db, element):
    """The names a domain index scan finds for ``element``, checked
    against the index-free copy."""
    query = _QUERY.format(table="employees")
    plan = db.explain(query, [element])
    assert any("DOMAIN INDEX SCAN hobbies_idx" in line for line in plan)
    starts = db.dispatcher.metrics["ODCIIndexStart"].invocations
    names = sorted(r[0] for r in db.execute(query, [element]).fetchall())
    assert db.dispatcher.metrics["ODCIIndexStart"].invocations == starts + 1
    assert names == sorted(r[0] for r in db.execute(
        _QUERY.format(table="plain"), [element]).fetchall()), element
    return names


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

    def test_functional_agrees_when_index_dropped(self, grown_db):
        indexed = {element: indexed_names(grown_db, element)
                   for element in _ELEMENTS}
        assert indexed["Skiing"] == ["Amy", "Bob"]
        assert len(indexed["hobby3"]) == 43
        grown_db.execute("DROP INDEX hobbies_idx")
        query = _QUERY.format(table="employees")
        assert not any("DOMAIN INDEX SCAN" in line
                       for line in grown_db.explain(query, ["Skiing"]))
        for element in _ELEMENTS:
            assert sorted(r[0] for r in grown_db.execute(
                query, [element]).fetchall()) == indexed[element]

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
    """INSERT, UPDATE and DELETE read back through the domain scan."""

    def test_insert(self, grown_db):
        on_both(grown_db, "INSERT INTO {table} VALUES ('Fay', :1)",
                [("Skiing",)])
        assert "Fay" in indexed_names(grown_db, "Skiing")
        for element in _ELEMENTS:
            indexed_names(grown_db, element)

    def test_update_collection(self, grown_db):
        on_both(grown_db,
                "UPDATE {table} SET hobbies = :1 WHERE name = 'Amy'",
                [("Baking",)])
        on_both(grown_db, "UPDATE {table} SET hobbies = :1"
                " WHERE name IN ('p3', 'p10', 'p17')", [("Go",)])
        assert indexed_names(grown_db, "Skiing") == ["Bob"]
        assert indexed_names(grown_db, "Baking") == ["Amy"]
        assert indexed_names(grown_db, "Go") == ["Bob", "p10", "p17", "p3"]
        assert len(indexed_names(grown_db, "hobby3")) == 40
        assert_elements_match_rows(grown_db)

    def test_delete(self, grown_db):
        on_both(grown_db, "DELETE FROM {table} WHERE name = 'Bob'")
        on_both(grown_db, "DELETE FROM {table} WHERE name LIKE 'p1%'")
        assert indexed_names(grown_db, "Skiing") == ["Amy"]
        for element in _ELEMENTS:
            indexed_names(grown_db, element)
        assert_elements_match_rows(grown_db)
        # then every remaining row
        on_both(grown_db, "DELETE FROM {table}")
        assert_elements_match_rows(grown_db)
        assert grown_db.execute(
            "SELECT COUNT(*) FROM hobbies_idx_elems").fetchall() == [(0,)]

    def test_truncate_table_empties_the_index(self, grown_db):
        """TRUNCATE TABLE runs the cartridge's ODCIIndexTruncate: the
        index keeps no element of the old rows, stays VALID, and finds
        rows inserted afterwards."""
        on_both(grown_db, "TRUNCATE TABLE {table}")
        assert grown_db.execute(
            "SELECT COUNT(*) FROM hobbies_idx_elems").fetchall() == [(0,)]
        assert grown_db.execute(
            "SELECT status FROM user_indexes"
            " WHERE index_name = 'hobbies_idx'").fetchall() == [("VALID",)]
        # new rows under the old rows' rowids, holding none of the
        # elements the old rows held
        refill = [[f"q{i}", (f"pastime{i % 5}",)] for i in range(300)]
        for table in ("employees", "plain"):
            grown_db.insert_rows(table, refill)
        for element in _ELEMENTS:
            assert indexed_names(grown_db, element) == [], element
        on_both(grown_db, "INSERT INTO {table} VALUES ('Gus', :1)",
                [("Skiing", "Go")])
        assert indexed_names(grown_db, "Skiing") == ["Gus"]
        assert len(indexed_names(grown_db, "pastime2")) == 60

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
