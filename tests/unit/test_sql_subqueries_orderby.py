"""Uncorrelated subqueries (IN / EXISTS) and extended ORDER BY forms."""

import pytest

from repro.errors import ExecutionError


@pytest.fixture
def shop(db):
    db.execute("CREATE TABLE products (pid INTEGER, name VARCHAR2(20),"
               " price NUMBER)")
    db.execute("CREATE TABLE orders (oid INTEGER, pid INTEGER,"
               " qty INTEGER)")
    products = [(1, "apple", 3), (2, "pear", 5), (3, "fig", 9),
                (4, "plum", 2)]
    orders = [(10, 1, 2), (11, 1, 1), (12, 3, 5)]
    for row in products:
        db.execute("INSERT INTO products VALUES (:1, :2, :3)", list(row))
    for row in orders:
        db.execute("INSERT INTO orders VALUES (:1, :2, :3)", list(row))
    return db


class TestInSubquery:
    def test_basic(self, shop):
        rows = shop.execute("SELECT name FROM products"
                            " WHERE pid IN (SELECT pid FROM orders)"
                            ).fetchall()
        assert sorted(r[0] for r in rows) == ["apple", "fig"]

    def test_not_in(self, shop):
        rows = shop.execute("SELECT name FROM products"
                            " WHERE pid NOT IN (SELECT pid FROM orders)"
                            ).fetchall()
        assert sorted(r[0] for r in rows) == ["pear", "plum"]

    def test_subquery_with_where(self, shop):
        rows = shop.execute(
            "SELECT name FROM products WHERE pid IN"
            " (SELECT pid FROM orders WHERE qty > 3)").fetchall()
        assert [r[0] for r in rows] == ["fig"]

    def test_empty_subquery(self, shop):
        rows = shop.execute("SELECT name FROM products WHERE pid IN"
                            " (SELECT pid FROM orders WHERE qty > 100)"
                            ).fetchall()
        assert rows == []

    def test_subquery_must_be_single_column(self, shop):
        with pytest.raises(ExecutionError):
            shop.execute("SELECT name FROM products"
                         " WHERE pid IN (SELECT pid, qty FROM orders)"
                         ).fetchall()

    def test_in_subquery_in_delete(self, shop):
        shop.execute("DELETE FROM products"
                     " WHERE pid IN (SELECT pid FROM orders)")
        assert shop.execute(
            "SELECT COUNT(*) FROM products").fetchall() == [(2,)]

    def test_in_subquery_in_update(self, shop):
        shop.execute("UPDATE products SET price = 0"
                     " WHERE pid IN (SELECT pid FROM orders)")
        rows = shop.execute(
            "SELECT COUNT(*) FROM products WHERE price = 0").fetchall()
        assert rows == [(2,)]

    def test_combined_with_other_predicates(self, shop):
        rows = shop.execute(
            "SELECT name FROM products WHERE price < 5 AND"
            " pid IN (SELECT pid FROM orders)").fetchall()
        assert [r[0] for r in rows] == ["apple"]

    def test_bind_inside_subquery(self, shop):
        rows = shop.execute(
            "SELECT name FROM products WHERE pid IN"
            " (SELECT pid FROM orders WHERE qty >= :1)", [5]).fetchall()
        assert [r[0] for r in rows] == ["fig"]


class TestExists:
    def test_exists_true(self, shop):
        rows = shop.execute("SELECT COUNT(*) FROM products"
                            " WHERE EXISTS (SELECT oid FROM orders)"
                            ).fetchall()
        assert rows == [(4,)]

    def test_exists_false(self, shop):
        rows = shop.execute(
            "SELECT COUNT(*) FROM products"
            " WHERE EXISTS (SELECT oid FROM orders WHERE qty > 99)").fetchall()
        assert rows == [(0,)]

    def test_not_exists(self, shop):
        rows = shop.execute(
            "SELECT COUNT(*) FROM products WHERE NOT EXISTS"
            " (SELECT oid FROM orders WHERE qty > 99)").fetchall()
        assert rows == [(4,)]


class TestOrderByForms:
    def test_order_by_position(self, shop):
        rows = shop.execute(
            "SELECT name, price FROM products ORDER BY 2").fetchall()
        assert [r[0] for r in rows] == ["plum", "apple", "pear", "fig"]

    def test_order_by_position_desc(self, shop):
        rows = shop.execute(
            "SELECT name, price FROM products ORDER BY 2 DESC").fetchall()
        assert [r[0] for r in rows] == ["fig", "pear", "apple", "plum"]

    def test_order_by_position_out_of_range(self, shop):
        with pytest.raises(ExecutionError):
            shop.execute("SELECT name FROM products ORDER BY 5").fetchall()

    def test_order_by_select_alias(self, shop):
        rows = shop.execute("SELECT name, price * 2 AS doubled FROM products"
                            " ORDER BY doubled DESC").fetchall()
        assert rows[0][0] == "fig"

    def test_order_by_alias_of_aggregate(self, shop):
        shop.execute("INSERT INTO orders VALUES (13, 3, 1)")
        rows = shop.execute(
            "SELECT pid, SUM(qty) AS total FROM orders GROUP BY pid"
            " ORDER BY total DESC").fetchall()
        assert rows[0] == (3, 6)

    def test_column_name_beats_alias(self, shop):
        # 'price' is a real column even though an item is aliased price
        rows = shop.execute("SELECT name, pid AS price FROM products"
                            " ORDER BY price DESC LIMIT 1").fetchall()
        assert rows[0][0] == "fig"  # ordered by the price column (9)
