"""SQL parser: statements and expressions, including extensibility DDL."""

import pytest

from repro.errors import ParseError
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse, parse_expression
from repro.types.values import is_null


class TestSelect:
    def test_simple(self):
        stmt = parse("SELECT * FROM employees")
        assert isinstance(stmt, ast.Select)
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.tables[0].name == "employees"

    def test_columns_and_aliases(self):
        stmt = parse("SELECT name, id AS ident, LENGTH(resume) len "
                     "FROM employees e")
        assert stmt.items[1].alias == "ident"
        assert stmt.items[2].alias == "len"
        assert stmt.tables[0].alias == "e"

    def test_alias_star(self):
        stmt = parse("SELECT d.* FROM docs d")
        star = stmt.items[0].expr
        assert isinstance(star, ast.Star)
        assert star.alias == "d"

    def test_where_operator_call(self):
        stmt = parse("SELECT * FROM employees "
                     "WHERE Contains(resume, 'Oracle AND UNIX')")
        call = stmt.where
        assert isinstance(call, ast.FuncCall)
        assert call.name == "Contains"
        assert len(call.args) == 2

    def test_dotted_function_name(self):
        stmt = parse("SELECT * FROM t WHERE sdo_geom.Relate(a, b, 'X') = 'TRUE'")
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.left.name == "sdo_geom.Relate"

    def test_multi_table_join(self):
        stmt = parse("SELECT r.gid, p.gid FROM roads r, parks p "
                     "WHERE r.grpcode = p.grpcode")
        assert len(stmt.tables) == 2

    def test_group_by_having_order_by(self):
        stmt = parse("SELECT dept, COUNT(*) FROM emp GROUP BY dept "
                     "HAVING COUNT(*) > 2 ORDER BY dept DESC")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].descending

    def test_distinct_limit_offset(self):
        stmt = parse("SELECT DISTINCT x FROM t LIMIT 10 OFFSET 5")
        assert stmt.distinct
        assert stmt.limit == 10
        assert stmt.offset == 5

    def test_count_star(self):
        stmt = parse("SELECT COUNT(*) FROM t")
        call = stmt.items[0].expr
        assert isinstance(call.args[0], ast.Star)

    def test_count_distinct(self):
        stmt = parse("SELECT COUNT(DISTINCT token) FROM t")
        assert stmt.items[0].expr.distinct

    def test_trailing_semicolon_ok(self):
        parse("SELECT * FROM t;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM t garbage extra ,")


class TestExpressions:
    def test_precedence_or_and(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, ast.BoolOp) and expr.op == "OR"
        assert isinstance(expr.right, ast.BoolOp) and expr.right.op == "AND"

    def test_precedence_arith(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert expr.right.op == "*"

    def test_parens(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, ast.NotOp)

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, ast.BetweenOp)

    def test_not_between(self):
        expr = parse_expression("x NOT BETWEEN 1 AND 10")
        assert expr.negated

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, ast.InListOp)
        assert len(expr.items) == 3

    def test_like(self):
        expr = parse_expression("name LIKE 'A%'")
        assert isinstance(expr, ast.LikeOp)

    def test_is_null_and_is_not_null(self):
        assert not parse_expression("x IS NULL").negated
        assert parse_expression("x IS NOT NULL").negated

    def test_null_true_false_literals(self):
        assert is_null(parse_expression("NULL").value)
        assert parse_expression("TRUE").value is True
        assert parse_expression("FALSE").value is False

    def test_unary_minus(self):
        expr = parse_expression("-5")
        assert isinstance(expr, ast.UnaryMinus)

    def test_concat(self):
        expr = parse_expression("a || b")
        assert expr.op == "||"

    def test_dotted_column_path(self):
        expr = parse_expression("t.img.signature")
        assert isinstance(expr, ast.ColumnRef)
        assert expr.path == ["t", "img", "signature"]

    def test_bind_param(self):
        expr = parse_expression(":1")
        assert isinstance(expr, ast.BindParam)
        assert expr.name == "1"


class TestCreateTable:
    def test_columns_and_types(self):
        stmt = parse("CREATE TABLE employees (name VARCHAR2(128), "
                     "id INTEGER NOT NULL, resume VARCHAR2(1024))")
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.columns[0].length == 128
        assert stmt.columns[1].not_null

    def test_primary_key_clause(self):
        stmt = parse("CREATE TABLE t (a INTEGER, b INTEGER, "
                     "PRIMARY KEY (a, b))")
        assert stmt.primary_key == ["a", "b"]

    def test_inline_primary_key(self):
        stmt = parse("CREATE TABLE t (a INTEGER PRIMARY KEY, b NUMBER)")
        assert stmt.primary_key == ["a"]
        assert stmt.columns[0].not_null

    def test_organization_index(self):
        stmt = parse("CREATE TABLE t (a INTEGER PRIMARY KEY, b NUMBER) "
                     "ORGANIZATION INDEX")
        assert stmt.organization_index

    def test_varray_column(self):
        stmt = parse("CREATE TABLE t (hobbies VARRAY(10) OF VARCHAR2(64))")
        col = stmt.columns[0]
        assert col.collection == "varray"
        assert col.limit == 10
        assert col.elem_type_name == "VARCHAR2"
        assert col.elem_length == 64

    def test_nested_table_column(self):
        stmt = parse("CREATE TABLE t (tags TABLE OF NUMBER)")
        assert stmt.columns[0].collection == "table"


class TestIndexDDL:
    def test_btree_index(self):
        stmt = parse("CREATE INDEX i ON t(a)")
        assert stmt.kind == "btree"
        assert not stmt.unique

    def test_unique_index(self):
        stmt = parse("CREATE UNIQUE INDEX i ON t(a, b)")
        assert stmt.unique
        assert stmt.columns == ["a", "b"]

    @pytest.mark.parametrize("kind", ["HASH", "BITMAP", "hash"])
    def test_hash_and_bitmap_indexes_are_refused(self, kind):
        with pytest.raises(ParseError) as err:
            parse(f"CREATE {kind} INDEX i ON t(a)")
        message = str(err.value)
        assert kind.upper() in message and "CREATE INDEX" in message
        with pytest.raises(ParseError):
            parse(f"CREATE UNIQUE {kind} INDEX i ON t(a)")

    def test_domain_index_with_parameters(self):
        stmt = parse("CREATE INDEX ResumeTextIndex ON Employees(resume) "
                     "INDEXTYPE IS TextIndexType "
                     "PARAMETERS (':Language English :Ignore the a an')")
        assert stmt.kind == "domain"
        assert stmt.indextype == "TextIndexType"
        assert ":Language English" in stmt.parameters

    def test_alter_index_parameters(self):
        stmt = parse("ALTER INDEX ResumeTextIndex PARAMETERS (':Ignore COBOL')")
        assert isinstance(stmt, ast.AlterIndex)
        assert stmt.parameters == ":Ignore COBOL"

    def test_alter_index_rebuild(self):
        assert parse("ALTER INDEX i REBUILD").rebuild

    def test_alter_index_requires_action(self):
        with pytest.raises(ParseError):
            parse("ALTER INDEX i")

    def test_drop_index_force(self):
        stmt = parse("DROP INDEX i FORCE")
        assert stmt.force


class TestExtensibilityDDL:
    def test_create_operator(self):
        stmt = parse("CREATE OPERATOR Ordsys.Contains "
                     "BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER "
                     "USING TextContains")
        assert isinstance(stmt, ast.CreateOperator)
        assert stmt.name == "Ordsys.Contains"
        binding = stmt.bindings[0]
        assert binding.arg_types == [("VARCHAR2", None), ("VARCHAR2", None)]
        assert binding.function_name == "TextContains"

    def test_create_operator_multiple_bindings(self):
        stmt = parse("CREATE OPERATOR Eq "
                     "BINDING (NUMBER, NUMBER) RETURN NUMBER USING f1, "
                     "BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER USING f2")
        assert len(stmt.bindings) == 2

    def test_create_ancillary_operator(self):
        stmt = parse("CREATE OPERATOR Score ANCILLARY TO Contains")
        assert stmt.ancillary_to == "Contains"
        assert stmt.bindings == []

    def test_operator_requires_binding_or_ancillary(self):
        with pytest.raises(ParseError):
            parse("CREATE OPERATOR Naked")

    def test_create_indextype(self):
        stmt = parse("CREATE INDEXTYPE TextIndexType "
                     "FOR Contains(VARCHAR2, VARCHAR2) "
                     "USING TextIndexMethods")
        assert isinstance(stmt, ast.CreateIndextype)
        assert stmt.operators[0].name == "Contains"
        assert stmt.using == "TextIndexMethods"

    def test_create_indextype_multiple_operators(self):
        stmt = parse("CREATE INDEXTYPE It FOR A(NUMBER), B(VARCHAR2) "
                     "USING Impl")
        assert [op.name for op in stmt.operators] == ["A", "B"]

    def test_associate_statistics(self):
        stmt = parse("ASSOCIATE STATISTICS WITH INDEXTYPES TextIndexType "
                     "USING TextStatsMethods")
        assert stmt.kind == "indextypes"
        assert stmt.names == ["TextIndexType"]
        assert stmt.using == "TextStatsMethods"

    def test_create_type(self):
        stmt = parse("CREATE TYPE POINT_T AS OBJECT (x NUMBER, y NUMBER)")
        assert isinstance(stmt, ast.CreateType)
        assert len(stmt.attributes) == 2

    def test_drop_operator_and_indextype(self):
        assert isinstance(parse("DROP OPERATOR Contains"), ast.DropOperator)
        assert parse("DROP INDEXTYPE T FORCE").force


class TestDML:
    def test_insert_values(self):
        stmt = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert len(stmt.rows) == 2

    def test_insert_with_columns(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2)")
        assert stmt.columns == ["a", "b"]

    def test_insert_select(self):
        stmt = parse("INSERT INTO t SELECT * FROM u")
        assert stmt.select is not None

    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = b + 1 WHERE c = 2")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, ast.Delete)

    def test_delete_all(self):
        assert parse("DELETE FROM t").where is None


class TestTransactionsAndMisc:
    def test_commit_rollback(self):
        assert isinstance(parse("COMMIT"), ast.Commit)
        assert isinstance(parse("ROLLBACK"), ast.Rollback)

    def test_rollback_to_savepoint(self):
        stmt = parse("ROLLBACK TO SAVEPOINT sp1")
        assert stmt.savepoint == "sp1"

    def test_savepoint(self):
        assert parse("SAVEPOINT sp1").name == "sp1"

    def test_analyze(self):
        stmt = parse("ANALYZE TABLE t COMPUTE STATISTICS")
        assert isinstance(stmt, ast.AnalyzeTable)

    def test_truncate(self):
        assert isinstance(parse("TRUNCATE TABLE t"), ast.TruncateTable)

    def test_explain(self):
        stmt = parse("EXPLAIN PLAN FOR SELECT * FROM t")
        assert isinstance(stmt, ast.Explain)

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse("GRANT ALL TO bob")
