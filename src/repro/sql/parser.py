"""Recursive-descent parser for the SQL dialect.

Covers the statements the paper's framework needs: ordinary DDL/DML/query
SQL plus the extensibility DDL — CREATE OPERATOR with bindings, CREATE
INDEXTYPE ... FOR ... USING, CREATE INDEX ... INDEXTYPE IS ... PARAMETERS,
ALTER INDEX ... PARAMETERS, and ASSOCIATE STATISTICS.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import ParseError
from repro.sql import ast_nodes as ast
from repro.sql.lexer import Token, TokenKind, tokenize
from repro.types.values import NULL


#: Keywords that may double as identifiers (column/table names) because
#: their keyword role is position-specific and unambiguous.
SOFT_KEYWORDS = ("TYPE", "KEY", "STATISTICS", "WORK", "PLAN", "FORCE",
                 "LIMIT", "OFFSET", "OBJECT", "VARRAY", "PARAMETERS",
                 "BINDING", "ANCILLARY", "ORGANIZATION", "HEAP", "ALL")


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement (a trailing semicolon is allowed)."""
    return Parser(sql).parse_statement()


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and cartridges)."""
    parser = Parser(text)
    expr = parser._expr()
    parser._expect_eof()
    return expr


class Parser:
    """One-statement parser over the token stream."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token plumbing ---------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self._peek()
        return ParseError(message, tok.pos, self.sql)

    def _accept_keyword(self, *words: str) -> Optional[Token]:
        if self._peek().is_keyword(*words):
            return self._next()
        return None

    def _expect_keyword(self, *words: str) -> Token:
        tok = self._accept_keyword(*words)
        if tok is None:
            raise self._error(f"expected {'/'.join(words)}, got {self._peek().text!r}")
        return tok

    def _accept_punct(self, ch: str) -> bool:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text == ch:
            self._next()
            return True
        return False

    def _expect_punct(self, ch: str) -> None:
        if not self._accept_punct(ch):
            raise self._error(f"expected {ch!r}, got {self._peek().text!r}")

    def _accept_op(self, *ops: str) -> Optional[str]:
        tok = self._peek()
        if tok.kind is TokenKind.OP and tok.text in ops:
            self._next()
            return tok.text
        return None

    def _ident(self, what: str = "identifier") -> str:
        tok = self._peek()
        if tok.kind is TokenKind.IDENT:
            self._next()
            return tok.text
        # allow non-reserved-feeling keywords as identifiers in name position
        if tok.kind is TokenKind.KEYWORD and tok.text in SOFT_KEYWORDS:
            self._next()
            return tok.text
        raise self._error(f"expected {what}, got {tok.text!r}")

    def _dotted_name(self) -> List[str]:
        parts = [self._ident()]
        while self._peek().kind is TokenKind.PUNCT and self._peek().text == ".":
            # don't consume the dot if followed by '*' (alias.* handled above)
            if self._peek(1).kind is TokenKind.OP and self._peek(1).text == "*":
                break
            self._next()
            parts.append(self._ident())
        return parts

    def _expect_eof(self) -> None:
        self._accept_punct(";")
        if self._peek().kind is not TokenKind.EOF:
            raise self._error(f"unexpected trailing input {self._peek().text!r}")

    # -- statements --------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Dispatch on the leading keyword and parse one statement."""
        tok = self._peek()
        if tok.is_keyword("SELECT"):
            stmt: ast.Statement = self._select()
        elif tok.is_keyword("INSERT"):
            stmt = self._insert()
        elif tok.is_keyword("UPDATE"):
            stmt = self._update()
        elif tok.is_keyword("DELETE"):
            stmt = self._delete()
        elif tok.is_keyword("CREATE"):
            stmt = self._create()
        elif tok.is_keyword("DROP"):
            stmt = self._drop()
        elif tok.is_keyword("ALTER"):
            stmt = self._alter()
        elif tok.is_keyword("TRUNCATE"):
            self._next()
            self._expect_keyword("TABLE")
            stmt = ast.TruncateTable(self._ident("table name"))
        elif tok.is_keyword("ASSOCIATE"):
            stmt = self._associate()
        elif tok.is_keyword("ANALYZE"):
            stmt = self._analyze()
        elif tok.is_keyword("EXPLAIN"):
            self._next()
            if self._accept_keyword("PLAN"):
                self._expect_keyword("FOR")
            stmt = ast.Explain(self._select())
        elif tok.is_keyword("COMMIT"):
            self._next()
            self._accept_keyword("WORK")
            stmt = ast.Commit()
        elif tok.is_keyword("ROLLBACK"):
            self._next()
            self._accept_keyword("WORK")
            name = None
            if self._accept_keyword("TO"):
                self._accept_keyword("SAVEPOINT")
                name = self._ident("savepoint name")
            stmt = ast.Rollback(savepoint=name)
        elif tok.is_keyword("BEGIN"):
            self._next()
            self._accept_keyword("TRANSACTION", "WORK")
            stmt = ast.BeginTransaction()
        elif tok.is_keyword("SAVEPOINT"):
            self._next()
            stmt = ast.Savepoint(self._ident("savepoint name"))
        elif tok.is_keyword("SET"):
            stmt = self._set_transaction()
        elif tok.is_keyword("GRANT", "REVOKE"):
            stmt = self._grant()
        else:
            raise self._error(f"unexpected statement start {tok.text!r}")
        self._expect_eof()
        return stmt

    def _set_transaction(self) -> ast.SetTransaction:
        """SET TRANSACTION READ ONLY | READ WRITE
                           | ISOLATION LEVEL SERIALIZABLE
                           | ISOLATION LEVEL READ COMMITTED

        The mode words are not reserved — they arrive as plain
        identifiers and are matched by text.
        """
        self._expect_keyword("SET")
        self._expect_keyword("TRANSACTION")
        read_only = False
        isolation: Optional[str] = None
        saw_clause = False
        while self._peek().kind is TokenKind.IDENT:
            word = self._ident().upper()
            if word == "READ":
                mode = self._ident("ONLY or WRITE").upper()
                if mode == "ONLY":
                    read_only = True
                elif mode == "WRITE":
                    read_only = False
                else:
                    raise self._error(f"expected ONLY or WRITE, got {mode!r}")
            elif word == "ISOLATION":
                if self._ident("LEVEL").upper() != "LEVEL":
                    raise self._error("expected LEVEL after ISOLATION")
                level = self._ident("isolation level").upper()
                if level == "SERIALIZABLE":
                    isolation = "SERIALIZABLE"
                elif level == "READ" \
                        and self._ident("COMMITTED").upper() == "COMMITTED":
                    isolation = "READ COMMITTED"
                else:
                    raise self._error(f"unknown isolation level {level!r}")
            else:
                raise self._error(
                    f"expected READ or ISOLATION, got {word!r}")
            saw_clause = True
            if not self._accept_punct(","):
                break
        if not saw_clause:
            raise self._error("expected READ or ISOLATION after "
                              "SET TRANSACTION")
        return ast.SetTransaction(read_only=read_only, isolation=isolation)

    # -- CREATE family -------------------------------------------------------

    def _create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            return self._create_table()
        if self._accept_keyword("OPERATOR"):
            return self._create_operator()
        if self._accept_keyword("INDEXTYPE"):
            return self._create_indextype()
        if self._accept_keyword("TYPE"):
            return self._create_type()
        unique = bool(self._accept_keyword("UNIQUE"))
        tok = self._peek()
        if tok.kind is TokenKind.IDENT and tok.text.upper() in ("BITMAP", "HASH"):
            raise self._error(f"{tok.text.upper()} indexes are not supported;"
                              " use CREATE INDEX for a B-tree index", tok)
        self._expect_keyword("INDEX")
        return self._create_index(unique=unique)

    def _create_table(self) -> ast.CreateTable:
        name = self._ident("table name")
        self._expect_punct("(")
        columns: List[ast.ColumnDef] = []
        primary_key: List[str] = []
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._expect_punct("(")
                primary_key = [self._ident("column")]
                while self._accept_punct(","):
                    primary_key.append(self._ident("column"))
                self._expect_punct(")")
            else:
                columns.append(self._column_def())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        organization_index = False
        if self._accept_keyword("ORGANIZATION"):
            if self._accept_keyword("INDEX"):
                organization_index = True
            else:
                self._expect_keyword("HEAP")
        for col in columns:
            if col.primary_key and col.name not in primary_key:
                primary_key.append(col.name)
        return ast.CreateTable(name=name, columns=columns,
                               primary_key=primary_key,
                               organization_index=organization_index)

    def _column_def(self) -> ast.ColumnDef:
        name = self._ident("column name")
        col = self._type_spec(name)
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                col.not_null = True
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                col.primary_key = True
                col.not_null = True
            else:
                break
        return col

    def _type_spec(self, name: str) -> ast.ColumnDef:
        if self._accept_keyword("VARRAY"):
            limit = None
            if self._accept_punct("("):
                limit = self._int_literal()
                self._expect_punct(")")
            self._expect_keyword("OF")
            elem, elem_len = self._scalar_type()
            return ast.ColumnDef(name=name, type_name="VARRAY",
                                 collection="varray", elem_type_name=elem,
                                 elem_length=elem_len, limit=limit)
        if self._peek().is_keyword("TABLE"):
            self._next()
            self._expect_keyword("OF")
            elem, elem_len = self._scalar_type()
            return ast.ColumnDef(name=name, type_name="TABLE",
                                 collection="table", elem_type_name=elem,
                                 elem_length=elem_len)
        type_name, length = self._scalar_type()
        return ast.ColumnDef(name=name, type_name=type_name, length=length)

    def _scalar_type(self) -> Tuple[str, Optional[int]]:
        type_name = self._ident("type name")
        length = None
        if self._accept_punct("("):
            length = self._int_literal()
            # NUMBER(p, s): ignore scale
            if self._accept_punct(","):
                self._int_literal()
            self._expect_punct(")")
        return type_name, length

    def _int_literal(self) -> int:
        tok = self._peek()
        if tok.kind is TokenKind.NUMBER and isinstance(tok.value, int):
            self._next()
            return tok.value
        raise self._error("expected integer literal")

    def _create_index(self, unique: bool) -> ast.CreateIndex:
        name = self._ident("index name")
        self._expect_keyword("ON")
        table = self._ident("table name")
        self._expect_punct("(")
        columns = [self._ident("column")]
        while self._accept_punct(","):
            columns.append(self._ident("column"))
        self._expect_punct(")")
        indextype = None
        parameters = None
        if self._accept_keyword("INDEXTYPE"):
            self._expect_keyword("IS")
            indextype = ".".join(self._dotted_name())
        if self._accept_keyword("PARAMETERS"):
            self._expect_punct("(")
            tok = self._next()
            if tok.kind is not TokenKind.STRING:
                raise self._error("PARAMETERS requires a string literal", tok)
            parameters = tok.value
            self._expect_punct(")")
        return ast.CreateIndex(name=name, table=table, columns=columns,
                               unique=unique, indextype=indextype,
                               kind="domain" if indextype else "btree",
                               parameters=parameters)

    def _create_operator(self) -> ast.CreateOperator:
        name = ".".join(self._dotted_name())
        ancillary_to = None
        if self._accept_keyword("ANCILLARY"):
            self._expect_keyword("TO")
            ancillary_to = ".".join(self._dotted_name())
            if self._accept_punct("("):
                # the parent signature is informative only; skip it
                while not self._accept_punct(")"):
                    self._next()
        bindings: List[ast.OperatorBinding] = []
        while self._accept_keyword("BINDING"):
            arg_types = self._type_list()
            self._expect_keyword("RETURN")
            ret, __ = self._scalar_type()
            self._expect_keyword("USING")
            func = ".".join(self._dotted_name())
            bindings.append(ast.OperatorBinding(
                arg_types=arg_types, return_type=ret, function_name=func))
            self._accept_punct(",")
        if not bindings and ancillary_to is None:
            raise self._error("CREATE OPERATOR requires at least one BINDING")
        return ast.CreateOperator(name=name, bindings=bindings,
                                  ancillary_to=ancillary_to)

    def _type_list(self) -> List[Tuple[str, Optional[int]]]:
        self._expect_punct("(")
        types = [self._scalar_type()]
        while self._accept_punct(","):
            types.append(self._scalar_type())
        self._expect_punct(")")
        return types

    def _create_indextype(self) -> ast.CreateIndextype:
        name = self._ident("indextype name")
        self._expect_keyword("FOR")
        operators: List[ast.IndextypeOperator] = []
        while True:
            op_name = ".".join(self._dotted_name())
            arg_types = self._type_list()
            operators.append(ast.IndextypeOperator(name=op_name,
                                                   arg_types=arg_types))
            if not self._accept_punct(","):
                break
        self._expect_keyword("USING")
        using = ".".join(self._dotted_name())
        return ast.CreateIndextype(name=name, operators=operators, using=using)

    def _create_type(self) -> ast.CreateType:
        name = self._ident("type name")
        self._expect_keyword("AS")
        self._expect_keyword("OBJECT")
        self._expect_punct("(")
        attributes = [self._column_def()]
        while self._accept_punct(","):
            attributes.append(self._column_def())
        self._expect_punct(")")
        return ast.CreateType(name=name, attributes=attributes)

    # -- DROP / ALTER ----------------------------------------------------------

    def _drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            return ast.DropTable(self._ident("table name"))
        if self._accept_keyword("INDEX"):
            name = self._ident("index name")
            force = bool(self._accept_keyword("FORCE"))
            return ast.DropIndex(name, force=force)
        if self._accept_keyword("OPERATOR"):
            name = ".".join(self._dotted_name())
            force = bool(self._accept_keyword("FORCE"))
            return ast.DropOperator(name, force=force)
        if self._accept_keyword("INDEXTYPE"):
            name = self._ident("indextype name")
            force = bool(self._accept_keyword("FORCE"))
            return ast.DropIndextype(name, force=force)
        raise self._error("expected TABLE/INDEX/OPERATOR/INDEXTYPE after DROP")

    def _alter(self) -> ast.Statement:
        self._expect_keyword("ALTER")
        self._expect_keyword("INDEX")
        name = self._ident("index name")
        parameters = None
        rebuild = False
        if self._accept_keyword("UNUSABLE"):
            return ast.AlterIndex(name=name, unusable=True)
        if self._accept_keyword("REBUILD"):
            rebuild = True
        if self._accept_keyword("PARAMETERS"):
            self._expect_punct("(")
            tok = self._next()
            if tok.kind is not TokenKind.STRING:
                raise self._error("PARAMETERS requires a string literal", tok)
            parameters = tok.value
            self._expect_punct(")")
        if parameters is None and not rebuild:
            raise self._error(
                "ALTER INDEX requires REBUILD, UNUSABLE, or PARAMETERS")
        return ast.AlterIndex(name=name, parameters=parameters, rebuild=rebuild)

    # -- statistics --------------------------------------------------------------

    def _associate(self) -> ast.AssociateStatistics:
        self._expect_keyword("ASSOCIATE")
        self._expect_keyword("STATISTICS")
        self._expect_keyword("WITH")
        if self._accept_keyword("INDEXTYPES"):
            kind = "indextypes"
        else:
            self._expect_keyword("FUNCTIONS")
            kind = "functions"
        names = [".".join(self._dotted_name())]
        while self._accept_punct(","):
            names.append(".".join(self._dotted_name()))
        self._expect_keyword("USING")
        using = ".".join(self._dotted_name())
        return ast.AssociateStatistics(kind=kind, names=names, using=using)

    def _grant(self) -> ast.GrantStatement:
        revoke = bool(self._accept_keyword("REVOKE"))
        if not revoke:
            self._expect_keyword("GRANT")
        if self._accept_keyword("ALL"):
            privileges = ["select", "insert", "update", "delete"]
        else:
            privileges = [self._privilege()]
            while self._accept_punct(","):
                privileges.append(self._privilege())
        self._expect_keyword("ON")
        table = self._ident("table name")
        self._expect_keyword("FROM" if revoke else "TO")
        grantee = self._ident("user name")
        return ast.GrantStatement(privileges=privileges, table=table,
                                  grantee=grantee, revoke=revoke)

    def _privilege(self) -> str:
        tok = self._next()
        if tok.is_keyword("SELECT", "INSERT", "UPDATE", "DELETE"):
            return tok.text.lower()
        raise self._error(
            f"expected a privilege (SELECT/INSERT/UPDATE/DELETE), "
            f"got {tok.text!r}", tok)

    def _analyze(self) -> ast.AnalyzeTable:
        self._expect_keyword("ANALYZE")
        self._expect_keyword("TABLE")
        name = self._ident("table name")
        if self._accept_keyword("COMPUTE", "ESTIMATE"):
            self._expect_keyword("STATISTICS")
        return ast.AnalyzeTable(name)

    # -- DML -------------------------------------------------------------------

    def _insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._ident("table name")
        columns = None
        if self._accept_punct("("):
            columns = [self._ident("column")]
            while self._accept_punct(","):
                columns.append(self._ident("column"))
            self._expect_punct(")")
        if self._peek().is_keyword("SELECT"):
            return ast.Insert(table=table, columns=columns, rows=[],
                              select=self._select())
        self._expect_keyword("VALUES")
        rows = [self._value_row()]
        while self._accept_punct(","):
            rows.append(self._value_row())
        return ast.Insert(table=table, columns=columns, rows=rows)

    def _value_row(self) -> List[ast.Expr]:
        self._expect_punct("(")
        row = [self._expr()]
        while self._accept_punct(","):
            row.append(self._expr())
        self._expect_punct(")")
        return row

    def _update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._ident("table name")
        alias = None
        if self._peek().kind is TokenKind.IDENT:
            alias = self._ident()
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._accept_punct(","):
            assignments.append(self._assignment())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._expr()
        return ast.Update(table=table, alias=alias,
                          assignments=assignments, where=where)

    def _assignment(self) -> Tuple[str, ast.Expr]:
        column = self._ident("column name")
        if self._accept_op("=") is None:
            raise self._error("expected = in assignment")
        return column, self._expr()

    def _delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._ident("table name")
        alias = None
        if self._peek().kind is TokenKind.IDENT:
            alias = self._ident()
        where = None
        if self._accept_keyword("WHERE"):
            where = self._expr()
        return ast.Delete(table=table, alias=alias, where=where)

    # -- SELECT ---------------------------------------------------------------

    def _select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())
        self._expect_keyword("FROM")
        tables = [self._table_ref()]
        while self._accept_punct(","):
            tables.append(self._table_ref())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._expr()
        group_by: List[ast.Expr] = []
        having = None
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expr())
            while self._accept_punct(","):
                group_by.append(self._expr())
        if self._accept_keyword("HAVING"):
            # HAVING without GROUP BY filters the single global group
            having = self._expr()
        order_by: List[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._accept_punct(","):
                order_by.append(self._order_item())
        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._int_literal()
            if self._accept_keyword("OFFSET"):
                offset = self._int_literal()
        return ast.Select(items=items, tables=tables, where=where,
                          group_by=group_by, having=having, order_by=order_by,
                          distinct=distinct, limit=limit, offset=offset)

    def _select_item(self) -> ast.SelectItem:
        tok = self._peek()
        if tok.kind is TokenKind.OP and tok.text == "*":
            self._next()
            return ast.SelectItem(ast.Star())
        # alias.* form
        if (tok.kind is TokenKind.IDENT
                and self._peek(1).kind is TokenKind.PUNCT
                and self._peek(1).text == "."
                and self._peek(2).kind is TokenKind.OP
                and self._peek(2).text == "*"):
            alias = self._ident()
            self._next()  # .
            self._next()  # *
            return ast.SelectItem(ast.Star(alias=alias))
        expr = self._expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._ident("column alias")
        elif self._peek().kind is TokenKind.IDENT:
            alias = self._ident()
        return ast.SelectItem(expr, alias)

    def _table_ref(self) -> ast.TableRef:
        name = self._ident("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._ident("table alias")
        elif self._peek().kind is TokenKind.IDENT:
            alias = self._ident()
        return ast.TableRef(name=name, alias=alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    # -- expressions ------------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._accept_keyword("OR"):
            left = ast.BoolOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = ast.BoolOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.NotOp(self._not_expr())
        if self._peek().is_keyword("EXISTS"):
            self._next()
            self._expect_punct("(")
            query = self._select()
            self._expect_punct(")")
            return ast.ExistsSubquery(query)
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        tok = self._peek()
        op = self._accept_op("=", "!=", "<>", "<", "<=", ">", ">=")
        if op is not None:
            if op == "<>":
                op = "!="
            return ast.BinaryOp(op, left, self._additive())
        negated = False
        if tok.is_keyword("NOT"):
            nxt = self._peek(1)
            if nxt.is_keyword("LIKE", "BETWEEN", "IN"):
                self._next()
                negated = True
                tok = self._peek()
        if tok.is_keyword("IS"):
            self._next()
            is_not = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return ast.IsNullOp(left, negated=is_not)
        if tok.is_keyword("LIKE"):
            self._next()
            return ast.LikeOp(left, self._additive(), negated=negated)
        if tok.is_keyword("BETWEEN"):
            self._next()
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            return ast.BetweenOp(left, low, high, negated=negated)
        if tok.is_keyword("IN"):
            self._next()
            self._expect_punct("(")
            if self._peek().is_keyword("SELECT"):
                query = self._select()
                self._expect_punct(")")
                return ast.InSubquery(left, query, negated=negated)
            items = [self._expr()]
            while self._accept_punct(","):
                items.append(self._expr())
            self._expect_punct(")")
            return ast.InListOp(left, items, negated=negated)
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            op = self._accept_op("+", "-", "||")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self._multiplicative())

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            op = self._accept_op("*", "/")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self._unary())

    def _unary(self) -> ast.Expr:
        if self._accept_op("-"):
            return ast.UnaryMinus(self._unary())
        self._accept_op("+")
        return self._primary()

    def _primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.NUMBER:
            self._next()
            return ast.Literal(tok.value)
        if tok.kind is TokenKind.STRING:
            self._next()
            return ast.Literal(tok.value)
        if tok.is_keyword("NULL"):
            self._next()
            return ast.Literal(NULL)
        if tok.is_keyword("TRUE"):
            self._next()
            return ast.Literal(True)
        if tok.is_keyword("FALSE"):
            self._next()
            return ast.Literal(False)
        if tok.kind is TokenKind.BIND:
            self._next()
            return ast.BindParam(tok.value)
        if tok.kind is TokenKind.PUNCT and tok.text == "(":
            self._next()
            expr = self._expr()
            self._expect_punct(")")
            return expr
        if tok.kind is TokenKind.IDENT or tok.is_keyword(*SOFT_KEYWORDS):
            path = self._dotted_name()
            if self._peek().kind is TokenKind.PUNCT and self._peek().text == "(":
                return self._call(".".join(path))
            return ast.ColumnRef(path=path)
        raise self._error(f"unexpected token {tok.text!r} in expression")

    def _call(self, name: str) -> ast.Expr:
        self._expect_punct("(")
        distinct = bool(self._accept_keyword("DISTINCT"))
        args: List[ast.Expr] = []
        if self._peek().kind is TokenKind.OP and self._peek().text == "*":
            # COUNT(*)
            self._next()
            args.append(ast.Star())
        elif not (self._peek().kind is TokenKind.PUNCT
                  and self._peek().text == ")"):
            args.append(self._expr())
            while self._accept_punct(","):
                args.append(self._expr())
        self._expect_punct(")")
        return ast.FuncCall(name=name, args=args, distinct=distinct)
