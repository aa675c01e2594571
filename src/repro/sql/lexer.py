"""SQL lexer.

Produces a flat token stream for the recursive-descent parser.  The
dialect is a practical subset of Oracle SQL plus the paper's DDL
extensions (CREATE OPERATOR, CREATE INDEXTYPE, INDEXTYPE IS ...
PARAMETERS, ASSOCIATE STATISTICS).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Any, Iterator, List

from repro.errors import ParseError


class TokenKind(enum.Enum):
    """Lexical token categories."""

    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    PUNCT = "punct"
    BIND = "bind"
    EOF = "eof"


#: Reserved words recognized as keywords (everything else is an IDENT).
KEYWORDS = frozenset("""
    SELECT FROM WHERE AND OR NOT AS ON ORDER BY GROUP HAVING ASC DESC DISTINCT
    INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE INDEX DROP ALTER
    TRUNCATE UNIQUE PRIMARY KEY NULL IS LIKE BETWEEN IN EXISTS
    INDEXTYPE PARAMETERS OPERATOR BINDING RETURN USING FOR TYPE OBJECT
    ASSOCIATE STATISTICS WITH INDEXTYPES FUNCTIONS ANALYZE COMPUTE ESTIMATE
    COMMIT ROLLBACK SAVEPOINT TO BEGIN WORK TRANSACTION
    ORGANIZATION HEAP LIMIT OFFSET EXPLAIN PLAN VARRAY OF NESTED
    TRUE FALSE FORCE REBUILD UNUSABLE ANCILLARY GRANT REVOKE ALL
""".split())

_TWO_CHAR_OPS = ("<=", ">=", "!=", "<>", ":=", "||")
_ONE_CHAR_OPS = "+-*/=<>"
_PUNCT = "(),.;"

#: a ``'...'`` literal or ``"..."`` identifier; an unterminated one runs
#: to the end.  A doubled quote (the SQL escape) ends one region and
#: opens the next with no text between, so no rewrite of the unquoted
#: text can reach inside
_QUOTED = re.compile(r"""('[^']*'?|"[^"]*"?)""")


def split_quoted(sql: str) -> List[str]:
    """``sql`` cut at its quoted regions: the unquoted text is at the
    even indices (the first and last included, possibly empty) and each
    quoted region, quotes and all, at an odd index.  Statement-text
    rewrites that must leave quoted text alone edit the even pieces."""
    return _QUOTED.split(sql)


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: TokenKind
    text: str
    value: Any
    pos: int

    def is_keyword(self, *words: str) -> bool:
        """True when this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.text in words

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r})"


def tokenize(sql: str) -> List[Token]:
    """Lex ``sql`` into tokens (ending with one EOF token)."""
    return list(_tokens(sql))


def _tokens(sql: str) -> Iterator[Token]:
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated comment", i, sql)
            i = end + 2
            continue
        if ch == "'":
            text, value, i = _string(sql, i)
            yield Token(TokenKind.STRING, text, value, i - len(text))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            start = i
            while i < n and (sql[i].isdigit() or sql[i] == "."):
                i += 1
            if i < n and sql[i] in "eE":
                i += 1
                if i < n and sql[i] in "+-":
                    i += 1
                while i < n and sql[i].isdigit():
                    i += 1
            text = sql[start:i]
            try:
                value: Any = int(text)
            except ValueError:
                try:
                    value = float(text)
                except ValueError:
                    raise ParseError(f"bad number {text!r}", start, sql) from None
            yield Token(TokenKind.NUMBER, text, value, start)
            continue
        if ch.isalpha() or ch == "_" or ch == '"':
            start = i
            if ch == '"':
                end = sql.find('"', i + 1)
                if end < 0:
                    raise ParseError("unterminated quoted identifier", i, sql)
                name = sql[i + 1:end]
                i = end + 1
                yield Token(TokenKind.IDENT, name, name, start)
                continue
            while i < n and (sql[i].isalnum() or sql[i] in "_$#"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                yield Token(TokenKind.KEYWORD, upper, upper, start)
            else:
                yield Token(TokenKind.IDENT, word, word, start)
            continue
        if ch == ":" and i + 1 < n and (sql[i + 1].isalnum()
                                        or sql[i + 1] == "_"):
            start = i
            i += 1
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            name = sql[start + 1:i]
            yield Token(TokenKind.BIND, sql[start:i], name, start)
            continue
        two = sql[i:i + 2]
        if two in _TWO_CHAR_OPS:
            yield Token(TokenKind.OP, two, two, i)
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            yield Token(TokenKind.OP, ch, ch, i)
            i += 1
            continue
        if ch in _PUNCT:
            yield Token(TokenKind.PUNCT, ch, ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, sql)
    yield Token(TokenKind.EOF, "", None, n)


def _string(sql: str, i: int):
    # standard SQL string literal with '' as the escape for a quote
    start = i
    i += 1
    parts: List[str] = []
    while True:
        end = sql.find("'", i)
        if end < 0:
            raise ParseError("unterminated string literal", start, sql)
        parts.append(sql[i:end])
        if sql.startswith("''", end):
            parts.append("'")
            i = end + 2
            continue
        i = end + 1
        break
    value = "".join(parts)
    return sql[start:i], value, i
