"""Property tests: the statement-text rewrites equal their character loops.

``normalize_sql`` (the plan-cache key text) and ``_qmark_to_native`` (the
DB-API placeholder rewrite) cut the text at its quoted regions with one
regular expression (``lexer.split_quoted``) and edit only the unquoted
pieces.  The references below are the quote-aware loops both functions
walked, one character at a time, before that; on any text, quoted or
not, the two must agree exactly.
"""

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbapi import _qmark_to_native
from repro.sql.plan_cache import normalize_sql


def reference_normalize_sql(sql: str) -> str:
    out = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in ("'", '"'):
            j = i + 1
            while j < n:
                if sql[j] == ch:
                    if j + 1 < n and sql[j + 1] == ch:  # escaped quote
                        j += 2
                        continue
                    j += 1
                    break
                j += 1
            out.append(sql[i:j])
            i = j
        elif ch.isspace():
            while i < n and sql[i].isspace():
                i += 1
            if out and i < n:  # no leading/trailing separator
                out.append(" ")
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def reference_qmark_to_native(sql: str) -> Tuple[str, int]:
    out: List[str] = []
    count = 0
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in ("'", '"'):
            j = i + 1
            while j < n:
                if sql[j] == ch:
                    if j + 1 < n and sql[j + 1] == ch:
                        j += 2
                        continue
                    j += 1
                    break
                j += 1
            out.append(sql[i:j])
            i = j
        elif ch == "?":
            count += 1
            out.append(f":{count}")
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out), count


#: ASCII and Unicode whitespace: the file, group, record and unit
#: separators, NEL, no-break space, em space, thin space, ideographic space
WHITESPACE = [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
              "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u2009", "\u3000"]
#: zero-width space and BOM: not whitespace to either path
NOT_SPACE = ["\u200b", "\ufeff"]
WORDS = ["SELECT", "a", "FROM", "t", "WHERE", "x", "=", ",", "(", ")",
         ":1", "\xe9", "\u03a9", "1.5", "--", "?", "??"]
QUOTES = ["'", '"', "''", '""', "'a b'", '"A  b"', "'?'", '"?"',
          "'it''s'", '"say ""hi"""', "'\xa0\u3000'"]

quote_free = st.lists(st.sampled_from(WHITESPACE + NOT_SPACE + WORDS),
                      max_size=40).map("".join)
quoted = st.lists(st.sampled_from(WHITESPACE + NOT_SPACE + WORDS + QUOTES),
                  max_size=40).map("".join)
statement_text = st.one_of(quote_free, quoted, st.text(
    alphabet="".join(WHITESPACE + NOT_SPACE) + "'\"?ab", max_size=40))


class TestStatementText:
    @given(statement_text)
    @settings(max_examples=600, deadline=None)
    def test_normalize_sql_equals_loop(self, sql):
        assert normalize_sql(sql) == reference_normalize_sql(sql)

    @given(statement_text)
    @settings(max_examples=600, deadline=None)
    def test_qmark_to_native_equals_loop(self, sql):
        assert _qmark_to_native(sql) == reference_qmark_to_native(sql)

    def test_unicode_space_collapses_outside_quotes(self):
        sql = "\x1cSELECT\x85a\xa0FROM\u2003t\u3000WHERE x = ?\x1f"
        assert normalize_sql(sql) == "SELECT a FROM t WHERE x = ?"
        assert normalize_sql("a\xa0\xa0'b\xa0\xa0'\u3000c") \
            == "a 'b\xa0\xa0' c"
        assert _qmark_to_native("a = ? AND b = ??") \
            == ("a = :1 AND b = :2:3", 3)

    def test_unterminated_quote_keeps_the_rest(self):
        sql = "SELECT  'a  ? b"
        assert normalize_sql(sql) == "SELECT 'a  ? b"
        assert _qmark_to_native(sql) == (sql, 0)
