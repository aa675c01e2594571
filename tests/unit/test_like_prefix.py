"""LIKE: a prefix pattern runs as a prefix test, every other pattern as
a regex, and a pattern's regex is built once per pattern text.

The vector kernel picks ``str.startswith`` for a pattern whose one
wildcard is a single trailing ``%`` — as a literal at plan time, as a
bind once per execution — and the interpreter keeps the regex, so the
two-way differential below pits one against the other over strings
that hold the wildcards, newlines and regex metacharacters themselves.
"""

import re

import pytest

from repro.testing import interpreter_forced
from repro.types.values import NULL, sql_like

pytestmark = pytest.mark.vectorized

#: each pattern's shape: a prefix, an empty prefix, a doubled or inner
#: ``%``, a ``_`` (inside a prefix and alone), a regex metacharacter
PATTERNS = ["", "%", "a%", "ab%", "ab%%", "a_%", "a.%", "(%", "%b", "a%b"]

VALUES = [None, "", "a", "ab", "ac", "a_", "a_b", "a%", "a%b", "ab%",
          "a.c", "axc", "a\nb", "\na", "(", "(x", "((", "b", "xb",
          "a.*", "[a]", "a\\b", "ab\n", None, "A", "abc", "zzz"]


@pytest.fixture
def data(db):
    db.execute("CREATE TABLE w (id INTEGER, s VARCHAR2(8))")
    db.executemany("INSERT INTO w VALUES (:1, :2)",
                   [[i, v] for i, v in enumerate(VALUES)])
    return db


def _quoted(pattern):
    return "'" + pattern.replace("'", "''") + "'"


def _outcomes(db, sql, binds):
    rows = db.execute(sql, binds).fetchall()
    with interpreter_forced(db):
        return rows, db.execute(sql, binds).fetchall()


@pytest.mark.parametrize("negated", [False, True], ids=["like", "not_like"])
@pytest.mark.parametrize("bind", [False, True], ids=["literal", "bind"])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_kernel_interpreter_and_sql_like_agree(data, pattern, bind,
                                               negated):
    op = "NOT LIKE" if negated else "LIKE"
    sql = (f"SELECT id, s FROM w WHERE s {op} "
           f"{':1' if bind else _quoted(pattern)} ORDER BY id")
    binds = [pattern] if bind else []
    assert any("TABLE SCAN" in ln and "[VECTORIZED]" in ln
               for ln in data.explain(sql, binds))
    vectorized, interpreted = _outcomes(data, sql, binds)
    expected = [(i, v) for i, v in enumerate(VALUES) if v is not None
                and sql_like(v, pattern) is not negated]
    assert vectorized == interpreted == expected


def test_each_pattern_selects_a_proper_subset():
    """The corpus tells the shapes apart: no pattern's matches are all
    or none of the non-null values, save ``'%'``."""
    values = [v for v in VALUES if v is not None]
    for pattern in PATTERNS:
        matched = [v for v in values if sql_like(v, pattern)]
        assert 0 < len(matched) < len(values) or pattern == "%"


@pytest.mark.parametrize("op", ["LIKE", "NOT LIKE"])
@pytest.mark.parametrize("null", [None, NULL], ids=["None", "NULL"])
def test_a_null_bind_still_declines_the_factory(data, op, null):
    stats = data.engine.executor_stats
    before = stats.snapshot()["factory_declines"]
    sql = f"SELECT id FROM w WHERE s {op} :1"
    assert data.execute(sql, [null]).fetchall() == []
    assert stats.snapshot()["factory_declines"] > before


def test_an_interpreted_scan_builds_its_pattern_once(db, monkeypatch):
    """``sql_like`` runs per row on the interpreter; the regex of one
    pattern text is built once, not once a row."""
    db.execute("CREATE TABLE m (s VARCHAR2(16))")
    db.executemany("INSERT INTO m VALUES (:1)",
                   [[f"memo{i % 7}-once{i}"] for i in range(2000)])
    pattern = "memo3-once_%"
    built = []
    compile_ = re.compile

    def spy(source, *args, **kwargs):
        if "once" in str(source):
            built.append(source)
        return compile_(source, *args, **kwargs)
    monkeypatch.setattr(re, "compile", spy)
    with interpreter_forced(db):
        rows = db.execute("SELECT s FROM m WHERE s LIKE :1",
                          [pattern]).fetchall()
    assert len(rows) == len(range(3, 2000, 7))
    assert len(built) == 1
