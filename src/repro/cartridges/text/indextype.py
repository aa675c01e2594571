"""TextIndexType: the ODCIIndex implementation of the text cartridge.

Storage model (§3.2.1): "The text index is an inverted index, storing
the occurrence list for each token in each of the text documents.  The
inverted index is stored in an index-organized table, and is maintained
by performing insert/update/delete on the table whenever the table on
which the text index is defined is modified."

For a domain index named ``ResumeTextIndex`` the cartridge declares one
table, ``resumetextindex_terms``: an IOT ``(token, rid, freq)`` keyed on
``(token, rid)`` holding the occurrence lists.  The PARAMETERS (language
and stop list) are the catalog's canonical string, ``ia.parameters``.

Scan styles: single-term queries stream incrementally from a callback
cursor (*Incremental Computation*); boolean queries precompute the
result set at ``index_start`` and park it in the workspace, returning a
handle (*Precompute All* + *Return Handle*) — both §2.2.3 mechanisms.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from sys import intern
from typing import Any, Dict, List, Optional, Sequence

from repro.cartridges.text.lexer import TextLexer, TextParameters
from repro.cartridges.text.query import Term, TextQuery, parse_query
from repro.core.odci import (
    IndexMethods, IndexTable, ODCIEnv, ODCIIndexInfo, ODCIPredInfo,
    ODCIQueryInfo)
from repro.core.scan_context import PrecomputedScan, ScanContext
from repro.core.stats import IndexCost, StatsMethods
from repro.errors import ODCIError
from repro.types.values import is_null


#: Per-call optimizer cost of the functional TextContains (page units).
FUNCTIONAL_COST = 0.3

#: The functional Contains' lexer: English with its default stop list,
#: built once rather than per evaluated row.
_FUNCTIONAL_LEXER = TextLexer(TextParameters.parse(":Language English"))


#: The inverted index: one posting per (token, row).
_TERMS = IndexTable(
    "terms", "token VARCHAR2(64), rid ROWID, freq INTEGER,"
    " PRIMARY KEY (token, rid)", organization_index=True)

#: The lexer that finds a row's postings from its old text.  It has no
#: stop list, so its ``term_frequencies`` name a superset of the tokens
#: the row was indexed under whatever ``:Ignore`` words ``ALTER INDEX``
#: has added since: no posting is left behind, and a key that was never
#: written is skipped by ``delete_rows``.
_LOCATOR = TextLexer()


def _lexer(ia: ODCIIndexInfo) -> TextLexer:
    """The lexer the index's current PARAMETERS select."""
    return TextLexer(TextParameters.parse(ia.parameters))


def text_contains(text: Any, query: Any) -> int:
    """Functional implementation of the Contains operator.

    Returns the match score (sum of matched positive-term frequencies),
    0 for no match — so a bare ``Contains(...)`` predicate is satisfied
    exactly when the index-based evaluation would return the row.
    """
    if is_null(text) or is_null(query):
        return 0
    freqs = _FUNCTIONAL_LEXER.term_frequencies(str(text))
    tree = parse_query(str(query))
    if not tree.matches(set(freqs)):
        return 0
    score = sum(freqs.get(term, 0) for term in set(tree.terms()))
    return max(1, score)


class _Payloads(dict):
    """freq → the one ``(freq,)`` payload tuple a build shares."""

    def __missing__(self, freq: int):
        payload = self[freq] = (freq,)
        return payload


class _IncrementalTermScan(ScanContext):
    """Streams one term's rowids straight off a callback cursor (a
    query with no ancillary score)."""

    def __init__(self, cursor):
        super().__init__()
        self._cursor = cursor

    def row_source(self):
        for rid, __ in self._cursor:
            yield rid

    def close(self) -> None:
        self._cursor = None
        super().close()


class TextIndexMethods(IndexMethods):
    """ODCIIndex routines of TextIndexType."""

    #: 2: the settings are the catalog's canonical PARAMETERS string;
    #: version 1 kept them in a second table of the index's own
    format_version = 2

    index_tables = (_TERMS,)

    # -- definition routines ---------------------------------------------------

    def parse_parameters(self, parameters: str, current: str) -> str:
        """``:Language`` and ``:Ignore`` (see :class:`TextParameters`),
        merged onto the current settings."""
        return TextParameters.parse(
            parameters, base=TextParameters.parse(current)).render()

    def index_load(self, ia: ODCIIndexInfo, rows: List[Any],
                   env: ODCIEnv) -> None:
        """Sort-group construction: one (rowids, freqs) pair of columns
        per token while lexing, then the buckets emitted in sorted token
        order — sorting the (small) vocabulary instead of every posting.

        The documents are put in rowid order first (a rowid sorts as
        itself; a heap scan already hands them over so), so every bucket
        fills in rowid order and (token, rid) order is a guarantee: the
        direct-path load bulk-builds the IOT bottom-up from its key and
        payload columns, with no load-time sort and no row built per
        posting.
        """
        lexer = _lexer(ia)
        rows.sort(key=itemgetter(0))
        inverted: dict = {}
        get_bucket = inverted.get
        for rid, text in rows:
            if is_null(text):
                continue
            for token, freq in lexer.term_frequencies(str(text)).items():
                bucket = get_bucket(token)
                if bucket is None:
                    bucket = inverted[token] = ([], [])
                bucket[0].append(rid)
                bucket[1].append(freq)
        if inverted:
            keys: List[Any] = []
            payloads: List[Any] = []
            # a payload is immutable, and a build's postings hold a few
            # distinct frequencies: one (freq,) tuple each, not one per
            # posting for the collector to count
            shared = _Payloads()
            for token in sorted(inverted):
                rids, freqs = inverted[token]
                keys += zip(repeat(token), rids)
                payloads += map(shared.__getitem__, freqs)
            env.callback.direct_load(_TERMS.name(ia), keys, payloads,
                                     presorted=True)

    def index_alter(self, ia: ODCIIndexInfo, parameters: str,
                    env: ODCIEnv) -> None:
        """Nothing to rewrite: rows written from now on are lexed with
        the merged settings in ``ia.parameters``, and rows indexed
        before keep their postings."""

    # -- array maintenance routines -------------------------------------------

    def index_insert_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Lex every new row once, then insert all postings in one call.

        A posting's token is interned, so the postings of one term that
        accumulate through maintenance share one string.
        """
        lexer = _lexer(ia)
        postings: List[List[Any]] = []
        for rowid, new_values in entries:
            text = new_values[0]
            if is_null(text):
                continue
            for token, freq in lexer.term_frequencies(str(text)).items():
                postings.append([intern(token), rowid, freq])
        if postings:
            postings.sort(key=itemgetter(0, 1))
            env.callback.insert_rows(_TERMS.name(ia), postings)

    def index_delete_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Delete every row's ``(token, rid)`` keys in one call."""
        keys: List[Any] = []
        for rowid, old_values in entries:
            text = old_values[0]
            if not is_null(text):
                keys.extend((token, rowid) for token
                            in _LOCATOR.term_frequencies(str(text)))
        if keys:
            env.callback.delete_rows(_TERMS.name(ia), keys)

    # -- scan routines ---------------------------------------------------------------

    def index_start(self, ia: ODCIIndexInfo, op_info: ODCIPredInfo,
                    query_info: ODCIQueryInfo, env: ODCIEnv) -> Any:
        """Open a Contains() scan.

        Every callback query here (and in the fetch loop) runs against
        the invoking statement's MVCC snapshot — ``env.callback`` is
        pinned to it, so the postings this scan reads stay frozen even
        while concurrent DML rewrites the terms table mid-fetch.
        """
        if not op_info.operator_args:
            raise ODCIError("ODCIIndexStart",
                            "Contains requires a query argument")
        query_text = op_info.operator_args[0]
        want_aux = query_info.ancillary_label is not None
        if is_null(query_text):
            # the functional Contains is 0 for a NULL query: no row
            return env.workspace.allocate(PrecomputedScan([], want_aux))
        tree = parse_query(str(query_text))
        terms = _TERMS.name(ia)

        if isinstance(tree, Term) and query_info.first_rows and not want_aux:
            # Incremental Computation: stream postings as fetched
            cursor = env.callback.execute(
                f"SELECT rid, freq FROM {terms} WHERE token = :1",
                [tree.word])
            return _IncrementalTermScan(cursor)

        # Precompute All + Return Handle: evaluate the boolean query now
        def postings(term: str) -> Dict[Any, int]:
            rows = env.callback.query(
                f"SELECT rid, freq FROM {terms} WHERE token = :1", [term])
            return {rid: freq for rid, freq in rows}

        scores = tree.evaluate(postings)
        accepted = sorted(
            (rid for rid, score in scores.items()
             if op_info.bound_accepts(score)))
        if want_aux:
            results: List[Any] = [(rid, scores[rid]) for rid in accepted]
        else:
            results = list(accepted)
        return env.workspace.allocate(PrecomputedScan(results, want_aux))


class TextStatsMethods(StatsMethods):
    """ODCIStats routines associated with TextIndexType."""

    def selectivity(self, pred_info: ODCIPredInfo, args: Sequence[Any],
                    env: ODCIEnv) -> Optional[float]:
        """Structural estimate from the boolean query shape.

        Without reachable index tables at selectivity time, the estimate
        is per-term 5%, ANDs multiply, ORs add (capped), NOT complements
        — enough for the optimizer's functional-vs-index choice.
        """
        query_text = None
        if len(args) >= 2 and isinstance(args[1], str):
            query_text = args[1]
        if query_text is None:
            return None
        try:
            tree = parse_query(query_text)
        except Exception:
            return None
        return self._tree_selectivity(tree)

    def _tree_selectivity(self, tree: TextQuery) -> float:
        from repro.cartridges.text import query as q
        if isinstance(tree, q.Term):
            return 0.05
        if isinstance(tree, q.And):
            return min(1.0, self._tree_selectivity(tree.left)
                       * self._tree_selectivity(tree.right) * 4)
        if isinstance(tree, q.Or):
            return min(1.0, self._tree_selectivity(tree.left)
                       + self._tree_selectivity(tree.right))
        if isinstance(tree, q.Not):
            return max(0.0, 1.0 - self._tree_selectivity(tree.operand))
        return 0.05

    def index_cost(self, ia: ODCIIndexInfo, pred_info: ODCIPredInfo,
                   selectivity: float, args: Sequence[Any],
                   env: ODCIEnv) -> Optional[IndexCost]:
        """Document-frequency-based cost using the live terms table."""
        query_text = args[1] if len(args) >= 2 else None
        if not isinstance(query_text, str) or env is None:
            return None
        try:
            tree = parse_query(query_text)
            terms = tree.terms()
        except Exception:
            return None
        io = 1.0
        for term in set(terms):
            row = env.callback.query_one(
                f"SELECT COUNT(*) FROM {_TERMS.name(ia)} "
                f"WHERE token = :1", [term])
            df = row[0] if row else 0
            io += 0.01 * df
        return IndexCost(io_cost=io, cpu_cost=0.1 * max(1, len(terms)))

    def stats_collect(self, ia: ODCIIndexInfo, env: ODCIEnv) -> Optional[dict]:
        row = env.callback.query_one(
            f"SELECT COUNT(*) FROM {_TERMS.name(ia)}")
        distinct = env.callback.query_one(
            f"SELECT COUNT(DISTINCT token) FROM {_TERMS.name(ia)}")
        return {"postings": row[0] if row else 0,
                "distinct_tokens": distinct[0] if distinct else 0}


def install(db) -> None:
    """Register the text cartridge: functions, operators, indextype, stats.

    Mirrors the cartridge-developer steps of §2.2: functional
    implementation → CREATE OPERATOR → implementation type → CREATE
    INDEXTYPE → ASSOCIATE STATISTICS.
    """
    if db.catalog.has_indextype("TextIndexType"):
        return  # already installed
    db.create_function("TextContains", text_contains, cost=FUNCTIONAL_COST)
    db.register_methods("TextIndexMethods", TextIndexMethods)
    db.register_stats_type("TextStatsMethods", TextStatsMethods)
    db.execute("CREATE OPERATOR Contains "
               "BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER "
               "USING TextContains")
    db.execute("CREATE OPERATOR Score ANCILLARY TO Contains")
    db.execute("CREATE INDEXTYPE TextIndexType "
               "FOR Contains(VARCHAR2, VARCHAR2) "
               "USING TextIndexMethods")
    db.execute("ASSOCIATE STATISTICS WITH INDEXTYPES TextIndexType "
               "USING TextStatsMethods")
