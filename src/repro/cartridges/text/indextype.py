"""TextIndexType: the ODCIIndex implementation of the text cartridge.

Storage model (§3.2.1): "The text index is an inverted index, storing
the occurrence list for each token in each of the text documents.  The
inverted index is stored in an index-organized table, and is maintained
by performing insert/update/delete on the table whenever the table on
which the text index is defined is modified."

For a domain index named ``ResumeTextIndex`` the cartridge creates:

* ``resumetextindex_terms`` — IOT ``(token, rid, freq)`` keyed on
  ``(token, rid)``: the occurrence lists;
* ``resumetextindex_settings`` — the persisted PARAMETERS state
  (language + stop list), updated by ALTER INDEX.

Scan styles: single-term queries stream incrementally from a callback
cursor (*Incremental Computation*); boolean queries precompute the
result set at ``index_start`` and park it in the workspace, returning a
handle (*Precompute All* + *Return Handle*) — both §2.2.3 mechanisms.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.cartridges.text.lexer import TextLexer, TextParameters
from repro.cartridges.text.query import Term, TextQuery, parse_query
from repro.core.odci import (
    FetchResult, IndexMethods, ODCIEnv, ODCIIndexInfo, ODCIPredInfo,
    ODCIQueryInfo)
from repro.core.scan_context import PrecomputedScan, ScanContext
from repro.core.stats import IndexCost, StatsMethods
from repro.errors import ODCIError
from repro.types.values import is_null


def _rid_order(row: List[Any]):
    """Sort key for one token bucket: the rowid's plain-tuple mirror."""
    return row[1].sort_key


def _posting_order(row: List[Any]):
    """Sort key putting postings in the terms table's key order."""
    return row[0], row[1].sort_key

#: Per-call optimizer cost of the functional TextContains (page units).
FUNCTIONAL_COST = 0.3


def _terms_table(ia: ODCIIndexInfo) -> str:
    return f"{ia.index_name.lower()}_terms"


def _settings_table(ia: ODCIIndexInfo) -> str:
    return f"{ia.index_name.lower()}_settings"


def _locator(params: TextParameters) -> TextLexer:
    """The lexer that finds a row's postings from its old text.

    It has no stop list, so it yields a superset of the tokens the row
    was indexed under whatever ``:Ignore`` words ``ALTER INDEX`` has
    added since: no posting is left behind, and a key that was never
    written is skipped by ``delete_rows``.
    """
    return TextLexer(TextParameters(language=params.language))


def text_contains(text: Any, query: Any) -> int:
    """Functional implementation of the Contains operator.

    Returns the match score (sum of matched positive-term frequencies),
    0 for no match — so a bare ``Contains(...)`` predicate is satisfied
    exactly when the index-based evaluation would return the row.
    """
    if is_null(text) or is_null(query):
        return 0
    params = TextParameters.parse(":Language English")
    lexer = TextLexer(params)
    freqs = lexer.term_frequencies(str(text))
    tree = parse_query(str(query))
    if not tree.matches(set(freqs)):
        return 0
    score = sum(freqs.get(term, 0) for term in set(tree.terms()))
    return max(1, score)


class _IncrementalTermScan(ScanContext):
    """Streams one term's postings straight off a callback cursor."""

    def __init__(self, cursor, want_aux: bool):
        super().__init__()
        self._cursor = cursor
        self._want_aux = want_aux

    def row_source(self):
        for rid, freq in self._cursor:
            yield (rid, freq) if self._want_aux else rid

    def close(self) -> None:
        self._cursor = None
        super().close()


class TextIndexMethods(IndexMethods):
    """ODCIIndex routines of TextIndexType."""

    def __init__(self):
        self._params_cache: Optional[TextParameters] = None
        # one methods instance serves every session using the index;
        # the latch keeps the cached-parameters snapshot consistent
        # (SQL runs outside it — never hold a cartridge latch across
        # callback SQL, which takes table locks)
        self._latch = threading.Lock()

    # -- parameters persistence ---------------------------------------------

    def _load_params(self, ia: ODCIIndexInfo, env: ODCIEnv) -> TextParameters:
        with self._latch:
            if self._params_cache is not None:
                return self._params_cache
        row = env.callback.query_one(
            f"SELECT value FROM {_settings_table(ia)} WHERE key = 'params'")
        if row is None:
            raise ODCIError("TextIndexMethods",
                            f"index {ia.index_name} has no persisted settings")
        params = TextParameters.parse(row[0])
        with self._latch:
            if self._params_cache is None:
                self._params_cache = params
            return self._params_cache

    def _save_params(self, ia: ODCIIndexInfo, env: ODCIEnv,
                     params: TextParameters) -> None:
        settings = _settings_table(ia)
        env.callback.execute(f"DELETE FROM {settings} WHERE key = 'params'")
        env.callback.execute(
            f"INSERT INTO {settings} VALUES ('params', :1)",
            [params.render()])
        with self._latch:
            self._params_cache = params

    # -- definition routines ---------------------------------------------------

    def index_create(self, ia: ODCIIndexInfo, parameters: str,
                     env: ODCIEnv) -> None:
        params = TextParameters.parse(parameters or "")
        terms = _terms_table(ia)
        env.callback.execute(
            f"CREATE TABLE {terms} ("
            "token VARCHAR2(64), rid ROWID, freq INTEGER,"
            " PRIMARY KEY (token, rid)) ORGANIZATION INDEX")
        env.callback.execute(
            f"CREATE TABLE {_settings_table(ia)} "
            "(key VARCHAR2(32), value VARCHAR2(4000))")
        self._save_params(ia, env, params)
        column = ia.column_names[0]
        existing = env.callback.query(
            f"SELECT rowid, {column} FROM {ia.table_name}")
        lexer = TextLexer(params)
        if getattr(env, "bulk_build", True):
            # sort-group construction: bucket postings per token while
            # lexing, then emit token buckets in sorted token order —
            # sorting the (small) vocabulary instead of every posting.
            # Within a bucket rowids arrive in scan order; the cheap
            # per-bucket sort makes (token, rid) order a guarantee, so
            # the direct-path load bulk-builds the IOT bottom-up with
            # no load-time sort and no per-row re-validation.
            inverted: dict = {}
            get_bucket = inverted.get
            for rid, text in existing:
                if is_null(text):
                    continue
                for token, freq in lexer.term_frequencies(
                        str(text)).items():
                    bucket = get_bucket(token)
                    if bucket is None:
                        bucket = inverted[token] = []
                    bucket.append([token, rid, freq])
            if inverted:
                postings_rows: List[List[Any]] = []
                extend = postings_rows.extend
                for token in sorted(inverted):
                    bucket = inverted[token]
                    bucket.sort(key=_rid_order)
                    extend(bucket)
                env.callback.direct_load(terms, postings_rows,
                                         presorted=True)
        else:
            # per-row seed path: postings in document scan order
            postings_rows = []
            for rid, text in existing:
                if is_null(text):
                    continue
                for token, freq in lexer.term_frequencies(
                        str(text)).items():
                    postings_rows.append([token, rid, freq])
            if postings_rows:
                env.callback.insert_rows(terms, postings_rows)

    def index_alter(self, ia: ODCIIndexInfo, parameters: str,
                    env: ODCIEnv) -> None:
        current = self._load_params(ia, env)
        merged = TextParameters.parse(parameters or "", base=current)
        self._save_params(ia, env, merged)

    def index_drop(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        env.callback.execute(f"DROP TABLE {_terms_table(ia)}")
        env.callback.execute(f"DROP TABLE {_settings_table(ia)}")
        with self._latch:
            self._params_cache = None

    def index_truncate(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        env.callback.execute(f"TRUNCATE TABLE {_terms_table(ia)}")

    # -- maintenance routines -----------------------------------------------------

    def index_insert(self, ia: ODCIIndexInfo, rowid: Any,
                     new_values: Sequence[Any], env: ODCIEnv) -> None:
        self.index_insert_batch(ia, [(rowid, new_values)], env)

    def index_delete(self, ia: ODCIIndexInfo, rowid: Any,
                     old_values: Sequence[Any], env: ODCIEnv) -> None:
        self.index_delete_batch(ia, [(rowid, old_values)], env)

    # -- array maintenance routines -------------------------------------------

    def index_insert_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Lex every new row once, then insert all postings in one call."""
        params = self._load_params(ia, env)
        lexer = TextLexer(params)
        postings: List[List[Any]] = []
        for rowid, new_values in entries:
            text = new_values[0]
            if is_null(text):
                continue
            for token, freq in lexer.term_frequencies(str(text)).items():
                postings.append([token, rowid, freq])
        if postings:
            postings.sort(key=_posting_order)
            env.callback.insert_rows(_terms_table(ia), postings)

    def index_delete_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Delete every row's ``(token, rid)`` keys in one call."""
        locator = _locator(self._load_params(ia, env))
        keys: List[Any] = []
        for rowid, old_values in entries:
            text = old_values[0]
            if not is_null(text):
                keys.extend((token, rowid)
                            for token in set(locator.tokens(str(text))))
        if keys:
            env.callback.delete_rows(_terms_table(ia), keys)

    def index_update_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Apply each row's old-text -> new-text difference: delete the
        tokens that left it, insert the ones that entered it, rewrite
        the ones whose frequency changed — one keyed delete and one
        insert call for the batch."""
        params = self._load_params(ia, env)
        lexer, locator = TextLexer(params), _locator(params)
        stale: List[Any] = []
        postings: List[List[Any]] = []
        for rowid, old_values, new_values in entries:
            old_text, new_text = old_values[0], new_values[0]
            old = {} if is_null(old_text) \
                else locator.term_frequencies(str(old_text))
            new = {} if is_null(new_text) \
                else lexer.term_frequencies(str(new_text))
            for token, freq in old.items():
                if new.get(token) != freq:
                    stale.append((token, rowid))
            for token, freq in new.items():
                if old.get(token) != freq:
                    postings.append([token, rowid, freq])
        terms = _terms_table(ia)
        if stale:
            env.callback.delete_rows(terms, stale)
        if postings:
            postings.sort(key=_posting_order)
            env.callback.insert_rows(terms, postings)

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
        tree = parse_query(str(query_text))
        terms = _terms_table(ia)
        want_aux = query_info.ancillary_label is not None

        if isinstance(tree, Term) and query_info.first_rows and not want_aux:
            # Incremental Computation: stream postings as fetched
            cursor = env.callback.execute(
                f"SELECT rid, freq FROM {terms} WHERE token = :1",
                [tree.word])
            return _IncrementalTermScan(cursor, want_aux=False)

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
        scan = PrecomputedScan(results)
        scan.want_aux = want_aux  # type: ignore[attr-defined]
        return env.workspace.allocate(scan)

    def index_fetch(self, context: Any, nrows: int,
                    env: ODCIEnv) -> FetchResult:
        scan = self._resolve(context, env)
        batch = scan.next_batch(nrows)
        want_aux = getattr(scan, "want_aux", False) \
            or isinstance(scan, _IncrementalTermScan) and scan._want_aux
        if want_aux:
            rowids = [rid for rid, __ in batch]
            aux = [score for __, score in batch]
        else:
            rowids = list(batch)
            aux = None
        return FetchResult(rowids=rowids, aux=aux,
                           done=len(batch) < nrows)

    def index_close(self, context: Any, env: ODCIEnv) -> None:
        scan = self._resolve(context, env)
        scan.close()
        if isinstance(context, int):
            env.workspace.free(context)

    @staticmethod
    def _resolve(context: Any, env: ODCIEnv) -> ScanContext:
        if isinstance(context, int):  # return-handle mechanism
            return env.workspace.resolve(context)
        return context  # return-state mechanism


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
                f"SELECT COUNT(*) FROM {_terms_table(ia)} "
                f"WHERE token = :1", [term])
            df = row[0] if row else 0
            io += 0.01 * df
        return IndexCost(io_cost=io, cpu_cost=0.1 * max(1, len(terms)))

    def stats_collect(self, ia: ODCIIndexInfo, env: ODCIEnv) -> Optional[dict]:
        row = env.callback.query_one(
            f"SELECT COUNT(*) FROM {_terms_table(ia)}")
        distinct = env.callback.query_one(
            f"SELECT COUNT(DISTINCT token) FROM {_terms_table(ia)}")
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
