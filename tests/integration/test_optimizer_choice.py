"""E5 behaviour: the cost-based functional-vs-index choice of §2.4.2.

The paper's example: for ``Contains(resume, 'Oracle') AND id = 100`` the
optimizer may pick the B-tree on id and evaluate Contains functionally
on the resulting rows — the domain index is not always used.
"""

import pytest

from repro.bench.workloads import make_corpus


@pytest.fixture
def docs_db(text_db):
    corpus = make_corpus(300, words_per_doc=30, vocabulary_size=200, seed=9)
    text_db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
    text_db.insert_rows("docs", [[i, doc]
                                 for i, doc in enumerate(corpus.documents)])
    text_db.execute("CREATE INDEX docs_text ON docs(body)"
                    " INDEXTYPE IS TextIndexType")
    text_db.execute("CREATE INDEX docs_id ON docs(id)")
    text_db.execute("ANALYZE TABLE docs COMPUTE STATISTICS")
    text_db.corpus = corpus
    return text_db


class TestPaperExample:
    def test_text_only_query_uses_domain_index(self, docs_db):
        word = docs_db.corpus.rare_word()
        plan = docs_db.explain(
            f"SELECT * FROM docs WHERE Contains(body, '{word}')")
        assert any("DOMAIN INDEX SCAN" in line for line in plan)

    def test_combined_with_selective_btree_prefers_btree(self, docs_db):
        word = docs_db.corpus.common_word()
        plan = docs_db.explain(
            f"SELECT * FROM docs WHERE Contains(body, '{word}') AND id = 100")
        assert any("INDEX RANGE SCAN docs_id" in line for line in plan)
        assert not any("DOMAIN INDEX SCAN" in line for line in plan)

    def test_btree_plan_still_answers_correctly(self, docs_db):
        word = docs_db.corpus.common_word()
        rows = docs_db.query(
            f"SELECT id FROM docs WHERE Contains(body, '{word}')"
            " AND id = 100")
        expected = [(100,)] if word in docs_db.corpus.documents[100] else []
        assert rows == expected

    def test_no_index_falls_back_to_functional(self, text_db):
        text_db.execute("CREATE TABLE raw (body VARCHAR2(200))")
        text_db.execute("INSERT INTO raw VALUES ('Oracle rocks')")
        plan = text_db.explain(
            "SELECT * FROM raw WHERE Contains(body, 'Oracle')")
        assert any("TABLE SCAN" in line for line in plan)
        rows = text_db.query(
            "SELECT * FROM raw WHERE Contains(body, 'Oracle')")
        assert len(rows) == 1

    def test_invalid_domain_index_skipped(self, docs_db):
        from repro.core.domain_index import IndexState
        docs_db.catalog.set_index_state("docs_text", IndexState.UNUSABLE)
        word = docs_db.corpus.rare_word()
        plan = docs_db.explain(
            f"SELECT * FROM docs WHERE Contains(body, '{word}')")
        assert not any("DOMAIN INDEX SCAN" in line for line in plan)
        assert any("FUNCTIONAL (index docs_text UNUSABLE)" in line
                   for line in plan)

    def test_non_constant_query_arg_disables_index(self, docs_db):
        # Contains(body, body) cannot be index-evaluated
        plan = docs_db.explain(
            "SELECT * FROM docs WHERE Contains(body, body)")
        assert not any("DOMAIN INDEX SCAN" in line for line in plan)


class TestSelectivitySensitivity:
    def test_selectivity_shrinks_estimated_rows(self, docs_db):
        rare = docs_db.corpus.rare_word()
        common = docs_db.corpus.common_word()
        plan_rare = docs_db.explain(
            f"SELECT * FROM docs WHERE Contains(body, '{rare}')")
        plan_common = docs_db.explain(
            f"SELECT * FROM docs WHERE Contains(body, "
            f"'{common} OR {docs_db.corpus.common_word(1)}')")

        def rows_of(lines):
            import re
            return float(re.search(r"rows=(\d+)", lines[0]).group(1))

        assert rows_of(plan_rare) <= rows_of(plan_common)

    def test_forced_functional_matches_index_results(self, docs_db):
        word = docs_db.corpus.common_word(3)
        indexed = docs_db.query(
            f"SELECT id FROM docs WHERE Contains(body, '{word}')")
        docs_db.execute("DROP INDEX docs_text")
        functional = docs_db.query(
            f"SELECT id FROM docs WHERE Contains(body, '{word}')")
        assert sorted(indexed) == sorted(functional)


class TestJoinUsesTheSingleTableMatcher:
    """A DomainNLJoin candidate goes through the matcher a DomainScan
    does: the indextype is asked about the argument *types*, and a
    sidelined index leaves the FUNCTIONAL note on the fallback join."""

    @pytest.fixture
    def probes_db(self, docs_db):
        docs_db.execute("CREATE TABLE probes (word VARCHAR2(40), n NUMBER)")
        docs_db.execute("INSERT INTO probes VALUES (:1, 7)",
                        [docs_db.corpus.rare_word()])
        return docs_db

    JOIN = ("SELECT d.id FROM probes p, docs d"
            " WHERE Contains(d.body, p.word)")

    def test_join_probes_the_domain_index(self, probes_db):
        plan = probes_db.explain(self.JOIN)
        assert any("DOMAIN NL JOIN probe docs_text" in ln for ln in plan)

    def test_join_over_sidelined_index_shows_the_functional_note(
            self, probes_db):
        from repro.core.domain_index import IndexState
        expected = sorted(probes_db.execute(self.JOIN).fetchall())
        for state in (IndexState.FAILED, IndexState.UNUSABLE):
            probes_db.catalog.set_index_state("docs_text", state)
            plan = probes_db.explain(self.JOIN)
            assert not any("DOMAIN NL JOIN" in ln for ln in plan)
            assert any(ln.strip() == f"FUNCTIONAL (index docs_text "
                                     f"{state.value})" for ln in plan)
            assert sorted(probes_db.execute(self.JOIN).fetchall()) \
                == expected

    def test_overloaded_operator_joins_only_on_the_indexed_signature(
            self, probes_db):
        """TextIndexType declares Contains(VARCHAR2, VARCHAR2); a second
        binding taking a NUMBER is evaluated functionally, join or not."""
        db = probes_db
        db.create_function("ContainsNth",
                           lambda body, n: 1 if len(body) > n else 0)
        operator = db.catalog.get_operator("Contains")
        from repro.core.operators import OperatorBinding
        from repro.types.datatypes import NUMBER, VARCHAR2
        operator.bindings.append(OperatorBinding(
            [VARCHAR2, NUMBER], NUMBER, "ContainsNth"))
        by_number = ("SELECT d.id FROM probes p, docs d"
                     " WHERE Contains(d.body, p.n)")
        plan = db.explain(by_number)
        assert not any("DOMAIN NL JOIN" in ln for ln in plan)
        assert any("NESTED LOOP JOIN" in ln for ln in plan)
        assert len(db.execute(by_number).fetchall()) == 300
        assert any("DOMAIN NL JOIN" in ln for ln in db.explain(self.JOIN))
