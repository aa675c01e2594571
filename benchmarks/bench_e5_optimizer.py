"""E5 — §2.4.2: the cost-based choice between domain-index scan and
functional evaluation.

The paper's example: for ``Contains(resume, 'Oracle') AND id = 100`` the
optimizer "estimates the costs of the two plans and picks the cheaper
one, which could be to use the index on id and apply the Contains
operator on the resulting rows".  This bench sweeps the id-predicate
selectivity and reports the chosen plan plus the measured time of both
forced plans, locating the crossover.
"""

import pytest

from repro import Engine
from repro.bench.harness import ReportTable, time_call, warm_min
from repro.bench.workloads import make_corpus
from repro.cartridges.text import install

REPORT_FILE = "e5_optimizer.txt"
N_DOCS = 1200


@pytest.fixture(scope="module")
def workload():
    corpus = make_corpus(N_DOCS, words_per_doc=40, vocabulary_size=300,
                         seed=51)
    db = Engine().connect()
    install(db)
    db.execute("CREATE TABLE employees (id INTEGER, resume VARCHAR2(4000))")
    db.insert_rows("employees",
                   [[i, d] for i, d in enumerate(corpus.documents)])
    db.execute("CREATE INDEX emp_text ON employees(resume)"
               " INDEXTYPE IS TextIndexType")
    db.execute("CREATE INDEX emp_id ON employees(id)")
    db.execute("ANALYZE TABLE employees COMPUTE STATISTICS")
    return db, corpus


def chosen_access_path(db, sql):
    for line in db.explain(sql):
        if "DOMAIN INDEX SCAN" in line:
            return "domain"
        if "INDEX RANGE SCAN" in line:
            return "btree"
        if "TABLE SCAN" in line:
            return "full"
    return "?"


def test_e5_text_only_uses_domain_index(benchmark, workload):
    db, corpus = workload
    word = corpus.common_word(6)
    sql = f"SELECT id FROM employees WHERE Contains(resume, '{word}')"
    assert chosen_access_path(db, sql) == "domain"
    benchmark(lambda: db.execute(sql).fetchall())


def test_e5_paper_example_uses_btree(benchmark, workload):
    db, corpus = workload
    word = corpus.common_word(0)
    sql = (f"SELECT id FROM employees WHERE Contains(resume, '{word}')"
           " AND id = 100")
    assert chosen_access_path(db, sql) == "btree"
    benchmark(lambda: db.execute(sql).fetchall())


def test_e5_report(benchmark, workload, fresh_result_file):
    db, corpus = workload
    word = corpus.common_word(0)

    def build_report():
        table = ReportTable(
            "E5 (§2.4.2) — Contains(resume, word) AND id < K: "
            "chosen plan across id selectivities",
            ["K (id < K)", "id_selectivity", "chosen_plan", "time_s",
             "rows"])
        shape = []
        for k in (5, 25, 100, 400, N_DOCS):
            sql = (f"SELECT id FROM employees "
                   f"WHERE Contains(resume, '{word}') AND id < {k}")
            plan = chosen_access_path(db, sql)
            run = time_call(lambda: db.execute(sql).fetchall())
            table.add_row(k, k / N_DOCS, plan, run.elapsed, run.rows)
            shape.append((k, plan, run))
        return table, shape

    table, shape = benchmark.pedantic(build_report, iterations=1, rounds=1)
    table.emit(fresh_result_file)

    plans = [plan for __, plan, __r in shape]
    # very selective id predicate -> B-tree + functional Contains
    assert plans[0] == "btree"
    # unselective id predicate -> the domain index carries the query
    assert plans[-1] == "domain"
    # a single crossover: once domain is chosen it stays chosen
    first_domain = plans.index("domain")
    assert all(p == "domain" for p in plans[first_domain:])


def test_e5_forced_plan_times_agree_with_choice(benchmark, workload,
                                                fresh_result_file):
    """Measure both plans at the extremes: the optimizer's pick is the
    faster one in each regime."""
    db, corpus = workload
    word = corpus.common_word(0)

    def measure():
        out = {}
        for k, regime in ((5, "selective"), (N_DOCS, "unselective")):
            sql = (f"SELECT id FROM employees "
                   f"WHERE Contains(resume, '{word}') AND id < {k}")
            path = chosen_access_path(db, sql)
            chosen = warm_min(lambda: db.execute(sql).fetchall())
            # force the other plan through DDL: drop the B-tree, or
            # mark the domain index UNUSABLE (functional Contains)
            if path == "btree":
                db.execute("DROP INDEX emp_id")
                forced = warm_min(lambda: db.execute(sql).fetchall())
                db.execute("CREATE INDEX emp_id ON employees(id)")
            else:
                db.execute("ALTER INDEX emp_text UNUSABLE")
                forced = warm_min(lambda: db.execute(sql).fetchall())
                db.execute("ALTER INDEX emp_text REBUILD")
            out[regime] = (path, chosen, forced)
        return out

    results = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = ReportTable(
        "E5b — chosen plan vs forced alternative (each plan run once"
        " untimed, then the fastest of 5 runs)",
        ["regime", "chosen_plan", "chosen_s", "forced_alternative_s",
         "chosen wins"])
    for regime, (path, chosen, forced) in results.items():
        table.add_row(regime, path, chosen.elapsed, forced.elapsed,
                      "yes" if chosen.elapsed <= forced.elapsed else "no")
    table.emit(fresh_result_file)
    # selective: the B-tree plan is no slower than the forced domain plan
    path, chosen, forced = results["selective"]
    assert path == "btree"
    assert chosen.elapsed <= forced.elapsed
    # in the unselective regime the domain index must beat functional
    path, chosen, forced = results["unselective"]
    assert path == "domain"
    assert chosen.elapsed < forced.elapsed
