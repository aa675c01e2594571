"""ASSOCIATE STATISTICS WITH FUNCTIONS: user-supplied per-call costs."""

import pytest

from repro import StatsMethods
from repro.errors import CatalogError


class PriceyStats(StatsMethods):
    def function_cost(self, operator_name, args, env):
        return 50.0  # make the function look exorbitant


class CheapStats(StatsMethods):
    def function_cost(self, operator_name, args, env):
        return 0.0001


@pytest.fixture
def costed_db(db):
    db.create_function("Score_Row", lambda x: (x or 0) % 7, cost=0.001)
    db.register_stats_type("PriceyStats", PriceyStats)
    db.register_stats_type("CheapStats", CheapStats)
    db.execute("CREATE TABLE t (id INTEGER)")
    db.insert_rows("t", [[i] for i in range(300)])
    db.execute("CREATE INDEX t_id ON t(id)")
    db.execute("ANALYZE TABLE t COMPUTE STATISTICS")
    return db


def full_scan_cost(db, sql):
    import re
    for line in db.explain(sql):
        if "TABLE SCAN" in line:
            return float(re.search(r"cost=([\d.]+)", line).group(1))
    return None


class TestFunctionStatistics:
    SQL = "SELECT * FROM t WHERE Score_Row(id) = 3"

    def test_association_changes_estimated_cost(self, costed_db):
        before = full_scan_cost(costed_db, self.SQL)
        costed_db.execute("ASSOCIATE STATISTICS WITH FUNCTIONS Score_Row"
                          " USING PriceyStats")
        after = full_scan_cost(costed_db, self.SQL)
        assert after > before * 10

    def test_reassociation_overrides(self, costed_db):
        costed_db.execute("ASSOCIATE STATISTICS WITH FUNCTIONS Score_Row"
                          " USING PriceyStats")
        pricey = full_scan_cost(costed_db, self.SQL)
        costed_db.execute("ASSOCIATE STATISTICS WITH FUNCTIONS Score_Row"
                          " USING CheapStats")
        cheap = full_scan_cost(costed_db, self.SQL)
        assert cheap < pricey

    def test_unknown_function_rejected(self, costed_db):
        with pytest.raises(CatalogError):
            costed_db.execute("ASSOCIATE STATISTICS WITH FUNCTIONS Nope"
                              " USING PriceyStats")

    def test_unregistered_stats_type_rejected(self, costed_db):
        with pytest.raises(CatalogError):
            costed_db.execute("ASSOCIATE STATISTICS WITH FUNCTIONS Score_Row"
                              " USING Missing")

    def test_results_unchanged_by_association(self, costed_db):
        baseline = costed_db.execute(self.SQL).fetchall()
        costed_db.execute("ASSOCIATE STATISTICS WITH FUNCTIONS Score_Row"
                          " USING PriceyStats")
        assert costed_db.execute(self.SQL).fetchall() == baseline
