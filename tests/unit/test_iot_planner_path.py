"""The IOT prefix-scan access path (the inverted indexes' fast lookup)."""

import pytest



@pytest.fixture
def terms_db(db):
    db.execute("CREATE TABLE terms (token VARCHAR2(32), rid INTEGER,"
               " freq INTEGER, PRIMARY KEY (token, rid))"
               " ORGANIZATION INDEX")
    rows = []
    for t in range(40):
        for r in range(25):
            rows.append([f"tok{t:02d}", t * 100 + r, r + 1])
    db.insert_rows("terms", rows)
    return db


class TestIOTPrefixPath:
    def test_plan_uses_prefix_scan(self, terms_db):
        plan = terms_db.explain(
            "SELECT rid FROM terms WHERE token = 'tok05'")
        assert any("IOT PREFIX SCAN" in line for line in plan)

    def test_results_correct(self, terms_db):
        rows = terms_db.execute(
            "SELECT rid, freq FROM terms WHERE token = 'tok05'").fetchall()
        assert len(rows) == 25
        assert all(500 <= rid < 525 for rid, __ in rows)

    def test_missing_key_empty(self, terms_db):
        assert terms_db.execute(
            "SELECT rid FROM terms WHERE token = 'nope'").fetchall() == []

    def test_residual_filter_applied(self, terms_db):
        rows = terms_db.execute(
            "SELECT rid FROM terms WHERE token = 'tok05' AND freq > 20"
        ).fetchall()
        assert len(rows) == 5

    def test_range_on_key_not_prefix_scanned(self, terms_db):
        # only equality gets the prefix path; ranges fall back
        plan = terms_db.explain(
            "SELECT rid FROM terms WHERE token > 'tok30'")
        assert not any("IOT PREFIX SCAN" in line for line in plan)
        rows = terms_db.execute(
            "SELECT COUNT(*) FROM terms WHERE token > 'tok30'").fetchall()
        assert rows == [(9 * 25,)]

    def test_non_leading_key_column_not_prefix_scanned(self, terms_db):
        plan = terms_db.explain("SELECT token FROM terms WHERE rid = 505")
        assert not any("IOT PREFIX SCAN" in line for line in plan)
        assert any("TABLE SCAN" in line for line in plan)
        assert terms_db.execute(
            "SELECT token FROM terms WHERE rid = :1", [505]
        ).fetchall() == [("tok05",)]

    def test_full_key_is_one_descent_to_one_row(self, terms_db,
                                                monkeypatch):
        storage = terms_db.catalog.get_table("terms").storage
        examined = []
        real = storage.prefix_batches

        def counting(prefix, low=None, high=None, snapshot=None):
            for rowids, columns in real(prefix, low, high, snapshot):
                examined.extend(rowids)
                yield rowids, columns
        monkeypatch.setattr(storage, "prefix_batches", counting)
        sql = "SELECT freq FROM terms WHERE rid = :1 AND token = :2"
        plan = terms_db.explain(sql, [505, "tok05"])
        assert any("IOT PREFIX SCAN" in line and "key=2/2" in line
                   for line in plan)
        terms_db.execute(sql, [505, "tok05"]).fetchall()  # cache the plan
        del examined[:]
        reads = terms_db.stats.logical_reads
        assert terms_db.execute(sql, [505, "tok05"]).fetchall() == [(6,)]
        # one node per level, root to leaf
        assert terms_db.stats.logical_reads - reads == storage._tree.height
        assert storage._tree.height > 1
        assert len(examined) == 1
        # the one-column form walks the token's whole posting list
        del examined[:]
        plan = terms_db.explain(
            "SELECT freq FROM terms WHERE token = 'tok05' AND freq = 6")
        assert any("key=1/2" in line for line in plan)
        assert terms_db.execute(
            "SELECT freq FROM terms WHERE token = 'tok05' AND freq = 6"
        ).fetchall() == [(6,)]
        assert len(examined) == 25

    def test_full_key_misses_and_nulls(self, terms_db):
        sql = "SELECT freq FROM terms WHERE token = :1 AND rid = :2"
        assert terms_db.execute(sql, ["tok05", 999]).fetchall() == []
        assert terms_db.execute(sql, ["tok05", None]).fetchall() == []
        assert terms_db.execute(sql, [None, 505]).fetchall() == []

    def test_full_key_costed_below_the_prefix(self, terms_db):
        def cost(sql):
            line = next(l for l in terms_db.explain(sql)
                        if "IOT PREFIX SCAN" in l)
            return float(line.split("cost=")[1].split(")")[0])
        assert cost("SELECT freq FROM terms WHERE token = 'tok05'"
                    " AND rid = 505") \
            < cost("SELECT freq FROM terms WHERE token = 'tok05'")

    def test_prefix_scan_cheaper_than_full(self, terms_db):
        before = terms_db.stats.logical_reads
        terms_db.execute(
            "SELECT rid FROM terms WHERE token = 'tok05'").fetchall()
        prefix_reads = terms_db.stats.logical_reads - before
        before = terms_db.stats.logical_reads
        terms_db.execute("SELECT rid FROM terms WHERE freq = -1").fetchall()
        full_reads = terms_db.stats.logical_reads - before
        assert prefix_reads < full_reads / 5

    def test_heap_table_never_prefix_scanned(self, db):
        db.execute("CREATE TABLE h (token VARCHAR2(32), rid INTEGER)")
        db.execute("INSERT INTO h VALUES ('a', 1)")
        plan = db.explain("SELECT rid FROM h WHERE token = 'a'")
        assert not any("IOT PREFIX SCAN" in line for line in plan)

    def test_null_key_returns_nothing(self, terms_db):
        rows = terms_db.execute(
            "SELECT rid FROM terms WHERE token = :1", [None]).fetchall()
        assert rows == []
