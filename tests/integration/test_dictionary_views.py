"""Data-dictionary views over the catalog (§2.4.1's dictionary entries)."""

import pytest

from repro.errors import CatalogError, StorageError


class TestUserTables:
    def test_lists_tables_with_owner_and_counts(self, employees_db):
        rows = employees_db.query(
            "SELECT table_name, owner, num_rows FROM user_tables"
            " WHERE table_name = 'employees'")
        assert rows == [("employees", "main", 5)]

    def test_cartridge_index_tables_visible(self, employees_db):
        rows = employees_db.query(
            "SELECT table_name, iot FROM user_tables"
            " WHERE table_name LIKE 'resume_text_index%' ORDER BY 1")
        names = [r[0] for r in rows]
        assert "resume_text_index_terms" in names
        assert "resume_text_index_settings" in names
        iot_flags = dict(rows)
        assert iot_flags["resume_text_index_terms"] is True

    def test_views_are_read_only(self, employees_db):
        with pytest.raises(StorageError):
            employees_db.execute(
                "INSERT INTO user_tables VALUES ('x','y',0,FALSE,0)")


class TestUserIndexes:
    def test_domain_index_row(self, employees_db):
        rows = employees_db.query(
            "SELECT index_name, table_name, index_type, domain_indextype,"
            " parameters FROM user_indexes"
            " WHERE index_name = 'resume_text_index'")
        name, table, kind, indextype, parameters = rows[0]
        assert (name, table, kind) == ("resume_text_index", "employees",
                                       "DOMAIN")
        assert indextype == "TextIndexType"
        assert ":Language English" in parameters

    def test_native_index_row(self, employees_db):
        employees_db.execute("CREATE UNIQUE INDEX emp_id ON employees(id)")
        rows = employees_db.query(
            "SELECT index_type, uniqueness FROM user_indexes"
            " WHERE index_name = 'emp_id'")
        assert rows == [("BTREE", True)]

    def test_drop_reflected(self, employees_db):
        employees_db.execute("DROP INDEX resume_text_index")
        rows = employees_db.query(
            "SELECT index_name FROM user_indexes"
            " WHERE index_name = 'resume_text_index'")
        assert rows == []


class TestUserOperatorsAndIndextypes:
    def test_operators_listed(self, employees_db):
        rows = employees_db.query(
            "SELECT operator_name, binding_count, ancillary_to"
            " FROM user_operators ORDER BY operator_name")
        by_name = {r[0]: r for r in rows}
        assert by_name["Contains"][1] == 1
        assert by_name["Score"][2] == "Contains"

    def test_indextypes_listed(self, employees_db):
        rows = employees_db.query(
            "SELECT indextype_name, operators, implementation, statistics"
            " FROM user_indextypes")
        assert rows == [("TextIndexType", "contains", "TextIndexMethods",
                         "TextStatsMethods")]

    def test_join_dictionary_views(self, employees_db):
        # which tables have a domain index, via a dictionary self-join
        rows = employees_db.query(
            "SELECT t.table_name, i.domain_indextype FROM user_tables t,"
            " user_indexes i WHERE i.table_name = t.table_name"
            " AND i.index_type = 'DOMAIN'")
        assert rows == [("employees", "TextIndexType")]

    def test_aggregate_over_view(self, employees_db):
        rows = employees_db.query(
            "SELECT COUNT(*) FROM user_operators")
        assert rows[0][0] == 2  # Contains + Score

    def test_snapshot_semantics(self, employees_db):
        cursor = employees_db.execute(
            "SELECT table_name FROM user_tables")
        employees_db.execute("CREATE TABLE brand_new (x NUMBER)")
        names = [r[0] for r in cursor.fetchall()]
        # the open cursor sees the snapshot taken at bind time
        assert "brand_new" not in names
        fresh = [r[0] for r in employees_db.query(
            "SELECT table_name FROM user_tables")]
        assert "brand_new" in fresh


class TestSnapshotStatsView:
    def test_heads_tracked_forgotten_and_read_retries(self, db):
        """``heads_tracked`` is a gauge over every store; a prune pass
        moves its rows into ``heads_forgotten``; ``read_retries`` shows
        the MVCC manager's epoch-redo counter."""
        db.execute("CREATE TABLE t (k INTEGER)")
        db.engine.prune_versions()
        stats = "SELECT heads_tracked, heads_forgotten, read_retries," \
            " chain_histogram FROM user_snapshot_stats"
        __, forgotten, retries, __ = db.execute(stats).fetchall()[0]
        db.begin()
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert db.execute(stats).fetchall()[0][:2] == (3, forgotten)
        db.commit()
        db.engine.prune_versions()
        tracked, now, __, histogram = db.execute(stats).fetchall()[0]
        assert (tracked, now) == (0, forgotten + 3)
        assert "1:" in histogram  # walked at length 1, then forgotten
        db.engine.mvcc.stats.read_retries += 2
        assert db.execute(stats).fetchall()[0][2] == retries + 2


class TestOneTableOfViews:
    def test_every_listed_view_builds(self, employees_db):
        from repro.sql.dictionary import VIEW_NAMES
        assert "user_tables" in VIEW_NAMES
        assert "user_executor_stats" in VIEW_NAMES
        for name in VIEW_NAMES:
            employees_db.execute(f"SELECT * FROM {name}").fetchall()

    def test_removed_view_is_an_ordinary_unknown_table(self, employees_db):
        from repro.sql.dictionary import VIEW_NAMES
        assert "user_parallel_stats" not in VIEW_NAMES
        with pytest.raises(CatalogError, match="no such table"):
            employees_db.execute("SELECT * FROM user_parallel_stats")

    def test_concurrent_view_builds_get_distinct_segment_ids(
            self, employees_db):
        """``fetch_or_none`` rejects another snapshot's rowids by
        segment id, so two builds must never share one."""
        import threading
        from repro.sql.dictionary import dictionary_view
        catalog = employees_db.catalog
        ids = [[] for __ in range(8)]

        def build(mine):
            for __ in range(500):
                mine.append(dictionary_view(
                    catalog, "user_operators").storage.segment_id)

        threads = [threading.Thread(target=build, args=(mine,))
                   for mine in ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len({i for mine in ids for i in mine}) == 4000
