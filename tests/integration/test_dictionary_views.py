"""Data-dictionary views over the catalog (§2.4.1's dictionary entries)."""

import pytest

from repro.errors import CatalogError, StorageError


class TestUserTables:
    def test_lists_tables_with_owner_and_counts(self, employees_db):
        rows = employees_db.execute(
            "SELECT table_name, owner, num_rows FROM user_tables"
            " WHERE table_name = 'employees'").fetchall()
        assert rows == [("employees", "main", 5)]

    def test_cartridge_index_tables_visible(self, employees_db):
        rows = employees_db.execute(
            "SELECT table_name, iot FROM user_tables"
            " WHERE table_name LIKE 'resume_text_index%' ORDER BY 1"
        ).fetchall()
        names = [r[0] for r in rows]
        assert names == ["resume_text_index_terms"]
        iot_flags = dict(rows)
        assert iot_flags["resume_text_index_terms"] is True

    def test_views_are_read_only(self, employees_db):
        """Every DML on a view is refused before a row is read, also one
        that would change no row."""
        for sql in ("INSERT INTO user_tables VALUES ('x','y',0,FALSE,0)",
                    "INSERT INTO user_tables SELECT * FROM user_tables"
                    " WHERE 1 = 0",
                    "UPDATE user_tables SET table_name = 'x'",
                    "DELETE FROM user_tables",
                    "DELETE FROM user_tables WHERE table_name = 'nothing'",
                    "TRUNCATE TABLE user_tables"):
            with pytest.raises(StorageError, match="read-only"):
                employees_db.execute(sql)
        with pytest.raises(StorageError, match="read-only"):
            employees_db.insert_rows("user_tables", [["x", "y", 0, False, 0]])


class TestUserIndexes:
    def test_domain_index_row(self, employees_db):
        rows = employees_db.execute(
            "SELECT index_name, table_name, index_type, domain_indextype,"
            " parameters FROM user_indexes"
            " WHERE index_name = 'resume_text_index'").fetchall()
        name, table, kind, indextype, parameters = rows[0]
        assert (name, table, kind) == ("resume_text_index", "employees",
                                       "DOMAIN")
        assert indextype == "TextIndexType"
        assert ":Language English" in parameters

    def test_native_index_row(self, employees_db):
        employees_db.execute("CREATE UNIQUE INDEX emp_id ON employees(id)")
        rows = employees_db.execute(
            "SELECT index_type, uniqueness FROM user_indexes"
            " WHERE index_name = 'emp_id'").fetchall()
        assert rows == [("BTREE", True)]

    def test_drop_reflected(self, employees_db):
        employees_db.execute("DROP INDEX resume_text_index")
        rows = employees_db.execute(
            "SELECT index_name FROM user_indexes"
            " WHERE index_name = 'resume_text_index'").fetchall()
        assert rows == []


class TestUserOperatorsAndIndextypes:
    def test_operators_listed(self, employees_db):
        rows = employees_db.execute(
            "SELECT operator_name, binding_count, ancillary_to"
            " FROM user_operators ORDER BY operator_name").fetchall()
        by_name = {r[0]: r for r in rows}
        assert by_name["Contains"][1] == 1
        assert by_name["Score"][2] == "Contains"

    def test_indextypes_listed(self, employees_db):
        rows = employees_db.execute(
            "SELECT indextype_name, operators, implementation, statistics"
            " FROM user_indextypes").fetchall()
        assert rows == [("TextIndexType", "contains", "TextIndexMethods",
                         "TextStatsMethods")]

    def test_join_dictionary_views(self, employees_db):
        # which tables have a domain index, via a dictionary self-join
        rows = employees_db.execute(
            "SELECT t.table_name, i.domain_indextype FROM user_tables t,"
            " user_indexes i WHERE i.table_name = t.table_name"
            " AND i.index_type = 'DOMAIN'").fetchall()
        assert rows == [("employees", "TextIndexType")]

    def test_aggregate_over_view(self, employees_db):
        rows = employees_db.execute(
            "SELECT COUNT(*) FROM user_operators").fetchall()
        assert rows[0][0] == 2  # Contains + Score

    def test_snapshot_semantics(self, employees_db):
        cursor = employees_db.execute(
            "SELECT table_name FROM user_tables")
        employees_db.execute("CREATE TABLE brand_new (x NUMBER)")
        names = [r[0] for r in cursor.fetchall()]
        # the open cursor sees the snapshot taken at bind time
        assert "brand_new" not in names
        fresh = [r[0] for r in employees_db.execute(
            "SELECT table_name FROM user_tables").fetchall()]
        assert "brand_new" in fresh


class TestSnapshotStatsView:
    def test_heads_tracked_forgotten_and_read_retries(self, db):
        """``heads_tracked`` is a gauge over every store; a prune pass
        moves its rows into ``heads_forgotten``; ``read_retries`` shows
        the MVCC manager's epoch-redo counter."""
        db.execute("CREATE TABLE t (k INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.engine.prune_versions()
        stats = "SELECT heads_tracked, heads_forgotten, read_retries," \
            " chain_histogram FROM user_snapshot_stats"
        __, forgotten, retries, __ = db.execute(stats).fetchall()[0]
        db.begin()
        # an INSERT chains nothing (its fence covers it); an UPDATE
        # chains a head over a base holding the old row
        for k in (1, 2, 3):
            db.execute("UPDATE t SET k = :1 WHERE k = :2", [k + 10, k])
        assert db.execute(stats).fetchall()[0][:2] == (3, forgotten)
        db.commit()
        db.engine.prune_versions()
        tracked, now, __, histogram = db.execute(stats).fetchall()[0]
        assert (tracked, now) == (0, forgotten + 3)
        # walked at length 2, then cut to the head and forgotten
        assert " 2:3 " in f" {histogram} ", histogram
        db.engine.mvcc.stats.read_retries += 2
        assert db.execute(stats).fetchall()[0][2] == retries + 2


#: the statistics views as published, column by column: a view may
#: append columns, never rename, move or retype one, and drops one only
#: with the counter it showed
_PUBLISHED = {
    "user_index_maintenance": [
        ("index_name", "VARCHAR2"), ("entries_queued", "INTEGER"),
        ("entries_flushed", "INTEGER"), ("batches_flushed", "INTEGER"),
        ("max_batch", "INTEGER"), ("histogram", "VARCHAR2")],
    "user_lock_stats": [
        ("acquisitions", "INTEGER"), ("waits", "INTEGER"),
        ("wait_seconds", "NUMBER"), ("timeouts", "INTEGER"),
        ("deadlocks", "INTEGER"), ("wait_histogram", "VARCHAR2")],
    "user_snapshot_stats": [
        ("snapshots_taken", "INTEGER"), ("statement_snapshots", "INTEGER"),
        ("transaction_snapshots", "INTEGER"), ("commits", "INTEGER"),
        ("versions_created", "INTEGER"), ("versions_stamped", "INTEGER"),
        ("versions_pruned", "INTEGER"), ("prune_passes", "INTEGER"),
        ("heads_forgotten", "INTEGER"), ("read_retries", "INTEGER"),
        ("heads_tracked", "INTEGER"), ("chain_histogram", "VARCHAR2"),
        ("oldest_active_scn", "INTEGER"), ("current_scn", "INTEGER")],
    "user_wal_stats": [
        ("enabled", "BOOLEAN"), ("records", "INTEGER"),
        ("bytes_written", "INTEGER"), ("fsyncs", "INTEGER"),
        ("commit_records", "INTEGER"), ("commit_waits", "INTEGER"),
        ("group_batches", "INTEGER"), ("group_commits", "INTEGER"),
        ("max_batch", "INTEGER"), ("batch_histogram", "VARCHAR2"),
        ("checkpoints", "INTEGER"), ("truncations", "INTEGER"),
        ("epoch", "INTEGER"), ("active_transactions", "INTEGER"),
        ("dirty_entries", "INTEGER"), ("failed", "BOOLEAN")],
    "user_recovery_stats": [
        ("ran", "BOOLEAN"), ("clean", "BOOLEAN"),
        ("log_records_scanned", "INTEGER"), ("redo_records", "INTEGER"),
        ("redo_skipped", "INTEGER"), ("undo_records", "INTEGER"),
        ("loser_transactions", "INTEGER"),
        ("committed_transactions", "INTEGER"),
        ("indexes_degraded", "INTEGER"), ("tables_restored", "INTEGER"),
        ("pages_restored", "INTEGER"), ("restored_scn", "INTEGER"),
        ("duration_seconds", "NUMBER")],
    "user_server_stats": [
        ("enabled", "BOOLEAN"), ("op", "VARCHAR2"), ("requests", "INTEGER"),
        ("latency_histogram", "VARCHAR2"), ("connections", "INTEGER"),
        ("rejected", "INTEGER"), ("active_sessions", "INTEGER"),
        ("sessions_peak", "INTEGER"), ("bytes_in", "INTEGER"),
        ("bytes_out", "INTEGER"), ("total_requests", "INTEGER"),
        ("errors", "INTEGER"), ("idle_timeouts", "INTEGER")],
    "user_executor_stats": [
        ("vector_batches", "INTEGER"), ("vector_rows", "INTEGER"),
        ("fallback_batches", "INTEGER"), ("factory_declines", "INTEGER"),
        ("materialize_boundaries", "INTEGER"),
        ("batch_size_histogram", "VARCHAR2")],
    "user_tables": [
        ("table_name", "VARCHAR2"), ("owner", "VARCHAR2"),
        ("num_rows", "INTEGER"), ("iot", "BOOLEAN"),
        ("column_count", "INTEGER")],
    "user_indexes": [
        ("index_name", "VARCHAR2"), ("table_name", "VARCHAR2"),
        ("columns", "VARCHAR2"), ("index_type", "VARCHAR2"),
        ("uniqueness", "BOOLEAN"), ("domain_indextype", "VARCHAR2"),
        ("parameters", "VARCHAR2")],
    "user_operators": [
        ("operator_name", "VARCHAR2"), ("binding_count", "INTEGER"),
        ("bindings", "VARCHAR2"), ("ancillary_to", "VARCHAR2")],
    "user_indextypes": [
        ("indextype_name", "VARCHAR2"), ("operators", "VARCHAR2"),
        ("implementation", "VARCHAR2"), ("statistics", "VARCHAR2")],
}


@pytest.fixture
def served_engine(tmp_path):
    """A durable engine behind a server: every counter group exists."""
    from repro.server import Server
    from repro.sql.engine import Engine
    engine = Engine(data_dir=str(tmp_path / "db"))
    server = Server(engine=engine).start()
    yield engine
    server.shutdown()
    engine.close()


def _columns(engine, name):
    from repro.sql.dictionary import dictionary_view
    view = dictionary_view(engine.catalog, name, engine=engine)
    return [(column.name, str(column.datatype)) for column in view.columns]


class TestPublishedColumns:
    def test_published_columns_keep_name_position_and_type(
            self, db, served_engine):
        assert len(_PUBLISHED) == 11
        for engine in (db.engine, served_engine):
            for name, published in _PUBLISHED.items():
                assert _columns(engine, name)[:len(published)] \
                    == published, name

    def test_appended_columns(self, served_engine):
        assert _columns(served_engine, "user_server_stats")[13:] \
            == [("handshake_failures", "INTEGER")]
        for name in ("user_wal_stats", "user_recovery_stats"):
            assert _columns(served_engine, name)[len(_PUBLISHED[name]):] \
                == [("last_checkpoint_lsn", "INTEGER")]

    def test_every_counter_group_is_in_exactly_one_view(
            self, served_engine):
        """Walk what the engine holds: each counter group it reaches is
        the group of exactly one statistics view, and each statistics
        view shows one of them."""
        from repro.metrics import Metrics
        from repro.sql.dictionary import _VIEWS, _Stats
        groups, seen, frontier = {}, set(), [served_engine]
        for __ in range(4):
            deeper = []
            for owner in frontier:
                for value in vars(owner).values():
                    if id(value) in seen:
                        continue
                    seen.add(id(value))
                    if isinstance(value, Metrics):
                        groups[id(value)] = value
                    elif (type(value).__module__.startswith("repro.")
                          and hasattr(value, "__dict__")):
                        deeper.append(value)
            frontier = deeper
        shown = {name: spec.group(served_engine)
                 for name, spec in _VIEWS.items() if isinstance(spec, _Stats)}
        assert len(groups) == len(shown) == 10
        for group in groups.values():
            views = [name for name, g in shown.items() if g is group]
            assert len(views) == 1, (type(group).__name__, views)


class TestGeneratedViews:
    def test_user_io_stats(self, db):
        db.execute("CREATE TABLE t (k INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.execute("SELECT k FROM t").fetchall() == [(1,)]
        db.stats.bump("probe_counter", 3)
        row = db.execute("SELECT logical_reads, logical_writes, extra"
                         " FROM user_io_stats").fetchall()
        assert len(row) == 1
        reads, writes, extra = row[0]
        assert 0 < reads <= db.stats.logical_reads
        assert 0 < writes <= db.stats.logical_writes
        assert "probe_counter:3" in extra.split()

    def test_user_plan_cache_stats(self, db):
        db.execute("CREATE TABLE t (k INTEGER)")
        for __ in range(3):
            db.execute("SELECT k FROM t WHERE k = :1", [1]).fetchall()
        stats = db.plan_cache.stats
        hits, stores = stats.hits, stats.stores
        row = db.execute(
            "SELECT lookups, hits, misses, stores FROM user_plan_cache_stats"
        ).fetchall()
        # the view's own SELECT is one more lookup, made before it reads
        assert row == [(stats.lookups, hits, stats.misses, stores)]
        assert hits >= 2

    def test_user_odci_routine_stats_one_row_per_routine(self, employees_db):
        employees_db.execute(
            "SELECT id FROM employees WHERE Contains(resume, 'Oracle')"
        ).fetchall()
        metrics = employees_db.dispatcher.snapshot()
        rows = employees_db.execute(
            "SELECT routine, invocations, failures, retries, total_seconds"
            " FROM user_odci_routine_stats").fetchall()
        assert [row[0] for row in rows] == sorted(metrics)
        assert {"ODCIIndexStart", "ODCIIndexFetch"} <= set(metrics)
        for routine, invocations, failures, retries, seconds in rows:
            assert invocations >= metrics[routine]["invocations"] >= 1
            assert (failures, retries) == (0, 0)
            assert seconds >= 0.0


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
        """``fetch_batch`` drops another snapshot's rowids by
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
