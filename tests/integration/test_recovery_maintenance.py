"""Recovery interplay with batched index maintenance and domain-index
builds: losers' deferred maintenance must vanish with the loser, a
crash mid-ODCIIndexCreate must recover FAILED (never VALID), and
cartridge storage tables must ride the WAL like any other table.
"""

import shutil

import pytest

from repro import Database, FetchResult, IndexMethods, IndexState, \
    PrecomputedScan

pytestmark = pytest.mark.crash


class TextishMethods(IndexMethods):
    """A cartridge that keeps its index in a callback storage table —
    the §2.5 'store index data inside the database' pattern, which is
    exactly what lets recovery replay it from the WAL."""

    #: when set, index_create copies the data_dir here mid-build — a
    #: crash-consistent image taken between the IN_PROGRESS barrier and
    #: the VALID barrier
    snapshot_to = None
    snapshot_src = None

    def _table(self, ia):
        return f"{ia.index_name.lower()}_data"

    def index_create(self, ia, parameters, env):
        env.callback.execute(
            f"CREATE TABLE {self._table(ia)} (v VARCHAR2(100), rid ROWID)")
        if TextishMethods.snapshot_to is not None:
            shutil.copytree(TextishMethods.snapshot_src,
                            TextishMethods.snapshot_to)
        column = ia.column_names[0]
        for rid, value in env.callback.query(
                f"SELECT rowid, {column} FROM {ia.table_name}"):
            env.callback.insert_row(self._table(ia), [value, rid])

    def index_drop(self, ia, env):
        env.callback.execute(f"DROP TABLE {self._table(ia)}")

    def index_insert(self, ia, rowid, new_values, env):
        env.callback.insert_row(self._table(ia), [new_values[0], rowid])

    def index_delete(self, ia, rowid, old_values, env):
        env.callback.execute(
            f"DELETE FROM {self._table(ia)} WHERE rid = :1", [rowid])

    def index_start(self, ia, op_info, query_info, env):
        rows = env.callback.query(
            f"SELECT rid FROM {self._table(ia)} WHERE v = :1",
            [op_info.operator_args[0]])
        return PrecomputedScan(sorted(r[0] for r in rows))

    def index_fetch(self, context, nrows, env):
        batch = context.next_batch(nrows)
        return FetchResult(rowids=batch, done=len(batch) < nrows)

    def index_close(self, context, env):
        context.close()


def install_textish(db):
    db.create_function("EqValFunc",
                       lambda v, probe: 1 if v == probe else 0, cost=5.0)
    db.register_methods("TextishMethods", TextishMethods)
    db.execute("CREATE OPERATOR Eq_Val BINDING (VARCHAR2, VARCHAR2)"
               " RETURN NUMBER USING EqValFunc")
    db.execute("CREATE INDEXTYPE TextishType"
               " FOR Eq_Val(VARCHAR2, VARCHAR2) USING TextishMethods")


def crash(db):
    dur = db.engine.durability
    if dur.log_writer is not None:
        dur.log_writer.stop()
    dur.wal.device.simulate_crash()


@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "db")


@pytest.fixture(autouse=True)
def _reset_snapshot():
    TextishMethods.snapshot_to = None
    TextishMethods.snapshot_src = None
    yield
    TextishMethods.snapshot_to = None
    TextishMethods.snapshot_src = None


def make_db(data_dir):
    db = Database(data_dir=data_dir)
    install_textish(db)
    return db


class TestDomainIndexRecovery:
    def test_valid_index_degrades_to_unusable(self, data_dir):
        db = make_db(data_dir)
        db.execute("CREATE TABLE docs (v VARCHAR2(100))")
        db.execute("INSERT INTO docs VALUES ('alpha'), ('beta')")
        db.execute("CREATE INDEX docs_idx ON docs(v)"
                   " INDEXTYPE IS TextishType")
        crash(db)

        db2 = make_db(data_dir)
        index = db2.catalog.get_index("docs_idx")
        assert index.domain.state is IndexState.UNUSABLE
        assert db2.engine.recovery_stats.indexes_degraded == 1
        # skip_unusable_indexes (default on): the query still answers
        # through the functional fallback
        assert db2.execute("SELECT v FROM docs WHERE Eq_Val(v, 'alpha')"
                           ).fetchall() == [("alpha",)]
        db2.close()

    def test_rebuild_repairs_restored_index(self, data_dir):
        db = make_db(data_dir)
        db.execute("CREATE TABLE docs (v VARCHAR2(100))")
        db.execute("INSERT INTO docs VALUES ('alpha'), ('beta')")
        db.execute("CREATE INDEX docs_idx ON docs(v)"
                   " INDEXTYPE IS TextishType")
        crash(db)

        db2 = make_db(data_dir)
        db2.execute("ALTER INDEX docs_idx REBUILD")
        index = db2.catalog.get_index("docs_idx")
        assert index.domain.state is IndexState.VALID
        assert index.domain.methods is not None
        assert db2.execute("SELECT v FROM docs WHERE Eq_Val(v, 'beta')"
                           ).fetchall() == [("beta",)]
        db2.close()

    def test_crash_mid_create_recovers_failed_never_valid(
            self, data_dir, tmp_path):
        snap = str(tmp_path / "mid-create")
        db = make_db(data_dir)
        db.execute("CREATE TABLE docs (v VARCHAR2(100))")
        db.execute("INSERT INTO docs VALUES ('alpha')")
        TextishMethods.snapshot_src = data_dir
        TextishMethods.snapshot_to = snap
        db.execute("CREATE INDEX docs_idx ON docs(v)"
                   " INDEXTYPE IS TextishType")
        db.close()

        # reopen the crash-consistent image captured *inside* the create:
        # the IN_PROGRESS barrier had run, the VALID barrier had not
        db2 = Database(data_dir=snap)
        install_textish(db2)
        index = db2.catalog.get_index("docs_idx")
        assert index.domain.state is IndexState.FAILED
        # FAILED is terminal: only DROP INDEX is allowed
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            db2.execute("ALTER INDEX docs_idx REBUILD")
        db2.execute("DROP INDEX docs_idx FORCE")
        assert not db2.catalog.has_index("docs_idx")
        db2.close()

    def test_restored_index_can_be_dropped_without_cartridge(
            self, data_dir):
        db = make_db(data_dir)
        db.execute("CREATE TABLE docs (v VARCHAR2(100))")
        db.execute("CREATE INDEX docs_idx ON docs(v)"
                   " INDEXTYPE IS TextishType")
        crash(db)

        # reopen WITHOUT re-registering the cartridge: the index is
        # restored UNUSABLE with no methods and no indextype, and DROP
        # must still work (there is no cartridge state in this process)
        db2 = Database(data_dir=data_dir)
        index = db2.catalog.get_index("docs_idx")
        assert index.domain.state is IndexState.UNUSABLE
        db2.execute("DROP INDEX docs_idx FORCE")
        assert not db2.catalog.has_index("docs_idx")
        db2.close()


class TestCartridgeStorageRidesWal:
    def test_committed_maintenance_survives_crash(self, data_dir):
        db = make_db(data_dir)
        db.execute("CREATE TABLE docs (v VARCHAR2(100))")
        db.execute("CREATE INDEX docs_idx ON docs(v)"
                   " INDEXTYPE IS TextishType")
        db.begin()
        db.execute("INSERT INTO docs VALUES ('alpha')")
        db.execute("INSERT INTO docs VALUES ('beta')")
        db.commit()
        crash(db)

        db2 = make_db(data_dir)
        # the cartridge's storage table was maintained through ordinary
        # DML in the same transaction — its rows rode the WAL
        rows = db2.execute("SELECT v FROM docs_idx_data ORDER BY v"
                           ).fetchall()
        assert [r[0] for r in rows] == ["alpha", "beta"]
        db2.close()

    def test_loser_maintenance_discarded(self, data_dir):
        db = make_db(data_dir)
        db.execute("CREATE TABLE docs (v VARCHAR2(100))")
        db.execute("INSERT INTO docs VALUES ('keep')")
        db.execute("CREATE INDEX docs_idx ON docs(v)"
                   " INDEXTYPE IS TextishType")
        db.begin()
        db.execute("INSERT INTO docs VALUES ('loser1')")
        db.execute("INSERT INTO docs VALUES ('loser2')")
        db.engine.durability.wal.flush_all()  # records durable, no commit
        crash(db)

        db2 = make_db(data_dir)
        # base table: loser rows undone
        assert db2.execute("SELECT v FROM docs").fetchall() == [("keep",)]
        # cartridge storage: the maintenance entries died with the loser
        rows = db2.execute("SELECT v FROM docs_idx_data").fetchall()
        assert rows == [("keep",)]
        db2.close()
