"""A domain index records the data format that wrote it.

ChemIndexType stores each molecule's certificate and tautomer key as
hashes.  Format version 2 changed how certificates are computed, so an
index written under version 1 holds keys today's scans never look up: it
would miss every exact match without a word.  Opened under version 2 it
must be UNUSABLE instead, say why (``IndexFormatError``, naming the
REBUILD), answer through the functional operators meanwhile, and come
back VALID at version 2 after ``ALTER INDEX ... REBUILD``.
"""

import pytest

from repro import Engine, IndexFormatError, IndexUnusableError
from repro.bench.workloads import make_molecule_table
from repro.cartridges.chemistry import ChemIndexMethods, install
from repro.cartridges.chemistry import indextype as chem_indextype
from repro.cartridges.chemistry import molecule as chem_molecule
from repro.cartridges.chemistry import search as chem_search
from repro.storage.durability import DurabilityManager
from tests.property.test_prop_vir_chem import reference_certificate

pytestmark = pytest.mark.crash

ROWS = make_molecule_table(60, seed=5)
QUERIES = [ROWS[i][1] for i in (0, 7, 21, 40, 59)] + ["CCO", "C=CC#N"]


def open_db(data_dir):
    db = Engine(data_dir=data_dir).connect()
    install(db)
    return db


def close(db):
    db.close()
    db.engine.close()


def index_row(db):
    return db.execute(
        "SELECT status, format_version FROM user_indexes"
        " WHERE index_name = 'mols_idx'").fetchall()


def uses_domain_scan(db, sql, binds):
    return any("DOMAIN INDEX SCAN" in line for line in db.explain(sql, binds))


def answers(db, table, operator):
    sql = (f"SELECT mid FROM {table} WHERE {operator}(mol, :1) = 1"
           " ORDER BY mid")
    return [db.execute(sql, [query]).fetchall() for query in QUERIES]


def legacy_snapshot(self):
    """The catalog snapshot as written before format versions existed."""
    snapshot = real_describe(self)
    for desc in snapshot["indexes"]:
        if desc["domain"] is not None:
            del desc["domain"]["format_version"]
    return snapshot


real_describe = DurabilityManager.describe_catalog


def build(data_dir, storage="LOB"):
    """A molecule table with a chemistry index, and an index-free copy."""
    db = open_db(data_dir)
    for table in ("mols", "plain"):
        db.execute(f"CREATE TABLE {table} (mid INTEGER, mol VARCHAR2(512))")
        db.insert_rows(table, [list(row) for row in ROWS])
    db.execute("CREATE INDEX mols_idx ON mols(mol) INDEXTYPE IS "
               f"ChemIndexType PARAMETERS (':Storage {storage}')")
    return db


@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "db")


@pytest.fixture
def old_index(data_dir, monkeypatch):
    """``data_dir`` holding an index written by format version 1: the
    full-rounds certificate, no version in the catalog snapshot."""
    with monkeypatch.context() as patch:
        for module in (chem_molecule, chem_indextype, chem_search):
            patch.setattr(module, "certificate", reference_certificate)
        patch.setattr(ChemIndexMethods, "format_version", 1)
        patch.setattr(DurabilityManager, "describe_catalog",
                      legacy_snapshot)
        db = build(data_dir)
        assert index_row(db) == [("VALID", 1)]
        assert uses_domain_scan(
            db, "SELECT mid FROM mols WHERE Chem_Match(mol, :1) = 1",
            [QUERIES[0]])
        close(db)
    return data_dir


class TestUpgrade:
    def test_old_index_is_unusable_with_a_typed_error(self, old_index):
        db = open_db(old_index)
        assert index_row(db) == [("UNUSABLE", 1)]
        domain = db.catalog.get_index("mols_idx").domain
        assert isinstance(domain.error, IndexFormatError)
        assert (domain.error.stored, domain.error.expected) == (1, 2)
        db.skip_unusable_indexes = False
        with pytest.raises(IndexFormatError,
                           match="ALTER INDEX mols_idx REBUILD"):
            db.execute("INSERT INTO mols VALUES (900, 'CCO')")
        assert db.execute("SELECT COUNT(*) FROM mols").fetchall() == [(60,)]
        close(db)

    def test_functional_path_answers_meanwhile(self, old_index):
        db = open_db(old_index)
        sql = "SELECT mid FROM mols WHERE Chem_Match(mol, :1) = 1"
        assert not uses_domain_scan(db, sql, [QUERIES[0]])
        for operator in ("Chem_Match", "Chem_Tautomer"):
            assert answers(db, "mols", operator) \
                == answers(db, "plain", operator)
        close(db)

    def test_rebuild_writes_the_current_version(self, old_index):
        db = open_db(old_index)
        db.execute("ALTER INDEX mols_idx REBUILD")
        assert index_row(db) == [("VALID", 2)]
        assert db.catalog.get_index("mols_idx").domain.error is None
        for operator in ("Chem_Match", "Chem_Tautomer"):
            sql = f"SELECT mid FROM mols WHERE {operator}(mol, :1) = 1"
            assert uses_domain_scan(db, sql, [QUERIES[0]])
            expected = answers(db, "plain", operator)
            assert answers(db, "mols", operator) == expected
            assert sum(map(len, expected)) >= len(QUERIES) - 2
        close(db)
        # the version rides the checkpoint: a clean reopen is not stale
        db = open_db(old_index)
        assert index_row(db) == [("UNUSABLE", 2)]
        assert db.catalog.get_index("mols_idx").domain.error is None
        close(db)


class TestSameVersion:
    def test_restart_keeps_the_plain_unusable_error(self, data_dir):
        db = build(data_dir, storage="FILE")
        assert index_row(db) == [("VALID", 2)]
        close(db)
        db = open_db(data_dir)
        # every restored domain index restarts UNUSABLE (its methods died
        # with the process); only a version mismatch adds the format error
        assert index_row(db) == [("UNUSABLE", 2)]
        domain = db.catalog.get_index("mols_idx").domain
        assert domain.error is None
        db.skip_unusable_indexes = False
        with pytest.raises(IndexUnusableError) as raised:
            db.execute("INSERT INTO mols VALUES (900, 'CCO')")
        assert type(raised.value) is IndexUnusableError
        close(db)


class TestOpen:
    def test_a_version_change_is_caught_at_open(self, chem_db, monkeypatch):
        db = chem_db
        db.execute("CREATE TABLE mols (mid INTEGER, mol VARCHAR2(512))")
        db.insert_rows("mols", [list(row) for row in ROWS])
        db.execute("CREATE INDEX mols_idx ON mols(mol) INDEXTYPE IS "
                   "ChemIndexType")
        domain = db.catalog.get_index("mols_idx").domain
        monkeypatch.setattr(ChemIndexMethods, "format_version", 3)
        db.catalog.open_domain_index(domain)
        assert index_row(db) == [("UNUSABLE", 2)]
        assert (domain.error.stored, domain.error.expected) == (2, 3)
        # a truncate empties the index but does not rewrite it: only
        # REBUILD records the new version
        db.execute("TRUNCATE TABLE mols")
        assert index_row(db) == [("UNUSABLE", 2)]
        db.execute("ALTER INDEX mols_idx REBUILD")
        assert index_row(db) == [("VALID", 3)]
        db.catalog.open_domain_index(domain)
        assert index_row(db) == [("VALID", 3)]

    def test_native_index_row(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("CREATE INDEX t_a ON t(a)")
        assert db.execute(
            "SELECT status, format_version FROM user_indexes"
            " WHERE index_name = 't_a'").fetchall() == [("VALID", None)]
