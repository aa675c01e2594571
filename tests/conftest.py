"""Shared fixtures: fresh sessions, optionally with cartridges installed."""

import contextlib

import pytest

from repro import Engine


@pytest.fixture
def db():
    """A session on a fresh empty in-memory engine, closed at teardown."""
    session = Engine().connect()
    yield session
    session.engine.close()


@pytest.fixture
def text_db(db):
    """A session with the text cartridge installed."""
    from repro.cartridges.text import install
    install(db)
    return db


@pytest.fixture
def spatial_db(db):
    """A session with the spatial (tile) cartridge installed."""
    from repro.cartridges.spatial import install
    install(db)
    return db


@pytest.fixture
def vir_db(db):
    """A session with the VIR cartridge installed."""
    from repro.cartridges.vir import install
    install(db)
    return db


@pytest.fixture
def chem_db(db):
    """A session with the chemistry cartridge installed."""
    from repro.cartridges.chemistry import install
    install(db)
    return db


@pytest.fixture
def employees_db(text_db):
    """The paper's running example: Employees with a text index."""
    text_db.execute(
        "CREATE TABLE employees (name VARCHAR2(128), id INTEGER,"
        " resume VARCHAR2(1024))")
    rows = [
        ("Amy", 1, "Oracle and UNIX expert with ten years of Oracle"),
        ("Bob", 2, "Java developer who loves Linux kernels"),
        ("Cid", 3, "Oracle DBA with some UNIX scripting skills"),
        ("Dee", 4, "Technical writer covering COBOL and Fortran"),
        ("Eve", 5, "UNIX systems administrator"),
    ]
    for name, ident, resume in rows:
        text_db.execute(
            "INSERT INTO employees VALUES (:1, :2, :3)",
            [name, ident, resume])
    text_db.execute(
        "CREATE INDEX resume_text_index ON employees(resume)"
        " INDEXTYPE IS TextIndexType"
        " PARAMETERS (':Language English :Ignore the a an')")
    return text_db


@pytest.fixture
def scalar_text_routines(monkeypatch):
    """A context in which the text cartridge is a scalar-only indextype.

    Its array routines go back to the ``IndexMethods`` defaults, so the
    dispatcher's shim calls ``ODCIIndexInsert/Delete/Update`` once per
    row and an update is the default delete + insert.  The cartridge's
    scalar insert and delete hand their one row to its array bodies;
    they are rebound to the original bodies here, so they cannot loop
    back through the defaults.
    """
    from repro.cartridges.text.indextype import TextIndexMethods
    from repro.core.odci import IndexMethods

    def one_row(array_body):
        return lambda self, ia, rowid, values, env: array_body(
            self, ia, [(rowid, values)], env)

    @contextlib.contextmanager
    def scalar():
        with monkeypatch.context() as patch:
            for kind in ("insert", "delete"):
                patch.setattr(TextIndexMethods, f"index_{kind}", one_row(
                    getattr(TextIndexMethods, f"index_{kind}_batch")))
            for kind in ("insert", "delete", "update"):
                name = f"index_{kind}_batch"
                patch.setattr(TextIndexMethods, name,
                              getattr(IndexMethods, name))
            yield

    return scalar
