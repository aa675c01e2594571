"""Shared fixtures: fresh sessions, optionally with cartridges installed."""

import collections
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

    Its array routines go back to the ``IndexMethods`` defaults, which
    loop the scalar routines once per entry (an update is the default
    delete + insert).  The cartridge writes only array routines, so the
    context supplies a scalar insert and delete that each hand their
    one row to the cartridge's own array bodies, bound before the
    defaults replace them.  It yields a ``Counter`` of the rows those
    scalar routines received, keyed ``"insert"`` / ``"delete"``.
    """
    from repro.cartridges.text.indextype import TextIndexMethods
    from repro.core.odci import IndexMethods

    def one_row(kind, array_body, calls):
        def scalar(self, ia, rowid, values, env):
            calls[kind] += 1
            array_body(self, ia, [(rowid, values)], env)
        return scalar

    @contextlib.contextmanager
    def scalar():
        calls = collections.Counter()
        with monkeypatch.context() as patch:
            for kind in ("insert", "delete"):
                name = f"index_{kind}_batch"
                patch.setattr(TextIndexMethods, f"index_{kind}", one_row(
                    kind, getattr(TextIndexMethods, name), calls))
                patch.setattr(TextIndexMethods, name,
                              getattr(IndexMethods, name))
            yield calls

    return scalar
