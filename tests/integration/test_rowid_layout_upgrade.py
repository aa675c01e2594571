"""A data directory written when a heap rowid was an instance of a
``tuple`` subclass opens with the same answers.

``data/rowid_subclass_layout`` was written by that layout, and left as
a crash leaves it: its page store holds a heap page and a text index's
terms IOT whose rowids are pickled as ``repro.storage.heap.RowId``, and
its log holds rows with such rowids that committed after the last
checkpoint.  The engine reads every one of them as the plain tuple a
rowid is now, so restart redo replays the log, a ``ROWID`` column still
names its rows, and a REBUILD of the text index answers as before.
"""

import shutil
from pathlib import Path

import pytest

from repro import Engine
from repro.cartridges.text import install

pytestmark = pytest.mark.crash

WRITTEN = Path(__file__).parent / "data" / "rowid_subclass_layout"
WORDS = ["oracle", "text", "index", "rowid", "tuple", "page", "heap", "log"]
#: what the writer stored: 30 documents, then (logged only) document 3
#: rewritten and document 29 deleted
DOCS = {i: " ".join(WORDS[(i + k) % 8] for k in range(3))
        for i in range(29)}
DOCS[3] = "oracle moved"


def test_a_directory_of_the_earlier_layout_opens_with_its_answers(
        tmp_path):
    data_dir = tmp_path / "data"
    shutil.copytree(WRITTEN, data_dir)
    db = Engine(data_dir=str(data_dir)).connect()
    install(db)
    stats = db.engine.recovery_stats
    assert stats.ran and stats.redo_records > 0
    assert dict(db.execute("SELECT id, body FROM docs").fetchall()) == DOCS
    refs = db.execute("SELECT id, target FROM refs").fetchall()
    assert sorted(i for i, __ in refs) \
        == list(range(10)) + list(range(110, 115))
    for ref_id, target in refs:
        assert type(target) is tuple
        assert db.execute("SELECT id FROM docs WHERE rowid = :1",
                          [target]).fetchall() == [(ref_id % 100,)]
    rids = [rid for (rid,) in db.execute(
        "SELECT rid FROM docs_text_terms").fetchall()]
    assert rids and {type(rid) for rid in rids} == {tuple}

    db.execute("ALTER INDEX docs_text REBUILD")
    assert db.execute("SELECT status FROM user_indexes"
                      " WHERE index_name = 'docs_text'").fetchall() \
        == [("VALID",)]
    for word in ("oracle", "heap", "moved"):
        found = db.execute("SELECT id FROM docs WHERE Contains(body, :1)",
                           [word]).fetchall()
        assert sorted(i for (i,) in found) \
            == sorted(i for i, body in DOCS.items() if word in body.split())
    db.close()
    db.engine.close()
