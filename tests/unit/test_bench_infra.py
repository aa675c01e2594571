"""Benchmark infrastructure: workload generators and the harness."""

import json

import pytest

from repro import Engine
from repro.bench.harness import (
    Baseline, BenchScript, Gate, Measurement, ReportTable, assert_gates,
    io_delta, time_call, time_to_first_row)
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


def _fails(gate, cases, for_test=False):
    return gate.failure(cases, for_test) is not None


class TestGates:
    def test_floor(self):
        gate = Gate("scan.speedup", ">=", 2.0)
        assert not _fails(gate, {"scan": {"speedup": 2.0}})
        assert _fails(gate, {"scan": {"speedup": 1.99}})

    def test_strict_floor(self):
        gate = Gate("plan.speedup", ">", 1.0)
        assert not _fails(gate, {"plan": {"speedup": 1.01}})
        assert _fails(gate, {"plan": {"speedup": 1.0}})

    def test_ceiling(self):
        gate = Gate("rescan.ratio", "<=", 1.2)
        assert not _fails(gate, {"rescan": {"ratio": 1.2}})
        assert _fails(gate, {"rescan": {"ratio": 1.21}})

    def test_non_numeric(self):
        met = Gate("scaling.met", "==", True)
        assert not _fails(met, {"scaling": {"met": True}})
        assert _fails(met, {"scaling": {"met": False}})
        none = Gate("run.deadlocks", "==", 0)
        assert not _fails(none, {"run": {"deadlocks": 0}})
        assert _fails(none, {"run": {"deadlocks": 2}})

    def test_bound_read_from_the_results(self):
        gate = Gate("g.fsyncs", "<", "p.fsyncs")
        assert not _fails(gate, {"g": {"fsyncs": 9}, "p": {"fsyncs": 10}})
        failure = gate.failure({"g": {"fsyncs": 10}, "p": {"fsyncs": 10}})
        assert failure == "g.fsyncs is 10, not < p.fsyncs (10)"

    def test_derived_reading(self):
        gate = Gate("rows.best", ">=", 100,
                    read=lambda cases: max(cases["rows"].values()))
        assert not _fails(gate, {"rows": {"1": 50, "32": 100}})
        assert _fails(gate, {"rows": {"1": 50, "32": 99}})

    def test_each_side_holds_its_own_bound(self):
        looser = Gate("agg.speedup", ">=", 1.3, test=1.1)
        cases = {"agg": {"speedup": 1.2}}
        assert _fails(looser, cases)
        assert not _fails(looser, cases, for_test=True)
        check_only = Gate("agg.speedup", ">=", 1.3, test=None)
        assert not _fails(check_only, cases, for_test=True)
        test_only = Gate("agg.speedup", ">", None, test=1.25)
        assert not _fails(test_only, cases)
        assert _fails(test_only, cases, for_test=True)

    def test_assert_gates(self):
        gates = (Gate("a.x", ">=", 1.0), Gate("a.y", "<=", 2.0, test=None))
        assert_gates(gates, {"cases": {"a": {"x": 1.0, "y": 5.0}}})
        with pytest.raises(AssertionError, match="a.x is 0.5"):
            assert_gates(gates, {"cases": {"a": {"x": 0.5, "y": 1.0}}})


class TestBaseline:
    def test_ratio_without_a_cap(self):
        baseline = Baseline(("scan.speedup",), 0.8)
        recorded = {"scan": {"speedup": 10.0}}
        assert baseline.failures({"scan": {"speedup": 8.0}}, recorded) == []
        assert baseline.failures({"scan": {"speedup": 7.9}}, recorded)

    def test_ratio_with_a_cap(self):
        baseline = Baseline(("scan.speedup",), 0.8, cap=8.0)
        recorded = {"scan": {"speedup": 40.0}}
        # both sides clamp at 8: the floor is 6.4, not 32
        assert baseline.failures({"scan": {"speedup": 6.4}}, recorded) == []
        assert baseline.failures({"scan": {"speedup": 6.3}}, recorded)

    def test_a_reading_the_recording_lacks_is_not_compared(self):
        baseline = Baseline(("scan.speedup",), 0.8)
        assert baseline.failures({"scan": {"speedup": 0.1}}, {}) == []


def _toy(tmp_path, speedup):
    """A bench script under ``tmp_path/benchmarks`` whose one case reads
    ``speedup``, gated at 2.0 and against its recording."""
    def run(smoke):
        return {"meta": {"smoke": smoke},
                "cases": {"scan": {"speedup": speedup}}}

    def render(results):
        table = ReportTable("toy", ["case", "speedup"])
        table.add_row("scan", results["cases"]["scan"]["speedup"])
        return table

    (tmp_path / "benchmarks").mkdir(exist_ok=True)
    return BenchScript(str(tmp_path / "benchmarks" / "bench_toy.py"), run,
                       render, (Gate("scan.speedup", ">=", 2.0),),
                       Baseline(("scan.speedup",), 0.8))


class TestBenchScript:
    def test_paths(self, tmp_path):
        bench = _toy(tmp_path, 3.0)
        assert bench.json_path == str(tmp_path / "BENCH_toy.json")
        assert bench.report_path == str(
            tmp_path / "benchmarks" / "results" / "toy.txt")

    def test_a_missing_baseline_is_a_failure(self, tmp_path):
        bench = _toy(tmp_path, 3.0)
        assert bench.check(bench.run(True)) == [
            f"no committed baseline at {bench.json_path}"]

    def test_plain_run_writes_the_json_and_the_report(self, tmp_path,
                                                      capsys):
        bench = _toy(tmp_path, 3.0)
        assert bench.main([]) == 0
        text = (tmp_path / "BENCH_toy.json").read_text()
        expected = {"cases": {"scan": {"speedup": 3.0}},
                    "meta": {"smoke": False}}
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert "scan | 3" in (tmp_path / "benchmarks" / "results"
                              / "toy.txt").read_text()
        assert f"wrote {bench.json_path}" in capsys.readouterr().out

    def test_check_passes_against_its_recording(self, tmp_path):
        bench = _toy(tmp_path, 3.0)
        bench.main([])
        assert bench.main(["--smoke", "--check"]) == 0

    def test_check_fails_and_writes_nothing(self, tmp_path, capsys):
        _toy(tmp_path, 10.0).main([])
        recorded = (tmp_path / "BENCH_toy.json").read_text()
        report = (tmp_path / "benchmarks" / "results" / "toy.txt"
                  ).read_text()
        capsys.readouterr()

        assert _toy(tmp_path, 1.5).main(["--smoke", "--check"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "PERF CHECK FAILED: scan.speedup is 1.5, not >= 2.0",
            "PERF CHECK FAILED: scan.speedup fell below 0.8 of the "
            "baseline (baseline 10.0, now 1.5)"]
        assert (tmp_path / "BENCH_toy.json").read_text() == recorded
        assert (tmp_path / "benchmarks" / "results" / "toy.txt"
                ).read_text() == report

    def test_check_without_a_baseline_writes_nothing(self, tmp_path,
                                                     capsys):
        assert _toy(tmp_path, 3.0).main(["--check"]) == 1
        assert "PERF CHECK FAILED: no committed baseline" \
            in capsys.readouterr().err
        assert not (tmp_path / "BENCH_toy.json").exists()
        assert not (tmp_path / "benchmarks" / "results").exists()


@pytest.mark.parametrize("name", ["executor", "maintenance", "mvcc",
                                  "server", "wal"])
def test_each_committed_recording_passes_its_own_gates(name):
    """A committed ``BENCH_<name>.json`` holds every reading its script's
    ``GATES`` and ``BASELINE`` name, within their bounds."""
    import importlib.util
    import pathlib
    path = (pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
            / f"bench_{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with open(script.BENCH.json_path) as handle:
        recorded = json.load(handle)
    assert script.BENCH.check(recorded) == []
