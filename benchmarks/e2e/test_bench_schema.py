"""Shape checks on the benchmark's output (``pytest benchmarks/e2e -q``).

Not part of tier-1.  Every workload runs once at ``--quick`` scale in both
modes; the numbers mean nothing at that scale, the names, counts and
zero/non-zero pattern do.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
IN_PROCESS = [name for name, cls in WORKLOADS.items() if not cls.wire]
END_TO_END_NAMES = [row[0] for row in metrics.END_TO_END]


def run_quick(workload, trace, cwd=REPO, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)


@pytest.fixture(scope="module")
def results():
    """{(workload, trace): (last-line object, results-file object)}"""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_quick(workload, trace)
            assert done.returncode == 0, done.stderr
            suffix = ".trace.json" if trace else ".json"
            with open(os.path.join(HERE, "results", workload + suffix)) as f:
                out[workload, trace] = (
                    json.loads(done.stdout.splitlines()[-1]), json.load(f))
    return out


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["run_seconds"] == metrics.RUN_SECONDS
    assert spec["workloads"] == [{"name": name, "why": cls.why}
                                 for name, cls in WORKLOADS.items()]
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {key: row[key] for key in ("name", "unit", "better")}
        for row in metrics.PER_LAYER]


def test_names_and_limits():
    names = (list(WORKLOADS) + END_TO_END_NAMES
             + [row["name"] for row in metrics.PER_LAYER])
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(WORKLOADS) <= 8
    assert len(metrics.END_TO_END) <= 16 and len(metrics.PER_LAYER) <= 128
    assert "setup_s" in END_TO_END_NAMES
    assert all(0 < row[3] <= 0.25 for row in metrics.END_TO_END)
    assert all(len(cls.why) <= 200 and "\n" not in cls.why
               for cls in WORKLOADS.values())


def test_every_layer_metric_says_what_it_should_move():
    for row in metrics.PER_LAYER:
        moved = [m.strip() for m in row["moves"].split(",")]
        assert all(m in END_TO_END_NAMES or m == "-" for m in moved), row
        where = [w.strip() for w in row["on"].split(",")]
        assert all(w in WORKLOADS or w == "all" for w in where), row


def test_last_line_has_the_contract_keys(results):
    layer_names = [row["name"] for row in metrics.PER_LAYER]
    for (workload, trace), (last, _) in results.items():
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        expected = layer_names if trace else END_TO_END_NAMES
        assert list(last["metrics"]) == expected, (workload, trace)
        for value in last["metrics"].values():
            assert sorted(value) == ["unit", "value"]
        if not trace:
            assert all(v["value"] > 0 for v in last["metrics"].values())


def test_failure_counts_are_zero(results):
    for _, report in results.values():
        detail = report["detail"]
        assert detail["error_rate"] == 0
        assert detail["result_mismatch"] == 0
        assert detail["lost_acked_writes"] == 0
        assert report["oracle_checks"] > 0


def test_self_time_fits_in_the_wall_clock(results):
    for (workload, trace), (_, report) in results.items():
        if trace:
            budget = report["budget"]
            assert budget["named_self_s"] <= budget["wall_s"], workload
            assert report["per_layer"]["trace.overhead_ratio"] > 0
            assert report["spans"], workload


def test_layers_separate_as_designed(results):
    for workload in ("relational_scan", "oltp_wire"):
        layers = results[workload, 1][1]["per_layer"]
        for name, value in layers.items():
            if name.startswith(("core.dispatch.", "core.callbacks.",
                                "cartridges.")):
                assert value == 0, (workload, name)
    for workload in IN_PROCESS:
        layers = results[workload, 1][1]["per_layer"]
        for name, value in layers.items():
            if name.startswith(("storage.wal.", "storage.durability.",
                                "server.")):
                assert value == 0, (workload, name)
    for workload in ("domain_read", "domain_write", "mixed_wire"):
        layers = results[workload, 1][1]["per_layer"]
        assert layers["core.callbacks.sql_calls"] > 0
        assert layers["cartridges.text.self_s"] > 0
    wire = results["oltp_wire", 1][1]["per_layer"]
    assert wire["server.protocol.frame_s"] > 0
    assert wire["storage.wal.fsyncs"] > 0
    assert results["oltp_wire", 0][1]["detail"]["restart_s"] > 0


def test_without_the_engine_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "results", ".work", "__pycache__", ".pytest_cache"))
    done = run_quick("oltp_wire", 0, cwd=tmp_path,
                     script=str(copy / "run.py"))
    assert done.returncode != 0
    assert not done.stdout.strip()
