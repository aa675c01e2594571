"""Counter groups declared once (:mod:`repro.metrics`).

Pins what the declarations must keep publishing — every histogram's
label strings — and what the generic machinery must guarantee: one
record per key even when two sessions touch a key first at once, and
no hand-written ``snapshot`` or view builder left beside it.
"""

import pathlib
import re
import threading

import pytest

from repro.core.dispatch import CallbackDispatcher, IndexMaintenanceStats
from repro.server.server import OpStats
from repro.sql.columnar import ExecutorStats
from repro.txn.locks import LockStats
from repro.txn.mvcc import SnapshotStats

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _bucket(histogram, value):
    """The label ``value`` is counted under."""
    before = dict(histogram)
    histogram.add(value)
    (label,) = [label for label, count in histogram.items()
                if count != before.get(label, 0)]
    return label


class TestHistogramLabels:
    """Each scheme keeps the label strings the views published."""

    def test_lock_waits(self):
        histogram = LockStats().wait_histogram
        assert list(histogram) == ["<1ms", "<10ms", "<100ms", "<1s", ">=1s"]
        # the bound is exclusive: exactly 1 ms is not "<1ms"
        for seconds, label in ((0.0009, "<1ms"), (0.001, "<10ms"),
                               (0.0999, "<100ms"), (0.1, "<1s"),
                               (1.0, ">=1s"), (30.0, ">=1s")):
            assert _bucket(histogram, seconds) == label

    def test_chain_lengths(self):
        histogram = SnapshotStats().chain_histogram
        assert list(histogram) == ["1", "2", "<=4", "<=8", ">8"]
        for length, label in ((1, "1"), (2, "2"), (3, "<=4"), (4, "<=4"),
                              (8, "<=8"), (9, ">8"), (500, ">8")):
            assert _bucket(histogram, length) == label

    def test_maintenance_batch_sizes(self):
        stats = IndexMaintenanceStats()
        assert stats.snapshot()["histogram"] == {}  # only sizes seen
        for size in (1000, 1, 2, 3, 4, 7, 8, 15, 16, 1 << 40):
            stats.histogram.add(size)
        # in bucket order, whatever order the sizes came in
        assert list(stats.snapshot()["histogram"].items()) == [
            ("1", 1), ("2-3", 2), ("4-7", 2), ("8-15", 2), ("16-31", 1),
            ("512-1023", 1), (f"{1 << 40}-{(1 << 41) - 1}", 1)]

    def test_executor_batch_rows(self):
        stats = ExecutorStats()
        assert list(stats.batch_size_histogram.labels) == [
            "<=16", "<=64", "<=256", "<=1024", ">1024"]
        for rows in (1, 16, 17, 64, 256, 1024, 1025):
            stats.record_vector_batch(rows)
        assert stats.snapshot()["batch_size_histogram"] == {
            "<=16": 2, "<=64": 2, "<=256": 1, "<=1024": 1, ">1024": 1}

    def test_server_latency(self):
        histogram = OpStats().latency_histogram
        assert list(histogram.labels) == [
            "<=0.5ms", "<=1ms", "<=2ms", "<=4ms", "<=8ms", "<=16ms",
            "<=32ms", "<=64ms", "<=128ms", "<=256ms", "<=512ms",
            "<=1024ms", ">1024ms"]
        for seconds, label in ((0.0004, "<=0.5ms"), (0.0009, "<=1ms"),
                               (0.003, "<=4ms"), (0.9, "<=1024ms"),
                               (1.5, ">1024ms")):
            assert _bucket(histogram, seconds) == label


@pytest.mark.parametrize("group", ["metrics", "maintenance"])
def test_first_touch_from_two_sessions_keeps_both_counts(group):
    """Two sessions reaching a routine (or an index) first at the same
    moment share one record: the interleaving that used to lose one
    session's counts is forced by a lookup that waits for both."""
    dispatcher = CallbackDispatcher(db=None)
    barrier = threading.Barrier(2)
    mapping = getattr(dispatcher, group)

    class BothMissFirst(type(mapping)):
        # each lookup has missed before either session goes on to
        # record: through ``get`` (get-then-set) or ``__missing__``
        def get(self, key, default=None):
            found = super().get(key, default)
            barrier.wait(timeout=10)
            return found

        def __missing__(self, key):
            barrier.wait(timeout=10)
            return super().__missing__(key)

    racy = BothMissFirst.__new__(BothMissFirst)
    racy.__dict__.update(getattr(mapping, "__dict__", {}))
    setattr(dispatcher, group, racy)

    class IA:
        index_name = "idx"

    def touch():
        if group == "metrics":
            dispatcher.call("ODCIIndexFetch", lambda: None)
        else:
            dispatcher.call_batch(
                "ODCIIndexInsertBatch", "ODCIIndexInsert",
                lambda ia, entries, env: None, IA(), [("rid", ["v"])],
                None, index_name="idx")

    threads = [threading.Thread(target=touch) for __ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
    assert not any(thread.is_alive() for thread in threads)
    (record,) = dict(racy).values()
    if group == "metrics":
        assert record.invocations == 2
    else:
        assert (record.batches_flushed, record.entries_flushed) == (2, 2)


class TestOneDeclarationPerCounter:
    def test_snapshot_is_defined_once(self):
        """``def snapshot`` lives in the generic group and in the inert
        shim the benchmark still reads, nowhere else."""
        found = sorted(
            f"{path.relative_to(SRC)}"
            for path in SRC.rglob("*.py")
            for line in path.read_text().splitlines()
            if re.match(r"\s*def snapshot\b", line))
        assert found == ["metrics.py", "sql/engine.py"]
        assert "class _RemovedParallelStats" in (
            SRC / "sql" / "engine.py").read_text()

    def test_dictionary_has_no_per_stats_builder(self):
        text = (SRC / "sql" / "dictionary.py").read_text()
        builders = re.findall(r"^def (_user_\w+)", text, re.MULTILINE)
        assert builders == ["_user_tables", "_user_indexes",
                            "_user_operators", "_user_indextypes"]
