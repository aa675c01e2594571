"""Measurement helpers: wall-clock, first-row latency, I/O deltas, tables,
and the one harness the gated bench scripts run through.

The benchmark modules use these to print the paper-style comparisons
(who wins, by what factor) alongside pytest-benchmark's timing output,
and to persist the same tables into ``benchmarks/results/`` so
EXPERIMENTS.md can cite them.

A gated script (``benchmarks/bench_<name>.py``) declares its bounds as a
table of :class:`Gate` rows and a :class:`Baseline`; :class:`BenchScript`
gives it the ``--smoke`` / ``--check`` command line, the comparison
against the committed ``BENCH_<name>.json``, and the recording, and
:func:`assert_gates` its pytest entry.
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence


@dataclass
class Measurement:
    """One measured run: elapsed seconds, optional first-row latency, I/O."""

    elapsed: float
    first_row: Optional[float] = None
    io: Dict[str, int] = field(default_factory=dict)
    rows: int = 0


def time_call(fn: Callable[[], Any]) -> Measurement:
    """Run ``fn`` once and time it; rows = len(result) when sized."""
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    rows = len(result) if hasattr(result, "__len__") else 0
    return Measurement(elapsed=elapsed, rows=rows)


def warm_min(fn: Callable[[], Any], runs: int = 5) -> Measurement:
    """``fn`` run once untimed — a plan forced through DDL pays its hard
    parse there — then the fastest of ``runs`` timed runs."""
    fn()
    return min((time_call(fn) for __ in range(runs)),
               key=lambda run: run.elapsed)


def fastest(sides: Dict[str, Callable[[], float]],
            rounds: int) -> Dict[str, float]:
    """Each side's fastest of ``rounds`` timed calls.

    ``sides`` maps a name to a callable returning the seconds it timed
    (so a side can leave its set-up and clean-up out).  One untimed call
    of each warms them all; every round calls each side once, the order
    reversed every other round; the collector is off while they run.
    The minimum finds the box's quiet moments, no side always runs on
    the heels of another, and no collection pass lands on one side.
    """
    names = list(sides)
    times: Dict[str, List[float]] = {name: [] for name in names}
    gc.collect()
    gc.disable()
    try:
        for name in names:
            sides[name]()
        for i in range(rounds):
            for name in names if i % 2 == 0 else reversed(names):
                times[name].append(sides[name]())
    finally:
        gc.enable()
    return {name: min(seconds) for name, seconds in times.items()}


def time_to_first_row(iterator_factory: Callable[[], Iterator[Any]]
                      ) -> Measurement:
    """Time both the first yielded row and full consumption."""
    start = time.perf_counter()
    iterator = iterator_factory()
    first: Optional[float] = None
    count = 0
    for __ in iterator:
        if first is None:
            first = time.perf_counter() - start
        count += 1
    elapsed = time.perf_counter() - start
    return Measurement(elapsed=elapsed, first_row=first, rows=count)


def io_delta(db, fn: Callable[[], Any]) -> Measurement:
    """Run ``fn`` and capture the change in the database's I/O counters."""
    before = db.stats.snapshot()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    measurement = Measurement(elapsed=elapsed, io=db.stats.diff(before))
    if hasattr(result, "__len__"):
        measurement.rows = len(result)
    return measurement


class ReportTable:
    """A fixed-width ASCII table, printable and writable to a file."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        """Append one row; floats are rendered with 4 significant places."""
        rendered = []
        for cell in cells:
            if isinstance(cell, float):
                rendered.append(f"{cell:.4g}")
            else:
                rendered.append(str(cell))
        self.rows.append(rendered)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Iterable[str]) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

        separator = "-+-".join("-" * w for w in widths)
        body = [self.title, line(self.headers), separator]
        body.extend(line(row) for row in self.rows)
        return "\n".join(body)

    def emit(self, path: Optional[str] = None) -> str:
        """Print the table and optionally append it to ``path``."""
        text = self.render()
        print("\n" + text + "\n")
        if path is not None:
            with open(path, "a") as handle:
                handle.write(text + "\n\n")
        return text


# -- gated bench scripts ----------------------------------------------------

Cases = Dict[str, Any]

_HOLDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
          "<": operator.lt, "==": operator.eq}

#: a :class:`Gate`'s ``test`` when the pytest entry holds ``check``'s bound
_SAME = object()


def _reading(cases: Cases, path: str) -> Any:
    """The value at ``path`` (keys joined by dots) in a run's cases."""
    value = cases
    for key in path.split("."):
        value = value[key]
    return value


@dataclass(frozen=True)
class Gate:
    """One bound on one reading of a run's ``results["cases"]``.

    ``path`` names the reading; ``read``, when given, derives it from the
    cases instead (``path`` then only labels it).  The reading must
    stand in relation ``op`` to the bound: ``check`` is the bound
    ``--check`` holds, ``test`` the one the pytest entry holds
    (``check``'s unless given).  None leaves the reading to the other
    side.  A bound that is a string is the path of another reading.
    """

    path: str
    op: str
    check: Any
    test: Any = _SAME
    read: Optional[Callable[[Cases], Any]] = None

    def failure(self, cases: Cases, for_test: bool = False) -> Optional[str]:
        """What is wrong with ``cases`` on one side, or None."""
        bound = self.test if for_test and self.test is not _SAME \
            else self.check
        if bound is None:
            return None
        value = (self.read(cases) if self.read is not None
                 else _reading(cases, self.path))
        limit = _reading(cases, bound) if isinstance(bound, str) else bound
        if _HOLDS[self.op](value, limit):
            return None
        named = f"{bound} ({limit})" if isinstance(bound, str) else bound
        return f"{self.path} is {value}, not {self.op} {named}"


@dataclass(frozen=True)
class Baseline:
    """The ratio gate against the committed recording: each reading in
    ``paths`` may not fall below ``tolerance`` times the recording's
    value, both first clamped at ``cap`` when one is given (beyond it
    the exact ratio is scheduling noise).  A reading the recording lacks
    is not compared."""

    paths: Sequence[str]
    tolerance: float
    cap: Optional[float] = None

    def failures(self, cases: Cases, recorded: Cases) -> List[str]:
        cap = float("inf") if self.cap is None else self.cap
        out = []
        for path in self.paths:
            try:
                base = _reading(recorded, path)
            except KeyError:
                continue
            now = _reading(cases, path)
            if min(now, cap) < min(base, cap) * self.tolerance:
                capped = "" if self.cap is None \
                    else f", compared capped at {self.cap}"
                out.append(f"{path} fell below {self.tolerance} of the "
                           f"baseline (baseline {base}, now {now}{capped})")
        return out


def assert_gates(gates: Sequence[Gate], results: Dict[str, Any]) -> None:
    """A pytest entry's assertion: every gate's ``test`` bound holds."""
    failures = [failure for gate in gates
                if (failure := gate.failure(results["cases"], True))]
    assert not failures, failures


@dataclass(frozen=True)
class BenchScript:
    """The command line, check and recording of ``benchmarks/bench_<name>.py``
    (``script`` is its ``__file__``).

    ``run(smoke)`` returns ``{"meta": ..., "cases": ...}`` and ``render``
    a :class:`ReportTable` of it.  A plain run records the results in
    ``BENCH_<name>.json`` at the repository root (after
    ``before_write(results, json_path)``, when given) and appends the
    table to ``benchmarks/results/<name>.txt``; ``--check`` writes
    nothing, and fails on any gate or baseline bound crossed.
    """

    script: str
    run: Callable[[bool], Dict[str, Any]]
    render: Callable[[Dict[str, Any]], ReportTable]
    gates: Sequence[Gate]
    baseline: Baseline
    before_write: Optional[Callable[[Dict[str, Any], str], None]] = None

    @property
    def name(self) -> str:
        return os.path.basename(self.script)[len("bench_"):-len(".py")]

    @property
    def json_path(self) -> str:
        root = os.path.dirname(os.path.dirname(os.path.abspath(self.script)))
        return os.path.join(root, f"BENCH_{self.name}.json")

    @property
    def report_path(self) -> str:
        return os.path.join(os.path.dirname(os.path.abspath(self.script)),
                            "results", f"{self.name}.txt")

    def check(self, results: Dict[str, Any]) -> List[str]:
        """Every ``--check`` failure of ``results``."""
        cases = results["cases"]
        failures = [failure for gate in self.gates
                    if (failure := gate.failure(cases))]
        if not os.path.exists(self.json_path):
            return failures + [f"no committed baseline at {self.json_path}"]
        with open(self.json_path) as handle:
            recorded = json.load(handle)["cases"]
        return failures + self.baseline.failures(cases, recorded)

    def write(self, results: Dict[str, Any]) -> str:
        if self.before_write is not None:
            self.before_write(results, self.json_path)
        with open(self.json_path, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.makedirs(os.path.dirname(self.report_path), exist_ok=True)
        self.render(results).emit(self.report_path)
        return self.json_path

    def main(self, argv: Optional[Sequence[str]] = None) -> int:
        # the script's own docstring: under ``python bench_<name>.py``
        # its module is ``__main__``
        parser = argparse.ArgumentParser(
            description=sys.modules[self.run.__module__].__doc__)
        parser.add_argument("--smoke", action="store_true",
                            help="small sizes for CI")
        parser.add_argument("--check", action="store_true",
                            help="hold the gates and compare against the "
                                 "committed baseline instead of "
                                 "overwriting it")
        args = parser.parse_args(argv)

        results = self.run(args.smoke)
        if args.check:
            self.render(results).emit()
            failures = self.check(results)
            for failure in failures:
                print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
            return 1 if failures else 0
        print(f"wrote {self.write(results)}")
        return 0
