"""Measurement helpers: wall-clock, first-row latency, I/O deltas, tables.

The benchmark modules use these to print the paper-style comparisons
(who wins, by what factor) alongside pytest-benchmark's timing output,
and to persist the same tables into ``benchmarks/results/`` so
EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import gc
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
