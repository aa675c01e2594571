"""Deterministic testing utilities for the extensible-indexing engine."""

from contextlib import contextmanager
from typing import Any, Iterable, Iterator, List, Sequence, Tuple

from repro.testing.faults import (FaultPlan, LedgerEntry,
                                  StorageFaultPlan, StorageLedgerEntry)

__all__ = ["FaultPlan", "LedgerEntry",
           "StorageFaultPlan", "StorageLedgerEntry", "interpreter_forced",
           "scanned"]


@contextmanager
def interpreter_forced(session: Any) -> Iterator[Any]:
    """Run ``session``'s statements on the reference interpreter only.

    Plans keep their generated kernels and row functions; executions
    inside the block ignore them.  This is the seam the differential
    suites and ``benchmarks/bench_executor.py`` compare generated code
    against — not an engine, server or handshake option.
    """
    session._interpret_only = True
    try:
        yield session
    finally:
        session._interpret_only = False


def scanned(batches: Iterable[Tuple[Sequence[Any], Sequence[Sequence[Any]]]]
            ) -> List[Tuple[Any, List[Any]]]:
    """``(rowid, row)`` pairs, in order, of a storage scan's ``(rowids,
    columns)`` batches (``scan_batches``, ``prefix_batches``): the rows a
    test compares a scan by."""
    return [(rowid, list(row)) for rowids, columns in batches
            for rowid, row in zip(rowids, zip(*columns))]
