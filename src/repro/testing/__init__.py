"""Deterministic testing utilities for the extensible-indexing engine."""

from contextlib import contextmanager
from typing import Any, Iterator

from repro.testing.faults import (FaultPlan, LedgerEntry,
                                  StorageFaultPlan, StorageLedgerEntry)

__all__ = ["FaultPlan", "LedgerEntry",
           "StorageFaultPlan", "StorageLedgerEntry", "interpreter_forced"]


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
