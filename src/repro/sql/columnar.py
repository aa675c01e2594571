"""Columnar batches and executor statistics for vectorized execution.

A :class:`ColumnBatch` holds one batch of rows — a storage's scan batch
or one fetch of index-returned rowids — *transposed* into read-only column
sequences, so one generated loop (``compile_vector_kernel`` in
:mod:`repro.sql.compile`) filters the whole batch with the interpreter
entered once per batch instead of once per row, and a *selection
vector* of surviving row indices replaces row materialization between
filter and projection.  Under CPython the win is amortized interpreter
dispatch, not SIMD: the GIL still serializes everything (DESIGN.md §15).
"""

from dataclasses import dataclass
from threading import Lock
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.metrics import Histogram, Metrics, histogram

__all__ = ["ColumnBatch", "ExecutorStats"]


class ColumnBatch:
    """One scan batch, stored column-wise.

    ``columns[c][i]`` is the value of column ``c`` in row ``i``, in a
    tuple nothing writes (a heap page's columns are its shared image);
    ``rowids[i]`` is that row's rowid — from a heap page a
    :class:`~repro.storage.heap.PageRowIds`, which builds it on access,
    so compare rowids with ``==``, never ``is``.
    ``sel`` is the selection vector: the indices (ascending) of rows
    that survived the filter, or ``None`` meaning *all rows selected*.
    ``aux[i]``, when ``aux`` is not None, is the ancillary value a
    domain index returned with row ``i`` (see ``Executor._contexts``).
    Stored SQL NULLs appear exactly as they do in row tuples (the
    ``NULL`` singleton or Python ``None``) — transposition must not
    normalize them, or repr-based parity with the row path breaks.
    """

    __slots__ = ("rowids", "columns", "n", "sel", "aux")

    def __init__(self, rowids: Sequence[Any],
                 columns: Sequence[Sequence[Any]],
                 sel: Optional[List[int]] = None):
        self.rowids = rowids
        self.columns = columns
        self.n = len(rowids)
        self.sel = sel
        self.aux: Optional[List[Any]] = None

    @classmethod
    def from_rows(cls, rowids: List[Any],
                  rows: Sequence[Sequence[Any]]) -> "ColumnBatch":
        """Transpose ``rows`` (aligned with ``rowids``) into column tuples
        (an empty batch has none: nothing reads the columns of one)."""
        return cls(rowids, list(zip(*rows)))

    # -- row-side views ----------------------------------------------------

    def selected(self) -> List[int]:
        """The selection vector, materialized (all rows when ``sel`` is
        None)."""
        return list(range(self.n)) if self.sel is None else self.sel

    def selected_count(self) -> int:
        return self.n if self.sel is None else len(self.sel)

    #: a batch counts (and tests true) by its selected rows, like the
    #: row-context lists it stands in for in the scan loops
    __len__ = selected_count

    def row(self, i: int) -> List[Any]:
        """Materialize row ``i`` as a list (one value per column)."""
        return [col[i] for col in self.columns]

    def iter_rows(self) -> Iterator[Tuple[Any, List[Any]]]:
        """Yield ``(rowid, row_list)`` for each *selected* row, in row
        order — the materialization boundary back to the tuple
        pipeline.  A batch with every row selected is transposed in C."""
        rowids, columns = self.rowids, self.columns
        if self.sel is None:
            return zip(rowids, map(list, zip(*columns)))
        return ((rowids[i], [col[i] for col in columns]) for i in self.sel)


@dataclass
class ExecutorStats(Metrics):
    """Engine-wide counters for the vectorized pipeline.

    Exposed through the ``user_executor_stats`` dictionary view.  All
    mutation goes through a latch: sessions on server threads run
    executors that record into the same object.
    """

    vector_batches: int = 0          # batches filtered by a vector kernel
    vector_rows: int = 0             # rows those batches carried
    fallback_batches: int = 0        # batches re-run on the interpreter
    factory_declines: int = 0        # kernel factories that returned None
    materialize_boundaries: int = 0  # columnar -> row-tuple crossings
    #: selected rows per vectorized batch
    batch_size_histogram: Histogram = histogram(
        (16, 64, 256, 1024), ("<=16", "<=64", "<=256", "<=1024", ">1024"))

    def __post_init__(self) -> None:
        self._latch = Lock()

    def record_vector_batch(self, n_rows: int) -> None:
        with self._latch:
            self.vector_batches += 1
            self.vector_rows += n_rows
            self.batch_size_histogram.add(n_rows)

    def record_fallback_batch(self) -> None:
        with self._latch:
            self.fallback_batches += 1

    def record_factory_decline(self) -> None:
        with self._latch:
            self.factory_declines += 1

    def record_materialize_boundary(self) -> None:
        with self._latch:
            self.materialize_boundaries += 1
