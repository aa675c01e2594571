"""Columnar batches and executor statistics for vectorized execution.

The batched pipeline (PR 4) moved row evaluation from one-row-at-a-time
to page-sized lists of tuples; PR 9 compiled the hot predicates into raw
``exec``-generated row kernels.  This module supplies the third step: a
:class:`ColumnBatch` holds one page worth of rows *transposed* into
per-column Python lists, so a single generated loop (see
``compile_vector_kernel`` in :mod:`repro.sql.compile`) evaluates the
whole batch with the interpreter entered once per batch instead of once
per row.  A *selection vector* — a list of surviving row indices —
replaces intermediate row materialization between filter and projection.

Honesty note (documented in DESIGN.md §15): under CPython the win comes
from amortizing interpreter dispatch and attribute lookups across the
batch, not from SIMD or parallel memory access — the GIL still
serializes everything.  ``array``-typed columns (``array('q')`` /
``array('d')``) are supported as an opt-in memory optimization, but
indexing an ``array`` re-boxes each element, so they are *not* used on
the hot path by default.
"""

from array import array
from threading import Lock
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["ColumnBatch", "ExecutorStats"]


class ColumnBatch:
    """One scan batch, stored column-wise.

    ``columns[c][i]`` is the value of column ``c`` in row ``i``;
    ``rowids[i]`` is that row's :class:`~repro.storage.heap.RowId`.
    ``sel`` is the selection vector: the indices (ascending) of rows
    that survived the filter, or ``None`` meaning *all rows selected*.
    Stored SQL NULLs appear exactly as they do in row tuples (the
    ``NULL`` singleton or Python ``None``) — transposition must not
    normalize them, or repr-based parity with the row path breaks.
    """

    __slots__ = ("rowids", "columns", "n", "sel")

    def __init__(self, rowids: List[Any], columns: List[List[Any]],
                 sel: Optional[List[int]] = None):
        self.rowids = rowids
        self.columns = columns
        self.n = len(rowids)
        self.sel = sel

    @classmethod
    def from_rows(cls, rowids: List[Any],
                  rows: Sequence[Sequence[Any]],
                  width: int) -> "ColumnBatch":
        """Transpose ``rows`` (aligned with ``rowids``) into columns."""
        if rows:
            columns = [list(col) for col in zip(*rows)]
        else:
            columns = [[] for __ in range(width)]
        return cls(rowids, columns)

    # -- row-side views ----------------------------------------------------

    def selected(self) -> List[int]:
        """The selection vector, materialized (all rows when ``sel`` is
        None)."""
        if self.sel is None:
            return list(range(self.n))
        return self.sel

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
        pipeline."""
        rowids = self.rowids
        columns = self.columns
        if self.sel is None:
            for i in range(self.n):
                yield rowids[i], [col[i] for col in columns]
        else:
            for i in self.sel:
                yield rowids[i], [col[i] for col in columns]

    # -- optional typed columns (opt-in; see module docstring) -------------

    def with_typed_columns(self) -> "ColumnBatch":
        """Return a copy with int-only columns packed into ``array('q')``.

        Only columns where every value is exactly ``int`` qualify —
        ``bool`` is an ``int`` subclass and ``array('q')`` would coerce
        ``True`` to ``1``, breaking value parity; any NULL disqualifies
        the column since arrays cannot hold sentinels.  This trades
        per-element boxing on read for a compact backing store; it is a
        memory optimization, not a speed one, under CPython.
        """
        packed: List[Any] = []
        for col in self.columns:
            if col and all(type(v) is int for v in col):
                packed.append(array("q", col))
            else:
                packed.append(col)
        return ColumnBatch(self.rowids, packed, self.sel)


class ExecutorStats:
    """Engine-wide counters for the vectorized pipeline.

    Exposed through the ``user_executor_stats`` dictionary view.  All
    mutation goes through a latch: executor instances on pool workers
    record into the same object.
    """

    #: batch-size histogram bucket upper bounds (rows per batch)
    BUCKETS = (16, 64, 256, 1024)

    def __init__(self) -> None:
        self._latch = Lock()
        self.vector_batches = 0        # batches filtered by a vector kernel
        self.vector_rows = 0           # rows those batches carried
        self.fallback_batches = 0      # batches re-run on the interpreter
        self.factory_declines = 0      # kernel factories that returned None
        self.materialize_boundaries = 0  # columnar -> row-tuple crossings
        self.batch_size_histogram: Dict[str, int] = {}

    def _bucket(self, n: int) -> str:
        for bound in self.BUCKETS:
            if n <= bound:
                return f"<={bound}"
        return f">{self.BUCKETS[-1]}"

    def record_vector_batch(self, n_rows: int) -> None:
        bucket = self._bucket(n_rows)
        with self._latch:
            self.vector_batches += 1
            self.vector_rows += n_rows
            self.batch_size_histogram[bucket] = (
                self.batch_size_histogram.get(bucket, 0) + 1)

    def record_fallback_batch(self) -> None:
        with self._latch:
            self.fallback_batches += 1

    def record_factory_decline(self) -> None:
        with self._latch:
            self.factory_declines += 1

    def record_materialize_boundary(self) -> None:
        with self._latch:
            self.materialize_boundaries += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._latch:
            return {
                "vector_batches": self.vector_batches,
                "vector_rows": self.vector_rows,
                "fallback_batches": self.fallback_batches,
                "factory_declines": self.factory_declines,
                "materialize_boundaries": self.materialize_boundaries,
                "batch_size_histogram": dict(self.batch_size_histogram),
            }
