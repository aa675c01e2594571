"""Scan contexts and the workspace manager.

Section 2.2.3 describes two mechanisms for carrying scan state between
``ODCIIndexStart``/``Fetch``/``Close``:

* **Return State** — small state is returned to the server directly (in
  this engine: any Python object returned by ``index_start``);
* **Return Handle** — large state (e.g. a precomputed result set) is
  parked in a temporary *workspace* "primarily memory resident, but can
  be paged to disk", and only an integer handle crosses the interface.

:class:`Workspace` implements the handle registry with a memory budget
and simulated spill accounting, so the E6 ablation can show the
difference.  :class:`PrecomputedScan` and :class:`ScanContext` are the
two scan-implementation styles the paper names (*Precompute All* vs
*Incremental Computation*).  A :class:`ScanContext` lays out its own
fetch results (:meth:`ScanContext.fetch`), so an ``index_start`` that
returns one — directly or under a workspace handle — gets Fetch and
Close from ``IndexMethods``' defaults.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.core.odci import FetchResult
from repro.errors import ODCIError
from repro.storage.page import estimate_size


class Workspace:
    """Registry of handle → scan state for the *return handle* mechanism.

    ``memory_budget`` caps the simulated resident bytes; state beyond
    the budget counts a ``workspace_spills`` statistic (and the bytes as
    ``workspace_spilled_bytes``), standing in for "can be paged to disk".
    """

    def __init__(self, stats: Any, memory_budget: int = 1 << 20):
        self.stats = stats
        self.memory_budget = memory_budget
        self._entries: Dict[int, Any] = {}
        self._sizes: Dict[int, int] = {}
        self._next_handle = 1
        self._resident_bytes = 0
        # workspaces are session-scoped, but a cursor's deferred close
        # can run after the session thread moved on; keep allocate/free
        # atomic so handle accounting never corrupts
        self._latch = threading.Lock()

    def allocate(self, state: Any) -> int:
        """Park ``state`` and return an opaque integer handle."""
        size = estimate_size(state) if not isinstance(state, (list, tuple)) \
            else sum(estimate_size(v) for v in state)
        with self._latch:
            handle = self._next_handle
            self._next_handle += 1
            self._entries[handle] = state
            self._sizes[handle] = size
            self._resident_bytes += size
            overflow = self._resident_bytes - self.memory_budget
        if overflow > 0:
            self.stats.bump("workspace_spills")
            self.stats.bump("workspace_spilled_bytes", overflow)
        return handle

    def resolve(self, handle: int) -> Any:
        """Return the state parked under ``handle``."""
        try:
            return self._entries[handle]
        except KeyError:
            raise ODCIError("Workspace",
                            f"stale or unknown scan handle {handle}") from None

    def free(self, handle: int) -> None:
        """Release ``handle`` and its state."""
        with self._latch:
            if handle in self._entries:
                self._resident_bytes -= self._sizes.pop(handle)
                del self._entries[handle]

    @property
    def live_handles(self) -> int:
        """Number of outstanding handles (leak detection in tests)."""
        return len(self._entries)


class ScanTracker:
    """Registry of open domain-index scans for one statement execution.

    The executor registers a closer (an idempotent callable that drives
    ``ODCIIndexClose`` and frees any workspace handle) for every scan it
    starts, and unregisters it when the scan finishes normally.  A
    cursor abandoned mid-fetch still holds registered closers; closing
    the cursor runs them, so no workspace handles leak without having to
    wait for the garbage collector to finalize the generator stack.
    """

    def __init__(self):
        self._closers: List[Any] = []

    def register(self, closer: Any) -> None:
        """Track an idempotent close callable for an open scan."""
        self._closers.append(closer)

    def unregister(self, closer: Any) -> None:
        """Forget a closer once its scan has completed normally."""
        try:
            self._closers.remove(closer)
        except ValueError:
            pass

    def close_all(self) -> None:
        """Run every outstanding closer (errors are swallowed)."""
        closers, self._closers = self._closers, []
        for closer in reversed(closers):
            try:
                closer()
            except Exception:
                pass


class ScanCloser:
    """One open scan's idempotent closer: the first call unregisters it
    from ``tracker`` (if any) and runs ``close``; later calls do nothing.

    An object rather than a closure: a closure that unregisters itself
    names itself, and that cycle would hold the scan's executor and
    session until a full collection.
    """

    __slots__ = ("_close", "_tracker")

    def __init__(self, close: Callable[[], Any],
                 tracker: Optional[ScanTracker]):
        self._close = close
        self._tracker = tracker
        if tracker is not None:
            tracker.register(self)

    def __call__(self) -> None:
        close, self._close = self._close, None
        if close is None:
            return
        if self._tracker is not None:
            self._tracker.unregister(self)
        close()


class ScanContext:
    """Base class for *incremental* scan state (return-state style).

    Subclasses typically hold an open iterator over index tables; the
    default :meth:`next_batch` drains the rows :meth:`row_source`
    yields.  ``want_aux`` says the rows are ``(rowid, aux)``
    pairs — the query asked for an ancillary value — rather than bare
    rowids; :meth:`fetch` reads it, never the shape of a row (a heap
    rowid is itself a tuple).
    """

    want_aux = False

    def __init__(self):
        self._source: Optional[Iterator[Any]] = None
        self.exhausted = False

    def row_source(self) -> Iterator[Any]:
        """Yield rowids (or (rowid, aux) pairs) one at a time."""
        raise NotImplementedError

    def next_batch(self, nrows: int) -> List[Any]:
        """Pull up to ``nrows`` items from the row source."""
        if self._source is None:
            self._source = self.row_source()
        batch: List[Any] = []
        if self.exhausted:
            return batch
        for item in self._source:
            batch.append(item)
            if len(batch) >= nrows:
                break
        if len(batch) < nrows:
            self.exhausted = True
        return batch

    def fetch(self, nrows: int) -> FetchResult:
        """One ``ODCIIndexFetch`` result: the next batch, its pairs split
        into rowids and aux values when ``want_aux``; a short batch is
        the null terminator."""
        batch = self.next_batch(nrows)
        done = len(batch) < nrows
        if self.want_aux:
            return FetchResult(rowids=[rid for rid, __ in batch],
                               aux=[aux for __, aux in batch], done=done)
        return FetchResult(rowids=batch, done=done)

    def close(self) -> None:
        """Release any resources (default: drop the iterator)."""
        self._source = None


class PrecomputedScan(ScanContext):
    """*Precompute All* scan state: the whole result computed at start.

    "Compute the entire result set in ODCIIndexStart.  Iterate over the
    results returning a row at a time in ODCIIndexFetch.  This is
    generally the case for operators involving some sort of ranking over
    the entire collection." (§2.2.3)
    """

    def __init__(self, results: List[Any], want_aux: bool = False):
        super().__init__()
        self.results = list(results)
        self.want_aux = want_aux
        self._offset = 0

    def next_batch(self, nrows: int) -> List[Any]:
        """The next ``nrows`` results, sliced off the precomputed list."""
        start = self._offset
        batch = self.results[start:start + nrows]
        self._offset = start + len(batch)
        if len(batch) < nrows:
            self.exhausted = True
        return batch

    @property
    def remaining(self) -> int:
        """Rows not yet fetched."""
        return len(self.results) - self._offset
