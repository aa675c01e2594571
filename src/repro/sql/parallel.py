"""Async ODCI prefetch and the engine's worker pool.

The extensible-indexing contract hides scan internals behind
``ODCIIndexStart/Fetch/Close`` (§2.2.3), which means the kernel — not
the cartridge — owns overlapping a scan's fetches with the work
downstream of them.  This module is that kernel layer:

* :class:`WorkerPool` — one lazily-started pool of daemon threads per
  :class:`~repro.sql.engine.Engine`, shared by every session.
* :class:`PrefetchPipeline` — bounded-depth async ODCI prefetch: a
  single producer task issues the *next* ``ODCIIndexFetch`` through the
  ``CallbackDispatcher`` while the executor filters/projects the
  previous batch.  Fetches on one scan context stay strictly
  sequential (the protocol is stateful); only the overlap with
  downstream work is concurrent.
* :class:`ParallelStats` — the counters behind ``user_parallel_stats``.

The pool carries I/O overlap only: pure-Python kernels hold the GIL, so
CPU-bound scans run on the calling thread (DESIGN.md §14).

Error and cancellation contract: a fetch exception is re-raised in the
consumer *in stream order* — after every batch that precedes it — so
the dispatcher's fault taxonomy and the pipeline's degrade-and-retry
observe exactly the serial semantics.  Closing the consumer cancels
outstanding work and never leaks a worker.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["WorkerPool", "ParallelStats", "PrefetchPipeline"]


class WorkerPool:
    """A shared pool of daemon worker threads with a FIFO task queue.

    Threads start lazily (first submit) and are marked with a
    thread-local flag so executors can detect they are *already* on a
    pool worker and refuse to prefetch — a producer waiting on a
    nested producer from the same bounded pool is a deadlock, so
    callback SQL run by a cartridge during a prefetched scan always
    fetches serially.
    """

    def __init__(self, size: int = 8, name: str = "repro-parallel"):
        self.size = max(1, size)
        self._name = name
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._threads: List[threading.Thread] = []
        self._idle = 0
        self._shutdown = False
        self._tls = threading.local()

    def submit(self, task: Callable[[], None]) -> None:
        """Queue ``task`` for execution; spawns a thread if all are busy."""
        with self._cond:
            if self._shutdown:
                raise RuntimeError("worker pool is shut down")
            self._queue.append(task)
            if self._idle == 0 and len(self._threads) < self.size:
                thread = threading.Thread(
                    target=self._run,
                    name=f"{self._name}-{len(self._threads)}",
                    daemon=True)
                self._threads.append(thread)
                thread.start()
            else:
                self._cond.notify()

    def on_worker(self) -> bool:
        """True when the calling thread is one of this pool's workers."""
        return getattr(self._tls, "on_worker", False)

    def shutdown(self) -> None:
        """Stop accepting tasks, drain nothing, join the workers."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            self._queue.clear()
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)

    @property
    def started_threads(self) -> int:
        with self._cond:
            return len(self._threads)

    def _run(self) -> None:
        self._tls.on_worker = True
        while True:
            with self._cond:
                while not self._queue and not self._shutdown:
                    self._idle += 1
                    self._cond.wait()
                    self._idle -= 1
                if self._shutdown:
                    return
                task = self._queue.popleft()
            try:
                task()
            except BaseException:  # noqa: BLE001 — tasks report their own
                pass               # errors; a worker must never die


class ParallelStats:
    """Engine-wide counters behind the ``user_parallel_stats`` view."""

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self.worker_busy_seconds = 0.0
        self.prefetch_scans = 0
        self.prefetch_batches = 0
        self.prefetch_abandoned = 0
        #: queue occupancy observed as each prefetched batch arrives
        self.prefetch_depth_histogram: Dict[int, int] = {}
        self.pool_size = 0
        self._first_activity: Optional[float] = None

    def record_prefetch_scan(self) -> None:
        with self._latch:
            self.prefetch_scans += 1
            if self._first_activity is None:
                self._first_activity = time.monotonic()

    def record_prefetch_batch(self, occupancy: int,
                              busy_seconds: float) -> None:
        with self._latch:
            self.prefetch_batches += 1
            self.worker_busy_seconds += busy_seconds
            bucket = self.prefetch_depth_histogram
            bucket[occupancy] = bucket.get(occupancy, 0) + 1

    def record_prefetch_abandoned(self, batches: int) -> None:
        with self._latch:
            self.prefetch_abandoned += batches

    def utilization(self) -> float:
        """Prefetch-producer busy time over pool wall-clock capacity
        since the first prefetched scan (0.0 when nothing ran yet)."""
        with self._latch:
            if self._first_activity is None or self.pool_size <= 0:
                return 0.0
            wall = time.monotonic() - self._first_activity
            if wall <= 0.0:
                return 0.0
            return min(1.0, self.worker_busy_seconds
                       / (wall * self.pool_size))

    def snapshot(self) -> Dict[str, Any]:
        with self._latch:
            return {
                # read by benchmarks/e2e; drop with its reader in a
                # benchmark PR
                "morsels_dispatched": 0,
                "worker_busy_seconds": self.worker_busy_seconds,
                "prefetch_scans": self.prefetch_scans,
                "prefetch_batches": self.prefetch_batches,
                "prefetch_abandoned": self.prefetch_abandoned,
                "depth_histogram": dict(sorted(
                    self.prefetch_depth_histogram.items())),
                "pool_size": self.pool_size,
            }


# ---------------------------------------------------------------------------
# Async ODCI prefetch
# ---------------------------------------------------------------------------

class PrefetchPipeline:
    """Bounded-depth async pipeline over a stateful ODCI fetch loop.

    One producer task runs on the worker pool and issues
    ``fetch() -> FetchResult`` calls *sequentially* (ODCIIndexFetch on
    one scan context is stateful — concurrency here would be a protocol
    violation), parking whenever ``depth`` results are already
    buffered.  The consumer iterates results in fetch order; a fetch
    exception is delivered after every result buffered before it, so
    fault ordering matches the serial loop exactly.

    :meth:`close` is mandatory (the executor calls it in a ``finally``):
    it cancels the producer, waits out any in-flight fetch, and only
    then returns — which is what lets the caller run ``ODCIIndexClose``
    exactly once with no fetch still racing it.
    """

    def __init__(self, pool: WorkerPool, depth: int,
                 fetch: Callable[[], Any],
                 stats: Optional[ParallelStats] = None):
        self.depth = max(1, depth)
        self._cond = threading.Condition()
        self._buffer: deque = deque()
        self._error: Optional[BaseException] = None
        self._producer_done = False
        self._closed = False
        self._finished = threading.Event()
        self._stats = stats
        if stats is not None:
            stats.record_prefetch_scan()
        pool.submit(lambda: self._produce(fetch))

    def _produce(self, fetch: Callable[[], Any]) -> None:
        try:
            while True:
                with self._cond:
                    while len(self._buffer) >= self.depth \
                            and not self._closed:
                        self._cond.wait()
                    if self._closed:
                        return
                began = time.perf_counter()
                try:
                    result = fetch()
                except BaseException as exc:  # noqa: BLE001 — delivered in order
                    with self._cond:
                        self._error = exc
                        self._cond.notify_all()
                    return
                busy = time.perf_counter() - began
                with self._cond:
                    self._buffer.append(result)
                    if self._stats is not None:
                        self._stats.record_prefetch_batch(
                            len(self._buffer), busy)
                    self._cond.notify_all()
                if result.done or not result.rowids:
                    return
        finally:
            with self._cond:
                self._producer_done = True
                self._cond.notify_all()
            self._finished.set()

    def __iter__(self) -> Iterator[Any]:
        while True:
            with self._cond:
                while not self._buffer and self._error is None \
                        and not self._producer_done:
                    self._cond.wait()
                if self._buffer:
                    result = self._buffer.popleft()
                    self._cond.notify_all()
                elif self._error is not None:
                    error, self._error = self._error, None
                    raise error
                else:
                    return
            yield result

    def close(self) -> None:
        """Cancel the producer and wait until no fetch is in flight.

        Buffered-but-unconsumed batches are abandoned (counted in
        stats); after close() returns the scan context is quiescent and
        safe to ODCIIndexClose."""
        with self._cond:
            self._closed = True
            abandoned = len(self._buffer)
            self._buffer.clear()
            self._cond.notify_all()
        self._finished.wait(timeout=60.0)
        if self._stats is not None and abandoned:
            self._stats.record_prefetch_abandoned(abandoned)
