"""The ODCI callback dispatcher: the server's fault-isolation seam.

The paper's framework asks the server to execute user-supplied indextype
routines in the middle of DDL, DML, query execution, and optimization.
A raw exception (or a hang) escaping one of those routines must not take
the server down with it — Oracle survives a misbehaving cartridge by
marking its domain index FAILED/UNUSABLE and degrading queries to the
operator's functional implementation (§2.6–2.7).

:class:`CallbackDispatcher` is the single choke point every
``ODCIIndex*`` and ``ODCIStats*`` invocation flows through.  It

* **classifies** whatever the routine raised into the typed taxonomy of
  :mod:`repro.errors` — :class:`~repro.errors.CallbackError` for
  database-class failures, :class:`~repro.errors.FatalCallbackError`
  for crash-class (non-database) exceptions, and bounded deterministic
  retry for :class:`~repro.errors.TransientCallbackError`;
* **accounts** per-routine invocation/failure/retry/latency counters
  (:class:`RoutineMetrics`), visible to tests and monitoring;
* **enforces** optional per-routine wall-clock budgets, checked around
  the call (no threads, no signals — a routine that returns after its
  budget is spent fails exactly as if it had raised a
  :class:`~repro.errors.CallbackTimeoutError`);
* **exposes the fault-injection seam**: a
  :class:`~repro.testing.faults.FaultPlan` installed on the dispatcher
  sees every invocation before the cartridge does, can raise injected
  errors or add synthetic latency, and keeps a ledger tests assert on.

The dispatcher never *decides* policy — marking indexes unusable,
retrying statements, or degrading plans is the caller's job; the
dispatcher only guarantees that failure surfaces as a typed, attributed
:class:`~repro.errors.CallbackError` instead of an arbitrary exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import (
    CallbackError, CallbackTimeoutError, DatabaseError, FatalCallbackError,
    TransactionError, TransientCallbackError)
from repro.metrics import Histogram, Keyed, Metrics, histogram

#: How many times a TransientCallbackError is retried before the
#: dispatcher gives up (bounded and deterministic — no sleeps, no jitter).
MAX_TRANSIENT_RETRIES = 3


@dataclass
class RoutineMetrics(Metrics):
    """Per-routine dispatch accounting (``user_odci_routine_stats``)."""

    invocations: int = 0
    failures: int = 0
    retries: int = 0
    total_seconds: float = 0.0


#: batch-size buckets by powers of two: ``1``, ``2-3``, ``4-7``, ...
_SIZE_TOPS = [(2 << k) - 1 for k in range(63)]
_SIZE_LABELS = (["1"] + [f"{(top + 1) // 2}-{top}" for top in _SIZE_TOPS[1:]]
                + [f">{_SIZE_TOPS[-1]}"])


@dataclass
class IndexMaintenanceStats(Metrics):
    """Per-index array-maintenance accounting (``user_index_maintenance``).

    ``entries_queued`` counts maintenance entries the DML layer placed
    in a statement's queue for this index; ``entries_flushed`` counts
    entries that reached a dispatched batch (the difference is entries
    discarded by a failed statement or by degradation).
    ``histogram`` buckets flushed batch sizes by powers of two, so the
    batching win per statement shape is visible.
    """

    entries_queued: int = 0
    entries_flushed: int = 0
    batches_flushed: int = 0
    max_batch: int = 0
    histogram: Histogram = histogram(_SIZE_TOPS, _SIZE_LABELS)

    def record_batch(self, size: int) -> None:
        self.entries_flushed += size
        self.batches_flushed += 1
        if size > self.max_batch:
            self.max_batch = size
        self.histogram.add(size)


def _no_op() -> None:
    """The body of a per-entry fault-seam event (see ``call_batch``)."""


@dataclass
class _Attempt:
    """Outcome of one attempted invocation (internal)."""

    result: Any = None
    error: Optional[BaseException] = None
    elapsed: float = 0.0


class CallbackDispatcher:
    """Routes every ODCI callback through one fault-isolating seam."""

    def __init__(self, db: Any,
                 max_transient_retries: int = MAX_TRANSIENT_RETRIES):
        self.db = db
        self.max_transient_retries = max_transient_retries
        #: routine name -> RoutineMetrics, made on first touch
        self.metrics = Keyed(RoutineMetrics, "routine")
        #: every routine's counters (read by monitoring and benchmarks)
        self.snapshot = self.metrics.snapshot
        #: index name -> IndexMaintenanceStats (array-maintenance seam)
        self.maintenance = Keyed(IndexMaintenanceStats, "index_name")
        #: routine name -> wall-clock budget in seconds
        self.timeouts: Dict[str, float] = {}
        #: budget applied to routines with no specific entry (None = off)
        self.default_timeout: Optional[float] = None
        #: the installed FaultPlan (or None) — the injection seam
        self.fault_plan: Any = None

    # ------------------------------------------------------------------
    # configuration / introspection
    # ------------------------------------------------------------------

    def set_timeout(self, routine: str, seconds: Optional[float]) -> None:
        """Set (or clear, with None) the wall-clock budget for a routine."""
        if seconds is None:
            self.timeouts.pop(routine, None)
        else:
            self.timeouts[routine] = seconds

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def call(self, routine: str, fn: Callable[..., Any], *args: Any,
             index_name: str = "", phase: str = "") -> Any:
        """Invoke ``fn(*args)`` as ODCI routine ``routine``.

        Raises :class:`CallbackError` (or a subclass) on any failure;
        never lets a raw cartridge exception escape.  ``index_name`` and
        ``phase`` attribute the failure so the policy layers above can
        react per index.
        """
        metrics = self.metrics[routine]
        attempts = 0
        while True:
            attempt = self._attempt(routine, fn, args, index_name, metrics)
            error = attempt.error
            if error is None:
                self._check_budget(routine, attempt.elapsed, index_name,
                                   phase, metrics)
                return attempt.result
            if isinstance(error, TransientCallbackError):
                attempts += 1
                if attempts <= self.max_transient_retries:
                    metrics.retries += 1
                    self._trace(f"dispatch:retry {routine}({index_name}) "
                                f"attempt={attempts}")
                    continue
                metrics.failures += 1
                raise CallbackError(
                    routine,
                    f"transient failure persisted after "
                    f"{self.max_transient_retries} retries: {error}",
                    index_name=index_name, phase=phase,
                    cause=error) from error
            if isinstance(error, TransactionError):
                # A deadlock or lock timeout inside callback SQL is the
                # *statement's* concurrency outcome, not a cartridge
                # fault: propagate untyped so the degradation policy
                # (mark index UNUSABLE, retry without maintenance) never
                # fires for it, and the session sees the real
                # DeadlockError/LockTimeoutError.
                raise error
            metrics.failures += 1
            if isinstance(error, CallbackError):
                raise error  # already classified (nested dispatch)
            if isinstance(error, DatabaseError):
                raise CallbackError(
                    routine, str(error), index_name=index_name,
                    phase=phase, cause=error) from error
            raise FatalCallbackError(
                routine,
                f"crashed with {type(error).__name__}: {error}",
                index_name=index_name, phase=phase,
                cause=error) from error

    def call_batch(self, routine: str, scalar_routine: str,
                   fn: Callable[..., Any], ia: Any, entries: list, env: Any,
                   *, index_name: str = "", phase: str = "") -> int:
        """Dispatch one array-maintenance call covering ``entries``.

        ``entries`` is one index's slice of a statement's maintenance
        queue (row order preserved) and ``fn`` the index's array
        routine, invoked once as ``fn(ia, entries, env)``.

        Fault-seam compatibility: with a fault plan installed, the seam
        first sees one event per entry under the *scalar* routine name,
        each a :meth:`call` of a no-op, so fault plans written against
        per-row dispatch keep their ordinals, ledgers, delays and
        budgets.  An injected fault at entry N fails the batch before
        the cartridge does any work, and the statement savepoint rolls
        it back exactly like a per-row fault.

        Returns the number of entries dispatched.  An empty batch is a
        no-op: no invocation, no metrics.
        """
        if not entries:
            return 0
        if self.fault_plan is not None:
            for __ in entries:
                self.call(scalar_routine, _no_op, index_name=index_name,
                          phase=phase)
        self.call(routine, fn, ia, list(entries), env,
                  index_name=index_name, phase=phase)
        self.maintenance[index_name or ia.index_name].record_batch(
            len(entries))
        return len(entries)

    def call_degraded(self, routine: str, fn: Callable[..., Any], *args: Any,
                      index_name: str = "", phase: str = "",
                      default: Any = None) -> Any:
        """Like :meth:`call`, but failures degrade to ``default``.

        Used for the ODCIStats routines: a broken statistics type must
        never abort planning — the optimizer falls back to its
        documented default selectivity/cost heuristics, with a trace
        line recording the degradation (§2.4.2).
        """
        try:
            return self.call(routine, fn, *args, index_name=index_name,
                             phase=phase)
        except CallbackError as exc:
            self._trace(f"dispatch:degrade {routine}({index_name}) "
                        f"-> default [{exc}]")
            return default

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _attempt(self, routine: str, fn: Callable[..., Any], args: tuple,
                 index_name: str, metrics: RoutineMetrics) -> _Attempt:
        metrics.invocations += 1
        injected = 0.0
        start = time.perf_counter()
        try:
            if self.fault_plan is not None:
                injected = self.fault_plan.on_call(routine, index_name)
            result = fn(*args)
        except BaseException as exc:  # classified by the caller
            elapsed = time.perf_counter() - start + injected
            metrics.total_seconds += elapsed
            return _Attempt(error=exc, elapsed=elapsed)
        elapsed = time.perf_counter() - start + injected
        metrics.total_seconds += elapsed
        return _Attempt(result=result, elapsed=elapsed)

    def _check_budget(self, routine: str, elapsed: float, index_name: str,
                      phase: str, metrics: RoutineMetrics) -> None:
        budget = self.timeouts.get(routine, self.default_timeout)
        if budget is not None and elapsed > budget:
            metrics.failures += 1
            raise CallbackTimeoutError(routine, index_name=index_name,
                                       phase=phase, budget=budget,
                                       elapsed=elapsed)

    def _trace(self, message: str) -> None:
        trace_log = getattr(self.db, "trace_log", None)
        if trace_log is not None:
            trace_log.append(message)
