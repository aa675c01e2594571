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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import (
    CallbackError, CallbackTimeoutError, DatabaseError, FatalCallbackError,
    TransactionError, TransientCallbackError)

#: How many times a TransientCallbackError is retried before the
#: dispatcher gives up (bounded and deterministic — no sleeps, no jitter).
MAX_TRANSIENT_RETRIES = 3


@dataclass
class RoutineMetrics:
    """Per-routine dispatch accounting."""

    invocations: int = 0
    failures: int = 0
    retries: int = 0
    total_seconds: float = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"invocations": self.invocations, "failures": self.failures,
                "retries": self.retries, "total_seconds": self.total_seconds}


def _batch_size_bucket(size: int) -> str:
    """Power-of-two histogram bucket label for a batch size."""
    if size <= 1:
        return "1"
    low = 1 << (size.bit_length() - 1)
    return f"{low}-{low * 2 - 1}"


@dataclass
class IndexMaintenanceStats:
    """Per-index array-maintenance accounting.

    ``entries_queued`` counts maintenance entries the DML layer placed
    in a statement's queue for this index; ``entries_flushed`` counts
    entries that reached a dispatched batch (the difference is entries
    discarded by a failed statement or by degradation).
    ``native_batches`` vs ``shim_batches`` splits batches by whether the
    cartridge implements the array routine or the dispatcher looped its
    scalar one.  ``histogram`` buckets flushed batch sizes by powers of
    two, so the batching win per statement shape is visible.
    """

    entries_queued: int = 0
    entries_flushed: int = 0
    batches_flushed: int = 0
    native_batches: int = 0
    shim_batches: int = 0
    max_batch: int = 0
    histogram: Dict[str, int] = field(default_factory=dict)

    def record_batch(self, size: int, native: bool) -> None:
        self.entries_flushed += size
        self.batches_flushed += 1
        if native:
            self.native_batches += 1
        else:
            self.shim_batches += 1
        if size > self.max_batch:
            self.max_batch = size
        bucket = _batch_size_bucket(size)
        self.histogram[bucket] = self.histogram.get(bucket, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        return {"entries_queued": self.entries_queued,
                "entries_flushed": self.entries_flushed,
                "batches_flushed": self.batches_flushed,
                "native_batches": self.native_batches,
                "shim_batches": self.shim_batches,
                "max_batch": self.max_batch,
                "histogram": dict(self.histogram)}


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
        #: routine name -> RoutineMetrics
        self.metrics: Dict[str, RoutineMetrics] = {}
        #: index name -> IndexMaintenanceStats (array-maintenance seam)
        self.maintenance: Dict[str, IndexMaintenanceStats] = {}
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

    def metrics_for(self, routine: str) -> RoutineMetrics:
        """The (auto-created) metrics record for ``routine``."""
        record = self.metrics.get(routine)
        if record is None:
            record = self.metrics[routine] = RoutineMetrics()
        return record

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All per-routine counters, for monitoring/tests."""
        return {name: m.snapshot() for name, m in self.metrics.items()}

    def maintenance_for(self, index_name: str) -> IndexMaintenanceStats:
        """The (auto-created) maintenance stats record for an index."""
        record = self.maintenance.get(index_name)
        if record is None:
            record = self.maintenance[index_name] = IndexMaintenanceStats()
        return record

    def maintenance_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All per-index maintenance counters, for monitoring/tests."""
        return {name: m.snapshot() for name, m in self.maintenance.items()}

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
        metrics = self.metrics_for(routine)
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
                   *, native: bool, index_name: str = "",
                   phase: str = "") -> int:
        """Dispatch one array-maintenance call covering ``entries``.

        ``entries`` is one index's slice of a statement's maintenance
        queue (row order preserved).  With ``native=True`` ``fn`` is the
        cartridge's array routine, invoked once as ``fn(ia, entries,
        env)``; with ``native=False`` ``fn`` is the scalar routine and
        the dispatcher loops it per entry (the compatibility shim), with
        per-entry classification and bounded transient retry.

        Fault-seam compatibility: the injection seam sees one event per
        entry under the *scalar* routine name in both modes, so fault
        plans written against per-row dispatch keep their ordinals and
        ledgers.  In native mode every per-entry event fires *before*
        the single array call — an injected fault at entry N fails the
        batch before the cartridge does any work, which composes with
        statement-savepoint rollback exactly like a per-row fault.  In
        shim mode the events interleave with application, so entries
        before the faulting one are genuinely applied (and rolled back
        with the statement).

        Returns the number of entries dispatched.  An empty batch is a
        no-op: no invocation, no metrics.
        """
        if not entries:
            return 0
        if native:
            if self.fault_plan is not None:
                self._entry_faults(scalar_routine, len(entries), routine,
                                   index_name, phase)
            self.call(routine, fn, ia, list(entries), env,
                      index_name=index_name, phase=phase)
        else:
            for entry in entries:
                self.call(scalar_routine, fn, ia, *entry, env,
                          index_name=index_name, phase=phase)
        stats = self.maintenance_for(index_name or ia.index_name)
        stats.record_batch(len(entries), native=native)
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

    def _entry_faults(self, scalar_routine: str, count: int,
                      batch_routine: str, index_name: str,
                      phase: str) -> None:
        """Fire one fault-seam event per batch entry (native mode).

        Mirrors :meth:`call`'s classification: transient injections get
        bounded per-entry retry (each retry is another seam event, as it
        would be under scalar dispatch), database-class injections
        surface as :class:`CallbackError` attributed to the batch
        routine, and transaction errors pass through untyped.
        """
        metrics = self.metrics_for(batch_routine)
        done = 0
        attempts = 0
        while done < count:
            try:
                self.fault_plan.on_call(scalar_routine, index_name)
            except TransientCallbackError as exc:
                attempts += 1
                if attempts <= self.max_transient_retries:
                    metrics.retries += 1
                    self._trace(f"dispatch:retry {batch_routine}"
                                f"({index_name}) entry={done + 1} "
                                f"attempt={attempts}")
                    continue
                metrics.failures += 1
                raise CallbackError(
                    batch_routine,
                    f"transient failure persisted after "
                    f"{self.max_transient_retries} retries: {exc}",
                    index_name=index_name, phase=phase,
                    cause=exc) from exc
            except TransactionError:
                raise
            except CallbackError:
                metrics.failures += 1
                raise
            except DatabaseError as exc:
                metrics.failures += 1
                raise CallbackError(
                    batch_routine,
                    f"entry {done + 1}/{count}: {exc}",
                    index_name=index_name, phase=phase, cause=exc) from exc
            except BaseException as exc:
                metrics.failures += 1
                raise FatalCallbackError(
                    batch_routine,
                    f"crashed with {type(exc).__name__}: {exc}",
                    index_name=index_name, phase=phase, cause=exc) from exc
            else:
                attempts = 0
                done += 1

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
