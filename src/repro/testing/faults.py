"""Deterministic fault injection at the ODCI dispatch seam.

Failure paths are the whole point of the dispatcher, and they must be
testable without sleeping, threading, or monkey-patching cartridge
internals.  A :class:`FaultPlan` installs itself on a database's
:class:`~repro.core.dispatch.CallbackDispatcher` and sees every ODCI
invocation *before* the cartridge routine runs.  Rules are matched by
routine name (``"ODCIIndexInsert"``) and optionally by index name, and
fire on exact invocation ordinals — the nth matching call, counted per
rule — so a test can say "kill the insert callback at row 3 of this
statement" and get exactly that, every run.

Three rule kinds cover the taxonomy:

* :meth:`FaultPlan.fail_on_call` — raise :class:`~repro.errors.ODCIError`
  on the nth matching invocation (a hard cartridge failure);
* :meth:`FaultPlan.fail_transient` — raise
  :class:`~repro.errors.TransientCallbackError` for the first ``times``
  matching invocations (exercises the dispatcher's bounded retry);
* :meth:`FaultPlan.delay` — report synthetic latency for matching
  invocations.  No real sleep happens; the dispatcher adds the synthetic
  seconds to the measured elapsed time, so wall-clock-budget tests are
  instant and deterministic.

Every invocation the plan observes — faulted or not — is appended to
:attr:`FaultPlan.ledger`, so tests can assert on exact callback
sequences ("ODCIIndexClose fired exactly once").

:class:`StorageFaultPlan` applies the same discipline one layer down, at
the durable-storage seam: it injects device-level failures — torn
writes, short fsyncs, I/O errors — into the write-ahead log and page
store, the failure modes a SIGKILL harness cannot produce because the
OS preserves completed writes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ODCIError, TransientCallbackError


@dataclass
class LedgerEntry:
    """One observed dispatch: what ran, for which index, what we did."""

    routine: str
    index_name: str
    #: "ok" (passed through), "fault", "transient", or "delay".
    outcome: str
    #: 1-based ordinal among invocations matching (routine, index) filters.
    ordinal: int


@dataclass
class _Rule:
    routine: str
    index_name: Optional[str]  # None matches any index
    kind: str                  # "fail" | "transient" | "delay"
    nth: int = 0               # "fail": fire on this ordinal
    times: int = 0             # "transient": fire on ordinals 1..times
    seconds: float = 0.0       # "delay": synthetic latency
    message: str = "injected fault"
    #: invocations matching this rule so far
    seen: int = 0

    def matches(self, routine: str, index_name: str) -> bool:
        if self.routine != routine:
            return False
        return self.index_name is None or self.index_name == index_name


class FaultPlan:
    """Context manager injecting deterministic faults into a database.

    Usage::

        with FaultPlan(db) as plan:
            plan.fail_on_call("ODCIIndexInsert", nth=3, index="docs_idx")
            with pytest.raises(...):
                db.execute("INSERT ...")
        assert plan.calls("ODCIIndexInsert") == 3

    Entering installs the plan on ``db.dispatcher``; exiting uninstalls
    it (restoring whatever was there before), so faults never leak
    between tests.
    """

    def __init__(self, db: Any):
        self.db = db
        self.rules: List[_Rule] = []
        self.ledger: List[LedgerEntry] = []
        self._counts: Dict[Tuple[str, str], int] = {}
        self._previous: Any = None
        self._installed = False
        #: ordinal counters, rule state, and the ledger are shared
        #: mutable state; the dispatcher is engine-wide and sessions on
        #: several threads call through it, so matching must be atomic
        #: per invocation
        self._latch = threading.Lock()

    # ------------------------------------------------------------------
    # rule construction
    # ------------------------------------------------------------------

    def fail_on_call(self, routine: str, nth: int = 1,
                     index: Optional[str] = None,
                     message: str = "injected fault") -> "FaultPlan":
        """Raise ODCIError on the nth matching invocation (1-based)."""
        self.rules.append(_Rule(routine=routine, index_name=index,
                                kind="fail", nth=nth, message=message))
        return self

    def fail_transient(self, routine: str, times: int = 1,
                       index: Optional[str] = None) -> "FaultPlan":
        """Raise TransientCallbackError for the first ``times`` calls."""
        self.rules.append(_Rule(routine=routine, index_name=index,
                                kind="transient", times=times))
        return self

    def delay(self, routine: str, ms: float,
              index: Optional[str] = None) -> "FaultPlan":
        """Report ``ms`` of synthetic latency on every matching call."""
        self.rules.append(_Rule(routine=routine, index_name=index,
                                kind="delay", seconds=ms / 1000.0))
        return self

    # ------------------------------------------------------------------
    # ledger queries
    # ------------------------------------------------------------------

    def calls(self, routine: str, index: Optional[str] = None) -> int:
        """How many invocations of ``routine`` the plan observed."""
        return sum(1 for e in self.ledger
                   if e.routine == routine
                   and (index is None or e.index_name == index))

    def outcomes(self, routine: str) -> List[str]:
        """The outcome sequence for ``routine``, in invocation order."""
        return [e.outcome for e in self.ledger if e.routine == routine]

    # ------------------------------------------------------------------
    # dispatcher seam
    # ------------------------------------------------------------------

    def on_call(self, routine: str, index_name: str) -> float:
        """Called by the dispatcher before each cartridge invocation.

        Returns synthetic delay seconds to add to measured elapsed time;
        raises to inject a fault.  Each (routine, index) pair keeps its
        own 1-based ordinal counter.
        """
        with self._latch:
            key = (routine, index_name)
            ordinal = self._counts.get(key, 0) + 1
            self._counts[key] = ordinal
            delay = 0.0
            outcome = "ok"
            fault: Optional[BaseException] = None
            for rule in self.rules:
                if not rule.matches(routine, index_name):
                    continue
                rule.seen += 1
                if rule.kind == "fail" and rule.seen == rule.nth:
                    outcome = "fault"
                    fault = ODCIError(routine, rule.message)
                elif rule.kind == "transient" and rule.seen <= rule.times:
                    outcome = "transient"
                    fault = TransientCallbackError(routine)
                elif rule.kind == "delay":
                    delay += rule.seconds
                    if outcome == "ok":
                        outcome = "delay"
            self.ledger.append(
                LedgerEntry(routine=routine, index_name=index_name,
                            outcome=outcome, ordinal=ordinal))
        if fault is not None:
            raise fault
        return delay

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        dispatcher = self.db.dispatcher
        self._previous = dispatcher.fault_plan
        dispatcher.fault_plan = self
        self._installed = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._installed:
            self.db.dispatcher.fault_plan = self._previous
            self._installed = False


# ---------------------------------------------------------------------------
# Storage-level fault injection (log device / page store)
# ---------------------------------------------------------------------------

@dataclass
class StorageLedgerEntry:
    """One observed storage event: which device op, what we did."""

    event: str
    #: "ok", "io_error", "torn", or "short_fsync".
    outcome: str
    #: 1-based ordinal among events with this name.
    ordinal: int


@dataclass
class _StorageRule:
    event: str       # "wal.append" | "wal.fsync" | "page.flush"
    kind: str        # "io_error" | "torn" | "short_fsync"
    nth: int = 1     # fire on this ordinal (1-based, counted per event)
    fraction: float = 0.5   # "torn": fraction of the record persisted
    shortfall: int = 64     # "short_fsync": trailing bytes silently dropped
    seen: int = 0


class StorageFaultPlan:
    """Deterministic device-level faults for the durability layer.

    Install via ``Engine(..., storage_fault_plan=plan)`` — the engine
    hands the plan's :meth:`check` to its :class:`~repro.storage.wal.
    LogDevice` and :class:`~repro.storage.pagestore.PageStore`, which
    consult it before each physical operation:

    * ``io_error`` — the op raises :class:`~repro.errors.WALError` and
      (for the log) marks the device failed, so later commits refuse.
    * ``torn`` — a WAL append persists only a ``fraction`` prefix of the
      record, modeling a crash mid-sector.  The checksum-guarded scan
      must stop cleanly at the torn record.
    * ``short_fsync`` — the fsync reports success but the device quietly
      drops the last ``shortfall`` bytes; the lie is exposed only by
      :meth:`~repro.storage.wal.LogDevice.simulate_crash`.

    Rules fire on exact per-event ordinals, and every observed event is
    ledgered, mirroring :class:`FaultPlan`.
    """

    def __init__(self):
        self.rules: List[_StorageRule] = []
        self.ledger: List[StorageLedgerEntry] = []
        self._counts: Dict[str, int] = {}

    # -- rule construction ---------------------------------------------

    def io_error(self, event: str, nth: int = 1) -> "StorageFaultPlan":
        """Fail the nth occurrence of ``event`` with a WALError."""
        self.rules.append(_StorageRule(event=event, kind="io_error", nth=nth))
        return self

    def torn_write(self, event: str = "wal.append", nth: int = 1,
                   fraction: float = 0.5) -> "StorageFaultPlan":
        """Persist only a prefix of the nth write (partial-sector crash)."""
        self.rules.append(_StorageRule(event=event, kind="torn", nth=nth,
                                       fraction=fraction))
        return self

    def short_fsync(self, event: str = "wal.fsync", nth: int = 1,
                    shortfall: int = 64) -> "StorageFaultPlan":
        """Make the nth fsync lie: the last ``shortfall`` bytes are lost."""
        self.rules.append(_StorageRule(event=event, kind="short_fsync",
                                       nth=nth, shortfall=shortfall))
        return self

    # -- ledger queries -------------------------------------------------

    def calls(self, event: str) -> int:
        return sum(1 for e in self.ledger if e.event == event)

    def outcomes(self, event: str) -> List[str]:
        return [e.outcome for e in self.ledger if e.event == event]

    # -- device seam ----------------------------------------------------

    def check(self, event: str) -> Optional[_StorageRule]:
        """Called by the device before each physical op.

        Returns the matching rule (the device applies its kind) or None.
        """
        ordinal = self._counts.get(event, 0) + 1
        self._counts[event] = ordinal
        hit: Optional[_StorageRule] = None
        for rule in self.rules:
            if rule.event != event:
                continue
            rule.seen += 1
            if rule.seen == rule.nth and hit is None:
                hit = rule
        self.ledger.append(StorageLedgerEntry(
            event=event, outcome=hit.kind if hit else "ok", ordinal=ordinal))
        return hit
