"""Lock manager: blocking shared/exclusive locks on named resources.

Section 2.5: when index data is stored in database objects, "the server
functionality, in terms of concurrency control ... [is] also applicable
to the user index data.  Hence, it is not necessary for the index
designer to implement low level interfaces for locking."  Cartridge
callbacks acquire locks through the same manager as ordinary SQL, so a
maintenance callback on an index table conflicts with a concurrent
writer exactly like a base-table write would.

Sessions run on real threads, so a conflicting request *blocks* on a
condition variable until the holder releases, the timeout expires
(:class:`~repro.errors.LockTimeoutError`, message includes the time
actually waited), or the wait would never finish because the wait-for
graph has a cycle.  Deadlocks are detected on every wait iteration by
walking waiter → holder edges; the cycle is broken by dooming its
*youngest* transaction (largest txn id — least work lost), whose pending
``acquire`` raises :class:`~repro.errors.DeadlockError` (ORA-00060
analogue: statement rolled back, transaction left open for the
application to roll back).

A bare ``LockManager()`` defaults to ``default_timeout=0.0`` — the
historical fail-fast behaviour single-session tests rely on.  The
:class:`~repro.sql.engine.Engine` constructs its manager with a real
default, and sessions pass their own ``lock_timeout`` at every call
site.
"""

from __future__ import annotations

import enum
import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import DeadlockError, LockTimeoutError
from repro.metrics import Histogram, Metrics, histogram

#: cap on one condition wait so doomed flags and missed notifies are
#: picked up even under notify races
_POLL_INTERVAL = 0.05


class LockMode(enum.Enum):
    """Lock strength; SHARED is compatible with SHARED only."""

    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass
class LockStats(Metrics):
    """Counters + wait-time histogram (``user_lock_stats``), mutated
    under the manager's condition latch.  MVCC acceptance check: a
    pure-reader workload leaves ``waits`` (and ``deadlocks``) untouched.
    """

    acquisitions: int = 0
    waits: int = 0
    wait_seconds: float = 0.0
    timeouts: int = 0
    deadlocks: int = 0
    #: bounds are the float just below each limit: a label says "<"
    wait_histogram: Histogram = histogram(
        [math.nextafter(limit, 0) for limit in (0.001, 0.01, 0.1, 1.0)],
        ("<1ms", "<10ms", "<100ms", "<1s", ">=1s"), zeros=True)

    def record_wait(self, seconds: float) -> None:
        self.wait_seconds += seconds
        self.wait_histogram.add(seconds)


class LockManager:
    """Resource → holders table with blocking waits and S→X upgrade."""

    def __init__(self, default_timeout: float = 0.0):
        #: applied when ``acquire`` gets no explicit ``timeout=``;
        #: 0 means fail fast (the pre-Engine behaviour)
        self.default_timeout = default_timeout
        self.stats = LockStats()
        self._cond = threading.Condition()
        # resource -> (mode, set of txn ids); guarded by _cond
        self._locks: Dict[str, Tuple[LockMode, Set[int]]] = {}
        # txn id -> (resource, wanted mode) while blocked in acquire
        self._waits: Dict[int, Tuple[str, LockMode]] = {}
        # txn ids chosen as deadlock victims, pending their wake-up
        self._doomed: Set[int] = set()

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------

    def acquire(self, txn_id: int, resource: str, mode: LockMode,
                timeout: Optional[float] = None) -> None:
        """Take ``resource`` in ``mode`` for ``txn_id``, waiting if needed.

        Blocks up to ``timeout`` seconds (``None`` → ``default_timeout``)
        for conflicting holders to release.  Raises
        :class:`LockTimeoutError` when the wait expires (the message
        reports how long was actually waited) and
        :class:`DeadlockError` when this transaction is chosen as a
        deadlock victim.
        """
        key = resource.lower()
        if timeout is None:
            timeout = self.default_timeout
        with self._cond:
            if self._try_grant(txn_id, key, mode):
                self.stats.acquisitions += 1
                return
            if timeout <= 0:
                self.stats.timeouts += 1
                self._raise_timeout(txn_id, key, resource, mode, 0.0)
            self._wait_for(txn_id, key, resource, mode, timeout)

    def _wait_for(self, txn_id: int, key: str, resource: str,
                  mode: LockMode, timeout: float) -> None:
        """Blocking wait loop; caller holds ``_cond``."""
        self._waits[txn_id] = (key, mode)
        self.stats.waits += 1
        start = time.monotonic()
        deadline = start + timeout
        try:
            while True:
                victim = self._resolve_deadlock(txn_id)
                if victim == txn_id or txn_id in self._doomed:
                    self._doomed.discard(txn_id)
                    cycle = self._cycle_from(txn_id)
                    raise DeadlockError(
                        f"deadlock detected: txn {txn_id} waiting for "
                        f"{mode.value} on {resource!r}; victim txn "
                        f"{txn_id} (youngest on cycle {sorted(cycle)})",
                        victim=txn_id, cycle=cycle)
                if self._try_grant(txn_id, key, mode):
                    self.stats.acquisitions += 1
                    self.stats.record_wait(time.monotonic() - start)
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    waited = time.monotonic() - start
                    self.stats.timeouts += 1
                    self.stats.record_wait(waited)
                    self._raise_timeout(txn_id, key, resource, mode, waited)
                self._cond.wait(min(remaining, _POLL_INTERVAL))
        finally:
            self._waits.pop(txn_id, None)

    def _try_grant(self, txn_id: int, key: str, mode: LockMode) -> bool:
        """Grant the lock if compatible (mutates the table); else False."""
        held = self._locks.get(key)
        if held is None:
            self._locks[key] = (mode, {txn_id})
            return True
        held_mode, holders = held
        if txn_id in holders:
            if mode is LockMode.EXCLUSIVE and held_mode is LockMode.SHARED:
                if holders == {txn_id}:
                    self._locks[key] = (LockMode.EXCLUSIVE, holders)
                    return True
                return False  # upgrade must wait for other readers
            return True  # re-entrant (or S under held X)
        if mode is LockMode.SHARED and held_mode is LockMode.SHARED:
            holders.add(txn_id)
            return True
        return False

    def _raise_timeout(self, txn_id: int, key: str, resource: str,
                       mode: LockMode, waited: float) -> None:
        held = self._locks.get(key)
        if held is None:
            detail = "resource became free during timeout"
        else:
            held_mode, holders = held
            if txn_id in holders:
                detail = (f"cannot upgrade to X: shared with txn(s) "
                          f"{sorted(holders - {txn_id})}")
            else:
                detail = (f"held {held_mode.value} by txn(s) "
                          f"{sorted(holders)}")
        raise LockTimeoutError(
            f"txn {txn_id} could not acquire {mode.value} on {resource!r} "
            f"after waiting {waited * 1000:.1f}ms: {detail}")

    # ------------------------------------------------------------------
    # deadlock detection (wait-for graph)
    # ------------------------------------------------------------------

    def _blockers(self, txn_id: int, key: str, mode: LockMode) -> Set[int]:
        """Holders of ``key`` that prevent ``txn_id`` taking ``mode``."""
        held = self._locks.get(key)
        if held is None:
            return set()
        held_mode, holders = held
        if txn_id in holders:
            return set(holders) - {txn_id}  # S→X upgrade wait
        if mode is LockMode.SHARED and held_mode is LockMode.SHARED:
            return set()
        return set(holders)

    def _cycle_from(self, start: int) -> List[int]:
        """Txn ids on a wait-for cycle reachable from ``start`` ([] if none)."""
        path: List[int] = []
        on_path: Dict[int, int] = {}
        visited: Set[int] = set()

        def dfs(txn: int) -> Optional[List[int]]:
            wait = self._waits.get(txn)
            if wait is None:
                return None  # not waiting: no outgoing edges
            for blocker in self._blockers(txn, *wait):
                if blocker in on_path:
                    return path[on_path[blocker]:]
                if blocker in visited:
                    continue
                visited.add(blocker)
                on_path[blocker] = len(path)
                path.append(blocker)
                cycle = dfs(blocker)
                if cycle is not None:
                    return cycle
                path.pop()
                del on_path[blocker]
            return None

        visited.add(start)
        on_path[start] = 0
        path.append(start)
        return dfs(start) or []

    def _resolve_deadlock(self, txn_id: int) -> Optional[int]:
        """Detect a cycle through ``txn_id``; doom the youngest member.

        Returns the victim's txn id (possibly ``txn_id`` itself), or
        None when no cycle exists.  A victim other than the caller is
        added to ``_doomed`` and woken so its own wait raises.
        """
        cycle = self._cycle_from(txn_id)
        if not cycle:
            return None
        victim = max(cycle)
        if victim not in self._doomed:
            self.stats.deadlocks += 1
        if victim != txn_id:
            self._doomed.add(victim)
            self._cond.notify_all()
        return victim

    # ------------------------------------------------------------------
    # release / inspection
    # ------------------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Drop every lock held by ``txn_id`` (commit/rollback)."""
        with self._cond:
            for key in list(self._locks):
                mode, holders = self._locks[key]
                holders.discard(txn_id)
                if not holders:
                    del self._locks[key]
            self._doomed.discard(txn_id)
            self._cond.notify_all()

    def holders(self, resource: str) -> Set[int]:
        """The txn ids currently holding ``resource``."""
        with self._cond:
            held = self._locks.get(resource.lower())
            return set(held[1]) if held else set()

    def mode(self, resource: str) -> "LockMode | None":
        """The mode ``resource`` is held in, or None when free."""
        with self._cond:
            held = self._locks.get(resource.lower())
            return held[0] if held else None
