"""Multi-version concurrency control: SCNs, snapshots, version chains.

Oracle's consistent-read model, scaled down.  Every committed change to
a row is stamped with the System Change Number (SCN) current at commit;
readers take a :class:`Snapshot` pinning an SCN and resolve each row
against its version chain, so SELECT never touches the
:class:`~repro.txn.locks.LockManager`.  The paper's §2.5 claim — index
data stored in database tables inherits the server's concurrency control
— extends naturally: cartridge callback SQL runs against the same
snapshot as the opening statement, so an ``ODCIIndexFetch`` stream sees
the index tables and the base table at one consistent point in time.

Version chains hang off a per-table :class:`VersionStore` keyed by
rowid.  The chain head is the *newest* version; ``prev`` links walk back
in time.  A version with ``scn=None`` is uncommitted — visible only to
its own transaction.  Commit stamps all of a transaction's versions with
one fresh SCN under the same latch that hands out snapshots, so a
snapshot can never observe half a transaction.

A low-water-mark pass (opportunistic at commit, or a background thread)
prunes chain tails no live snapshot can still need, and forgets every
chain all snapshots agree on: a store maps exactly the rowids whose slot
is not the whole truth.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: chain-length histogram bucket upper bounds → label
_CHAIN_BUCKETS: Tuple[Tuple[int, str], ...] = (
    (1, "1"),
    (2, "2"),
    (4, "<=4"),
    (8, "<=8"),
    (1 << 62, ">8"),
)

#: versions stamped (a commit that stamps none counts one) between
#: opportunistic prune passes
PRUNE_INTERVAL = 64


class RowVersion:
    """One link in a row's version chain.

    ``scn`` is None while the writing transaction is in flight; commit
    stamps it.  ``value`` is the full row (None for a delete tombstone).
    ``prev`` points at the next-older version.
    """

    __slots__ = ("scn", "txn_id", "value", "prev")

    def __init__(self, scn: Optional[int], txn_id: int,
                 value: Optional[list], prev: "Optional[RowVersion]" = None):
        self.scn = scn
        self.txn_id = txn_id
        self.value = value
        self.prev = prev

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"RowVersion(scn={self.scn}, txn={self.txn_id}, "
                f"value={'∅' if self.value is None else '…'})")


class Snapshot:
    """A fixed point in time: sees commits with ``scn <= self.scn``.

    ``kind`` is ``"statement"`` (read committed: a fresh snapshot per
    statement) or ``"transaction"`` (serializable / read only: one
    snapshot for the whole transaction).  The owning transaction also
    sees its *own* uncommitted versions (read-your-writes).
    """

    __slots__ = ("scn", "txn_id", "kind", "stats", "__weakref__")

    def __init__(self, scn: int, txn_id: Optional[int],
                 kind: str = "statement"):
        self.scn = scn
        self.txn_id = txn_id
        self.kind = kind
        #: where reads under this snapshot count their epoch redos (the
        #: manager that handed the snapshot out sets it)
        self.stats: "Optional[SnapshotStats]" = None

    def visible(self, version: RowVersion) -> bool:
        """Oracle visibility rule: own uncommitted, or committed <= scn."""
        if self.txn_id is not None and version.txn_id == self.txn_id:
            return True
        return version.scn is not None and version.scn <= self.scn

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Snapshot(scn={self.scn}, txn={self.txn_id}, {self.kind})"


class SnapshotStats:
    """Counters behind the ``user_snapshot_stats`` dictionary view."""

    def __init__(self):
        self.snapshots_taken = 0
        self.statement_snapshots = 0
        self.transaction_snapshots = 0
        self.commits = 0
        self.versions_created = 0
        self.versions_stamped = 0
        self.versions_pruned = 0
        self.prune_passes = 0
        #: chains a prune pass unmapped: every snapshot sees their slot
        self.heads_forgotten = 0
        #: snapshot reads redone because a store's epoch moved under them
        self.read_retries = 0
        #: lengths of the chains each prune pass walked, before its cut;
        #: a settled row has no chain and is not counted
        self.chain_histogram: Dict[str, int] = {
            label: 0 for __, label in _CHAIN_BUCKETS}

    def record_chain(self, length: int, count: int = 1) -> None:
        for bound, label in _CHAIN_BUCKETS:
            if length <= bound:
                self.chain_histogram[label] += count
                return

    def snapshot(self) -> Dict[str, object]:
        return {
            "snapshots_taken": self.snapshots_taken,
            "statement_snapshots": self.statement_snapshots,
            "transaction_snapshots": self.transaction_snapshots,
            "commits": self.commits,
            "versions_created": self.versions_created,
            "versions_stamped": self.versions_stamped,
            "versions_pruned": self.versions_pruned,
            "prune_passes": self.prune_passes,
            "heads_forgotten": self.heads_forgotten,
            "read_retries": self.read_retries,
            "chain_histogram": dict(self.chain_histogram),
        }


class VersionStore:
    """Version chains for one table (heap or IOT), keyed by rowid.

    Rowids are whatever the storage layer uses as stable row identity
    (:class:`~repro.storage.heap.RowId` or an IOT surrogate).  A rowid
    is mapped exactly while some snapshot, live or future, could see
    something other than its slot: a write in flight, a commit above
    the low-water mark, or history a live snapshot still needs.  For a
    rowid absent from the store *every snapshot sees its slot*, modulo
    the *fence* version: ``insert_bulk`` registers one fence version
    covering every bulk-loaded row, so old snapshots don't see a load
    that committed after them.

    The store says less only in :meth:`prune` (which forgets settled
    chains), :meth:`pop`, :meth:`drop_fence` and :meth:`clear`, and
    each bumps ``_epoch`` *before* it does; a snapshot read runs inside
    :meth:`read`, which redoes it when the epoch moved.
    """

    def __init__(self):
        self.latch = threading.Lock()
        self._heads: Dict[Any, RowVersion] = {}
        self._fence: Optional[RowVersion] = None
        self._epoch = 0

    # -- write side ---------------------------------------------------------

    def push(self, rowid: Any, new_value: Optional[list],
             old_value: Optional[list], txn: Any) -> RowVersion:
        """Chain a new uncommitted version for ``rowid``; returns it.

        Called *before* the slot mutates so a concurrent snapshot reader
        can never observe the new slot value through the untracked-row
        fast path.  When the row was untracked and had a previous value,
        a committed base version is synthesised below the new head so
        old snapshots keep resolving to ``old_value``.
        """
        with self.latch:
            prev = self._heads.get(rowid)
            if prev is None and old_value is not None:
                # first versioned write to a settled row: anchor the old
                # value so older snapshots still see it
                fence = self._fence
                if fence is not None:
                    base = RowVersion(fence.scn, fence.txn_id, old_value)
                    if fence.scn is None and txn is not None \
                            and fence.txn_id == txn.txn_id:
                        # fence not yet stamped: stamp the base with it
                        txn.track_version(base)
                else:
                    base = RowVersion(0, 0, old_value)
                prev = base
            version = RowVersion(None, txn.txn_id if txn else 0,
                                 new_value, prev)
            self._heads[rowid] = version
            return version

    def pop(self, rowid: Any, version: RowVersion) -> None:
        """Undo ``push``: unlink ``version`` from ``rowid``'s chain.

        The caller has restored the slot already (undo runs in reverse
        order of the write), so when the chain ends here the slot is
        what every snapshot sees and the rowid is unmapped.
        """
        with self.latch:
            head = self._heads.get(rowid)
            if head is version:
                if version.prev is None:
                    self._epoch += 1  # before the unmapping: see read()
                    del self._heads[rowid]
                else:
                    self._heads[rowid] = version.prev
                return
            while head is not None and head.prev is not version:
                head = head.prev
            if head is not None:
                head.prev = version.prev

    def set_fence(self, txn: Any) -> RowVersion:
        """Register a bulk-load fence: rows loaded now are invisible to
        snapshots older than the loading transaction's commit."""
        fence = RowVersion(None, txn.txn_id if txn else 0, None)
        with self.latch:
            self._fence = fence
        return fence

    def drop_fence(self, fence: RowVersion) -> None:
        """Undo ``set_fence`` (bulk-load rollback)."""
        with self.latch:
            if self._fence is fence:
                self._epoch += 1
                self._fence = None

    def clear(self) -> None:
        """Forget all chains (truncate / table drop)."""
        with self.latch:
            self._epoch += 1
            self._heads.clear()
            self._fence = None

    @property
    def clean(self) -> bool:
        """True when no chains or fence exist (bulk-load fast path ok;
        nothing for a prune pass to do)."""
        with self.latch:
            return not self._heads and self._fence is None

    # -- read side ----------------------------------------------------------

    def read(self, body: Callable[[], Any], snapshot: Snapshot) -> Any:
        """Run ``body`` — read the slot(s), *then* consult this store —
        and return its result, redoing it while the epoch moved.

        Every snapshot read of the storage goes through here.  Within
        an unchanged epoch nothing was unmapped, so the ordering
        argument of :meth:`push` holds: a rowid ``body`` found unmapped
        was unmapped when it read the slot, and any writer since chained
        before it touched the slot.  An unmapping bumps the epoch
        *first*: a body that began before the bump is redone, and one
        that began after it reads a slot that already holds the settled
        (or restored) value.
        """
        while True:
            epoch = self._epoch
            result = body()
            if self._epoch == epoch:
                return result
            if snapshot.stats is not None:
                snapshot.stats.read_retries += 1

    def settled(self, snapshot: Snapshot) -> bool:
        """True when ``snapshot`` sees every slot as it stands: no chain
        is mapped and no fence hides the rows from it."""
        fence = self._fence
        return not self._heads and (fence is None or snapshot.visible(fence))

    def resolve(self, rowid: Any, current: Optional[list],
                snapshot: Snapshot) -> Optional[list]:
        """The row value ``snapshot`` should see for ``rowid``.

        ``current`` is the live slot value (None when the slot is a
        tombstone).  Untracked rowids fall back to ``current`` unless a
        bulk-load fence hides them.  Returns None when the row is
        invisible to the snapshot.
        """
        head = self._heads.get(rowid)
        if head is None:
            fence = self._fence
            if fence is None or snapshot.visible(fence):
                return current
            return None
        version = head
        while version is not None:
            if snapshot.visible(version):
                return version.value
            version = version.prev
        return None

    def resolve_batch(self, rowids: List[Any],
                      currents: List[Optional[list]],
                      snapshot: Snapshot) -> List[Optional[list]]:
        """:meth:`resolve` for a batch: ``currents[i]`` is the live slot
        value of ``rowids[i]``.

        The caller must have read every slot *before* this call — the
        same read-slot-then-check-chain order :meth:`resolve` relies on
        (writers register the chain before they mutate the slot).  A
        store with no chains answers the whole batch with one fence
        test; rowids that do have a chain go through :meth:`resolve`.
        """
        heads = self._heads
        fence = self._fence
        hidden = fence is not None and not snapshot.visible(fence)
        if not heads:
            return [None] * len(rowids) if hidden else currents
        resolve = self.resolve
        return [resolve(rowid, current, snapshot) if rowid in heads
                else (None if hidden else current)
                for rowid, current in zip(rowids, currents)]

    def tracked_rowids(self) -> List[Any]:
        """Rowids with version chains."""
        with self.latch:
            return list(self._heads)

    def tracked(self, rowid: Any) -> bool:
        """Whether ``rowid`` has a version chain."""
        return rowid in self._heads

    def chain_length(self, rowid: Any) -> int:
        n, v = 0, self._heads.get(rowid)
        while v is not None:
            n, v = n + 1, v.prev
        return n

    # -- maintenance --------------------------------------------------------

    def prune(self, lwm: int, stats: Optional[SnapshotStats] = None) -> int:
        """Cut chain tails below the newest committed version <= ``lwm``
        and forget every chain that leaves settled.

        A chain whose head is that keeper is down to one committed
        version every live and future snapshot sees, and its slot holds
        the same value (a tombstone included) — no writer is in flight
        on it, or the head would be uncommitted — so the mapping says
        nothing the slot does not and is dropped.  A rowid still mapped
        after the pass is in flight, committed above ``lwm``, or holds
        history a live snapshot needs (the IOT keeps its ghosts by
        this).  Returns the number of versions cut loose.
        """
        removed = 0
        with self.latch:
            fence = self._fence
            if (fence is not None and fence.scn is not None
                    and fence.scn <= lwm):
                # every live snapshot sees the bulk load: fence is moot
                self._fence = None
            heads = self._heads
            settled = 0
            for head in heads.values():
                newer, keeper = 0, head  # versions above the keeper
                while keeper is not None and (keeper.scn is None
                                              or keeper.scn > lwm):
                    keeper, newer = keeper.prev, newer + 1
                cut = 0
                if keeper is not None:
                    tail, keeper.prev = keeper.prev, None
                    while tail is not None:
                        tail, cut = tail.prev, cut + 1
                    removed += cut
                    settled += keeper is head
                if stats is not None:
                    stats.record_chain(newer + (keeper is not None) + cut)
            if settled:
                self._epoch += 1  # before the unmapping: see read()
                if settled == len(heads):
                    # a load settling at its commit: no list of its
                    # rowids, and the table's memory goes back
                    heads.clear()
                else:
                    for rowid in [rowid for rowid, head in heads.items()
                                  if head.scn is not None
                                  and head.scn <= lwm]:
                        del heads[rowid]
                if stats is not None:
                    stats.heads_forgotten += settled
        return removed


class MVCCManager:
    """Engine-wide SCN clock, snapshot registry, and prune driver.

    ``commit_transaction`` and ``take_snapshot`` share one latch: a
    commit stamps *all* of its versions and bumps the SCN atomically
    with respect to snapshot handout, so no snapshot can see a
    transaction half-committed.  Live snapshots are held in a
    ``WeakSet`` — cursors and executors keep strong references while a
    result set is open; once they drop it, the snapshot stops holding
    back the low-water mark.
    """

    def __init__(self):
        self._latch = threading.Lock()
        self._scn = 0
        self._snapshots: "weakref.WeakSet[Snapshot]" = weakref.WeakSet()
        self.stats = SnapshotStats()
        self._stamped_since_prune = 0
        #: low-water mark of the last pass: until it moves, nothing
        #: committed since can have settled
        self._pruned_lwm: Optional[int] = None
        self._pruner: Optional[threading.Thread] = None
        self._pruner_stop = threading.Event()

    @property
    def current_scn(self) -> int:
        return self._scn

    def take_snapshot(self, txn_id: Optional[int],
                      kind: str = "statement") -> Snapshot:
        """Hand out a snapshot at the current SCN and register it."""
        with self._latch:
            snap = Snapshot(self._scn, txn_id, kind)
            snap.stats = self.stats
            self._snapshots.add(snap)
            self.stats.snapshots_taken += 1
            if kind == "transaction":
                self.stats.transaction_snapshots += 1
            else:
                self.stats.statement_snapshots += 1
            return snap

    def commit_transaction(self, txn: Any) -> bool:
        """Stamp the txn's versions with a fresh SCN; True → prune due.

        A pass is due once :data:`PRUNE_INTERVAL` versions were stamped
        since the last one (a commit that stamps none counts one), so a
        large load settles at its own commit — unless the low-water
        mark still is where the last pass left it.
        """
        versions = getattr(txn, "versions", None)
        with self._latch:
            self._scn += 1
            scn = self._scn
            txn.commit_scn = scn  # logged in the WAL commit record
            if versions:
                for version in versions:
                    version.scn = scn
                self.stats.versions_stamped += len(versions)
            self.stats.commits += 1
            self._stamped_since_prune += len(versions) if versions else 1
            if (self._stamped_since_prune < PRUNE_INTERVAL
                    or self._low_water_mark() == self._pruned_lwm):
                return False
            self._stamped_since_prune = 0  # this committer runs the pass
            return True

    def restore_scn(self, scn: int) -> None:
        """Advance the SCN clock past the highest recovered commit SCN,
        so post-restart commits never reuse a pre-crash SCN."""
        with self._latch:
            self._scn = max(self._scn, scn)

    def low_water_mark(self) -> int:
        """Oldest SCN any live snapshot still needs."""
        with self._latch:
            return self._low_water_mark()

    def _low_water_mark(self) -> int:
        return min([s.scn for s in self._snapshots], default=self._scn)

    def oldest_active_scn(self) -> Optional[int]:
        """Oldest live snapshot SCN, or None when no snapshot is open."""
        with self._latch:
            live = [s.scn for s in self._snapshots]
            return min(live) if live else None

    def prune(self, stores: Iterable[Any]) -> int:
        """One low-water-mark pass over ``stores`` — version stores, or
        storages that wrap theirs in a ``prune(lwm, stats)`` of their
        own (an IOT drops ghosts with it); returns versions cut."""
        with self._latch:
            lwm = self._pruned_lwm = self._low_water_mark()
        removed = 0
        for store in stores:
            removed += store.prune(lwm, self.stats)
        self.stats.versions_pruned += removed
        self.stats.prune_passes += 1
        return removed

    # -- background pruner --------------------------------------------------

    def start_pruner(self, stores_fn: Callable[[], Iterable[VersionStore]],
                     interval: float = 1.0) -> None:
        """Start a daemon thread pruning every ``interval`` seconds."""
        if self._pruner is not None and self._pruner.is_alive():
            return
        self._pruner_stop.clear()

        def loop():
            while not self._pruner_stop.wait(interval):
                self.prune(stores_fn())

        self._pruner = threading.Thread(
            target=loop, name="mvcc-pruner", daemon=True)
        self._pruner.start()

    def stop_pruner(self) -> None:
        if self._pruner is None:
            return
        self._pruner_stop.set()
        self._pruner.join(timeout=5.0)
        self._pruner = None
