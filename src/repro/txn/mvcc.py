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

A low-water-mark pass (opportunistic at commit, or an explicit
``Engine.prune_versions()``) prunes chain tails no live snapshot can
still need, and forgets every chain all snapshots agree on: a store maps
exactly the rowids whose slot is not the whole truth.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.metrics import Histogram, Metrics, histogram

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


@dataclass
class SnapshotStats(Metrics):
    """Counters behind the ``user_snapshot_stats`` dictionary view."""

    snapshots_taken: int = 0
    statement_snapshots: int = 0
    transaction_snapshots: int = 0
    commits: int = 0
    versions_created: int = 0
    versions_stamped: int = 0
    versions_pruned: int = 0
    prune_passes: int = 0
    #: chains a prune pass unmapped: every snapshot sees their slot
    heads_forgotten: int = 0
    #: snapshot reads redone because a store's epoch moved under them
    read_retries: int = 0
    #: lengths of the chains each prune pass walked, before its cut;
    #: a settled row has no chain and is not counted
    chain_histogram: Histogram = histogram(
        (1, 2, 4, 8), ("1", "2", "<=4", "<=8", ">8"), zeros=True)


class VersionStore:
    """Version chains for one table (heap or IOT), keyed by rowid.

    Rowids are whatever the storage layer uses as stable row identity
    (a heap's ``(segment, page, slot)`` tuple, an IOT's
    :class:`~repro.storage.iot.LogicalRowId`).  A rowid
    is mapped exactly while some snapshot, live or future, could see
    something other than its slot: a write in flight, a commit above
    the low-water mark, or history a live snapshot still needs.  For a
    rowid absent from the store *every snapshot sees its slot*, modulo
    the *fences*: every insert registers its transaction's one fence
    version for the table (a later one reuses it), and an untracked
    rowid a fence covers is hidden from every snapshot that does not
    see the fence.  A heap's fence carries its high-water *mark* and
    covers the rowids from there to the next fence's mark; an IOT's
    store is a :class:`KeyedVersionStore`.

    The store says less only in :meth:`prune` (which forgets settled
    chains and fences), :meth:`pop`, :meth:`drop_fence` and
    :meth:`clear` (and a keyed store's ``unfence``), and each unmapping
    bumps ``_epoch`` *before* it does; a snapshot read runs inside
    :meth:`read`, which redoes it when the epoch moved.
    """

    def __init__(self):
        self.latch = threading.Lock()
        self._heads: Dict[Any, RowVersion] = {}
        #: ``(mark, fence version)`` in commit order (a keyed store's
        #: marks are None); appended to in place, replaced by an
        #: unmapping: a reader walks the entries under the length it took
        self._fences: List[Tuple[Any, RowVersion]] = []
        #: each fence in ``_fences`` by its transaction's id
        self._owned: Dict[int, RowVersion] = {}
        self._epoch = 0

    # -- write side ---------------------------------------------------------

    def push(self, rowid: Any, new_value: Optional[list],
             old_value: Optional[list], txn: Any) -> RowVersion:
        """Chain a new uncommitted version for ``rowid``; returns it.

        Called *before* the slot mutates so a concurrent snapshot reader
        can never observe the new slot value through the untracked-row
        fast path.  When the row was untracked and had a previous value,
        a base version is synthesised below the new head so old
        snapshots keep resolving to ``old_value``: committed at the SCN
        of the fence that covers the rowid (a loaded row), else at SCN 0;
        none under the writer's own uncommitted fence: no other snapshot
        sees the row, and an undo leaves no chain behind.
        """
        with self.latch:
            prev = self._heads.get(rowid)
            if prev is None and old_value is not None:
                # first versioned write to a settled row: anchor the old
                # value so older snapshots still see it
                fence = self._covering(rowid)
                if fence is None:
                    prev = RowVersion(0, 0, old_value)
                elif fence.scn is not None:
                    prev = RowVersion(fence.scn, fence.txn_id, old_value)
            version = RowVersion(None, txn.txn_id, new_value, prev)
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

    def set_fence(self, txn: Any, mark: Any = None
                  ) -> Optional[RowVersion]:
        """Register ``txn``'s fence for an insert (a heap's at ``mark``,
        its high-water mark before the append): what it inserts is
        invisible to snapshots older than its commit.  Returns the new
        fence, or None when ``txn``'s own is the last one already."""
        with self.latch:
            fences = self._fences
            if fences:
                last = fences[-1][1]
                if last.scn is None and last.txn_id == txn.txn_id:
                    return None
            fence = RowVersion(None, txn.txn_id, None)
            fences.append((mark, fence))
            self._owned[fence.txn_id] = fence
        return fence

    def drop_fence(self, fence: RowVersion) -> None:
        """Undo ``set_fence`` (an insert's rollback)."""
        with self.latch:
            fences = [entry for entry in self._fences
                      if entry[1] is not fence]
            if len(fences) != len(self._fences):
                self._epoch += 1
                self._fences = fences
                self._owned = {f.txn_id: f for _, f in fences}

    def clear(self) -> None:
        """Forget all chains and fences (truncate / table drop)."""
        with self.latch:
            self._epoch += 1
            self._heads.clear()
            self._drop_fences(len(self._fences))

    def _drop_fences(self, n: int) -> None:
        """Forget the ``n`` oldest fences (caller holds the latch)."""
        self._fences = self._fences[n:]
        self._owned = {f.txn_id: f for _, f in self._fences}

    @property
    def clean(self) -> bool:
        """True when no chains or fences exist (nothing for a prune
        pass to do)."""
        with self.latch:
            return not self._heads and not self._fences

    def _covering(self, rowid: Any) -> Optional[RowVersion]:
        """The fence whose range holds ``rowid``, or None (caller holds
        the latch)."""
        fences = self._fences
        i = bisect_right(fences, rowid, key=itemgetter(0))
        return fences[i - 1][1] if i else None

    def _hidden(self, snapshot: Snapshot) -> List[Tuple[Any, Any]]:
        """The mark ranges ``(low, high)`` (high None: no bound) of the
        fences ``snapshot`` does not see, lowest first (a keyed store's
        are marked None).  Inserts commit in fence order, so those
        fences are one run from the first committed one above its SCN,
        bisected, to the in-flight one if that is its own, else to the
        end — less its own, bisected too, when its transaction committed
        after taking it (a cursor fetched on)."""
        fences = self._fences
        n = top = committed = len(fences)
        if n and fences[n - 1][1].scn is None:
            committed -= 1
            if snapshot.visible(fences[committed][1]):
                top = committed
        low = bisect_right(fences, snapshot.scn, 0, committed, key=_scn_of)
        if low >= top:
            return []
        own = self._owned.get(snapshot.txn_id)
        i = top if own is None or own.scn is None else bisect_left(
            fences, own.scn, low, committed, key=_scn_of)
        if i >= committed or fences[i][1] is not own:
            i = top
        return [(fences[a][0], fences[b][0] if b < n else None)
                for a, b in ((low, i), (i + 1, top)) if a < b]

    def _hider(self, rowids: List[Any], snapshot: Snapshot
               ) -> Optional[Callable[[Any], bool]]:
        """A test of whether a fence ``snapshot`` does not see covers an
        untracked rowid, or None when none covers any of ``rowids``
        (none is hidden, or the batch lies wholly below the lowest)."""
        hidden = self._hidden(snapshot) if self._fences else []
        if not hidden or (rowids and max(rowids) < hidden[0][0]):
            return None

        def hides(rowid: Any) -> bool:
            for low, high in hidden:
                if low <= rowid and (high is None or rowid < high):
                    return True
            return False
        return hides

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

    def settled(self, snapshot: Snapshot, below: Any = None) -> bool:
        """True when ``snapshot`` sees every slot as it stands — every
        slot under the rowid ``below``, when given: no chain is mapped
        and no fence hides those rows from it."""
        if self._heads:
            return False
        if not self._fences:
            return True
        hidden = self._hidden(snapshot)
        return not hidden or (below is not None and below <= hidden[0][0])

    def resolve(self, rowid: Any, current: Optional[list],
                snapshot: Snapshot) -> Optional[list]:
        """The row value ``snapshot`` should see for ``rowid``.

        ``current`` is the live slot value (None when the slot is a
        tombstone).  Untracked rowids fall back to ``current`` unless
        a fence the snapshot does not see covers them.  Returns None
        when the row is invisible to the snapshot.
        """
        head = self._heads.get(rowid)
        if head is None:
            return self.resolve_batch([rowid], [current], snapshot)[0]
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
        store with no chains answers a batch with its slots when the
        snapshot sees every fence, or (a heap's) when the batch lies
        wholly below the lowest fence it does not see; rowids that do
        have a chain go through :meth:`resolve`, and each other one is
        tested once (:meth:`_hider`), however many fences it misses.
        """
        heads = self._heads
        hides = self._hider(rowids, snapshot)
        if not heads and hides is None:
            return currents
        resolve = self.resolve
        return [resolve(rowid, current, snapshot) if rowid in heads
                else None if hides is not None and hides(rowid)
                else current
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
        and forget every chain, and every fence, that leaves settled.

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
            # a fence every live snapshot sees is moot; the inserts
            # commit in fence order (an inserting transaction holds the
            # table), so the settled fences are the lowest
            fences = self._fences
            moot = 0
            while (moot < len(fences) and fences[moot][1].scn is not None
                   and fences[moot][1].scn <= lwm):
                moot += 1
            if moot:
                self._drop_fences(moot)
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
                    stats.chain_histogram.add(
                        newer + (keeper is not None) + cut)
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


class KeyedVersionStore(VersionStore):
    """An IOT's :class:`VersionStore`.  Its keys interleave, so a fence
    covers the keys (``rowid.key``) entered in it, not a mark range:
    one map entry per key, made once a read or a write asks for a
    key's fence (most batches settle before)."""

    def __init__(self):
        super().__init__()
        #: the fenced keys, each to its fence, and the ``(fence, keys)``
        #: batches not mapped yet
        self._keyed: Dict[Any, RowVersion] = {}
        self._batches: List[Tuple[RowVersion, List[Any]]] = []

    def fence_keys(self, txn: Any, keys: List[Any]) -> None:
        """Enter the batch ``keys`` in ``txn``'s fence, as it is."""
        with self.latch:
            self._batches.append((self._owned[txn.txn_id], keys))

    def unfence(self, keys: List[Any]) -> None:
        """Undo the newest :meth:`fence_keys`, of ``keys``, once they
        left the tree.  Undo runs newest first and one transaction at a
        time inserts into a table, so that batch is the last one not
        mapped yet, or, with none left, is in the map."""
        with self.latch:
            self._epoch += 1  # before the unmapping: see read()
            if self._batches:
                self._batches.pop()
            else:
                for key in keys:
                    self._keyed.pop(key, None)

    def _fenced(self) -> Dict[Any, RowVersion]:
        """The fenced keys, once the batches entered since the last
        call are mapped (caller holds the latch)."""
        for fence, keys in self._batches:
            self._keyed.update(zip(keys, repeat(fence)))
        self._batches = []
        return self._keyed

    def _drop_fences(self, n: int) -> None:
        super()._drop_fences(n)
        if self._keyed or self._batches:
            self._epoch += 1  # before the unmapping: see read()
            owned = self._owned
            self._batches = [batch for batch in self._batches
                             if owned.get(batch[0].txn_id) is batch[0]]
            self._keyed = {key: fence for key, fence in self._keyed.items()
                           if owned.get(fence.txn_id) is fence}

    def _covering(self, rowid: Any) -> Optional[RowVersion]:
        return self._fenced().get(rowid.key)

    def _hider(self, rowids: List[Any], snapshot: Snapshot
               ) -> Optional[Callable[[Any], bool]]:
        """One lookup a rowid, however many fences ``snapshot`` misses."""
        if not self._fences or not self._hidden(snapshot):
            return None
        with self.latch:
            fenced = self._fenced()

        def hides(rowid: Any) -> bool:
            fence = fenced.get(rowid.key)
            return fence is not None and not snapshot.visible(fence)
        return hides


def _scn_of(entry: Tuple[Any, RowVersion]) -> Optional[int]:
    return entry[1].scn


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
        since the last one (a commit that stamps none counts one, and a
        load's rows count as versions, its fence standing for one of
        them), so a large load settles at its own commit — unless the
        low-water mark still is where the last pass left it.
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
            stamped = len(versions) if versions else 1
            self._stamped_since_prune += stamped + getattr(txn, "loaded", 0)
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
