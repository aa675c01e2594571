"""One oracle for the version store: a store that forgets settled chains
answers every live snapshot exactly as a store that never forgets.

The reference keeps the rule the store had before it learned to forget
(a prune pass cuts tails and leaves every head mapped); it lives here,
in the test, as the thing to compare against.  The machine drives both
through the same pushes, commits, rollbacks, snapshots and prune
passes, with the slots a storage would hold kept beside them.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule)

from repro.txn.mvcc import MVCCManager, VersionStore

pytestmark = pytest.mark.mvcc

ROWIDS = list(range(6))


class _NeverForgets(VersionStore):
    """The parent's prune: cut below the keeper, unmap nothing."""

    def prune(self, lwm, stats=None):
        removed = 0
        with self.latch:
            for head in self._heads.values():
                keeper = head
                while keeper is not None and (keeper.scn is None
                                              or keeper.scn > lwm):
                    keeper = keeper.prev
                if keeper is not None:
                    tail, keeper.prev = keeper.prev, None
                    while tail is not None:
                        tail, removed = tail.prev, removed + 1
        return removed


class _Txn:
    def __init__(self, txn_id):
        self.txn_id = txn_id
        self.versions = []
        self.undo = []  # (rowid, old slot value, version per store)

    def track_version(self, version):
        self.versions.append(version)


class VersionStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.mvcc = MVCCManager()
        self.stores = (VersionStore(), _NeverForgets())
        self.slots = dict.fromkeys(ROWIDS)  # rowid -> row or None
        self.open = {}                      # txn_id -> _Txn
        self.writer = {}                    # rowid -> txn_id writing it
        self.snapshots = []
        self.next_txn = 1
        self.next_value = 0

    # -- writes -------------------------------------------------------------

    @rule(rowid=st.sampled_from(ROWIDS), delete=st.booleans(),
          pick=st.integers(0, 3))
    def write(self, rowid, delete, pick):
        """An insert, update or delete by an open (or new) transaction;
        a row has one writer at a time, as under the table lock."""
        owner = self.writer.get(rowid)
        if owner is None:
            ids = sorted(self.open)
            if pick < len(ids):
                owner = ids[pick]
            else:
                owner, self.next_txn = self.next_txn, self.next_txn + 1
                self.open[owner] = _Txn(owner)
        txn = self.open[owner]
        old = self.slots[rowid]
        if delete and old is None:
            return
        self.next_value += 1
        new = None if delete else [rowid, self.next_value]
        versions = []
        for store in self.stores:  # chain first, then touch the slot
            version = store.push(rowid, new, old, txn)
            txn.track_version(version)
            versions.append(version)
        self.slots[rowid] = new
        self.writer[rowid] = owner
        txn.undo.append((rowid, old, versions))

    @precondition(lambda self: self.open)
    @rule(pick=st.integers(0, 3), commit=st.booleans())
    def finish(self, pick, commit):
        ids = sorted(self.open)
        txn = self.open.pop(ids[pick % len(ids)])
        if commit:
            self.mvcc.commit_transaction(txn)
        else:
            for rowid, old, versions in reversed(txn.undo):
                self.slots[rowid] = old  # restore the slot, then pop
                for store, version in zip(self.stores, versions):
                    store.pop(rowid, version)
        for rowid in [r for r, t in self.writer.items() if t == txn.txn_id]:
            del self.writer[rowid]

    # -- snapshots and the pass ----------------------------------------------

    @rule(own=st.booleans(), pick=st.integers(0, 3))
    def take_snapshot(self, own, pick):
        ids = sorted(self.open)
        txn_id = ids[pick % len(ids)] if own and ids else None
        self.snapshots.append(self.mvcc.take_snapshot(txn_id))

    @precondition(lambda self: self.snapshots)
    @rule(pick=st.integers(0, 7))
    def drop_snapshot(self, pick):
        self.snapshots.pop(pick % len(self.snapshots))

    @rule()
    def prune(self):
        lwm = self.mvcc.low_water_mark()
        forgetting, reference = self.stores
        forgetting.prune(lwm)
        reference.prune(lwm)
        for head in forgetting._heads.values():
            # mapped means: in flight, above the mark, or history kept
            assert (head.scn is None or head.scn > lwm
                    or head.prev is not None)
        if not self.snapshots and not self.open:
            assert forgetting.tracked_rowids() == [] and forgetting.clean

    # -- the oracle ---------------------------------------------------------

    @invariant()
    def every_live_snapshot_reads_the_same(self):
        forgetting, reference = self.stores
        assert set(forgetting._heads) <= set(reference._heads)
        currents = [self.slots[rowid] for rowid in ROWIDS]
        for snapshot in self.snapshots:
            expected = [reference.resolve(rowid, current, snapshot)
                        for rowid, current in zip(ROWIDS, currents)]
            assert [forgetting.resolve(rowid, current, snapshot)
                    for rowid, current in zip(ROWIDS, currents)] == expected
            for store in self.stores:
                assert store.resolve_batch(
                    ROWIDS, list(currents), snapshot) == expected


TestVersionStoreOracle = VersionStoreMachine.TestCase
TestVersionStoreOracle.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
