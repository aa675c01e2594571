"""Property tests: the B+-tree behaves like a sorted multimap model, and
a unique one like a dict."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ConstraintError, StorageError
from repro.index.btree import BTree

keys = st.integers(min_value=-1000, max_value=1000)
values = st.integers(min_value=0, max_value=10)


@given(st.lists(st.tuples(keys, values), max_size=300))
def test_items_sorted_and_complete(entries):
    tree = BTree(order=4)
    for key, value in entries:
        tree.insert(key, value)
    got = list(tree.items())
    assert sorted(e[0] for e in entries) == [k for k, __ in got]
    assert sorted(entries) == sorted(got)


@given(st.lists(st.tuples(keys, values), max_size=200),
       keys, keys)
def test_range_scan_matches_filter(entries, low, high):
    if low > high:
        low, high = high, low
    tree = BTree(order=4)
    for key, value in entries:
        tree.insert(key, value)
    got = sorted(tree.range_scan(low, high))
    expected = sorted((k, v) for k, v in entries if low <= k <= high)
    assert got == expected


@given(st.lists(st.tuples(keys, values), max_size=200), st.data())
def test_delete_removes_exactly_one(entries, data):
    tree = BTree(order=4)
    for key, value in entries:
        tree.insert(key, value)
    if not entries:
        return
    victim = data.draw(st.sampled_from(entries))
    assert tree.delete(*victim)
    remaining = sorted(tree.items())
    model = sorted(entries)
    model.remove(victim)
    assert remaining == model


class BTreeMachine(RuleBasedStateMachine):
    """Stateful comparison against a list-of-pairs model."""

    def __init__(self):
        super().__init__()
        self.tree = BTree(order=4)
        self.model = []

    @rule(key=keys, value=values)
    def insert(self, key, value):
        self.tree.insert(key, value)
        self.model.append((key, value))

    @rule(key=keys)
    def delete_key(self, key):
        expected = any(k == key for k, __ in self.model)
        assert self.tree.delete(key) == expected
        self.model = [(k, v) for k, v in self.model if k != key]

    @rule(key=keys)
    def search(self, key):
        expected = sorted(v for k, v in self.model if k == key)
        assert sorted(self.tree.search(key)) == expected

    @invariant()
    def size_and_order_agree(self):
        assert len(self.tree) == len(self.model)
        got_keys = [k for k, __ in self.tree.items()]
        assert got_keys == sorted(got_keys)


TestBTreeMachine = BTreeMachine.TestCase
TestBTreeMachine.settings = settings(max_examples=25,
                                     stateful_step_count=30,
                                     deadline=None)


# ---------------------------------------------------------------------------
# unique trees: one payload per key, against a dict
# ---------------------------------------------------------------------------

payloads = st.one_of(values, st.tuples(values, st.text(max_size=2)))
bounds = st.one_of(st.none(), keys)


class UniqueBTreeMachine(RuleBasedStateMachine):
    """A unique tree against a ``{key: payload}`` model, through every
    mutation path; a duplicate raises and leaves the tree as it was."""

    def __init__(self):
        super().__init__()
        self.tree = BTree(order=4, unique=True)
        self.model = {}

    @rule(key=keys, payload=payloads)
    def insert(self, key, payload):
        if key in self.model:
            with pytest.raises(ConstraintError):
                self.tree.insert(key, payload)
        else:
            self.tree.insert(key, payload)
            self.model[key] = payload

    @rule(key=keys, payload=payloads)
    def delete_key_value(self, key, payload):
        expected = key in self.model and self.model[key] == payload
        assert self.tree.delete(key, payload) == expected
        if expected:
            del self.model[key]

    @rule(data=st.data())
    def delete_stored_payload(self, data):
        if self.model:
            key = data.draw(st.sampled_from(sorted(self.model)))
            assert self.tree.delete(key, self.model.pop(key))

    @rule(key=keys)
    def delete_key(self, key):
        assert self.tree.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=keys)
    def search(self, key):
        expected = [self.model[key]] if key in self.model else []
        assert self.tree.search(key) == expected
        assert self.tree.contains(key) == bool(expected)

    @rule(low=bounds, high=bounds, low_inclusive=st.booleans(),
          high_inclusive=st.booleans())
    def range_scan(self, low, high, low_inclusive, high_inclusive):
        def in_range(key):
            if low is not None and (key < low
                                    or key == low and not low_inclusive):
                return False
            return high is None or not (key > high
                                        or key == high and not high_inclusive)
        expected = [(k, self.model[k]) for k in sorted(self.model)
                    if in_range(k)]
        assert list(self.tree.range_scan(
            low, high, low_inclusive, high_inclusive)) == expected

    @rule(entries=st.lists(st.tuples(keys, payloads), max_size=40))
    def bulk_load(self, entries):
        if len({k for k, __ in entries}) < len(entries):
            with pytest.raises(ConstraintError):
                self.tree.bulk_load(entries)
        else:
            self.tree.bulk_load(entries)
            self.model = dict(entries)

    @rule(entries=st.lists(st.tuples(keys, payloads), max_size=40))
    def bulk_load_sorted(self, entries):
        entries.sort(key=lambda entry: entry[0])
        sorted_keys = [k for k, __ in entries]
        if len(set(sorted_keys)) < len(sorted_keys):
            with pytest.raises(StorageError):
                self.tree.bulk_load_sorted(sorted_keys,
                                           [p for __, p in entries])
        else:
            self.tree.bulk_load_sorted(sorted_keys, [p for __, p in entries])
            self.model = dict(entries)

    @invariant()
    def same_entries(self):
        assert len(self.tree) == len(self.model)
        assert list(self.tree.items()) == sorted(self.model.items())
        assert self.tree.min_key() == min(self.model, default=None)
        assert self.tree.max_key() == max(self.model, default=None)


TestUniqueBTreeMachine = UniqueBTreeMachine.TestCase
TestUniqueBTreeMachine.settings = settings(max_examples=40,
                                           stateful_step_count=40,
                                           deadline=None)


@pytest.mark.parametrize("build", ["insert", "bulk_load", "bulk_load_sorted"])
def test_unique_tree_stores_the_payload_itself(build):
    """No container per entry: 5 000 untracked payloads under 5 000
    untracked keys leave only the nodes for the collector to track, on
    every path that fills a unique tree."""
    n = 5000
    gc.collect()
    before = len(gc.get_objects())
    tree = BTree(unique=True)
    if build == "insert":
        for i in range(n):
            tree.insert(i, i)
    elif build == "bulk_load":
        tree.bulk_load((i, i) for i in range(n))
    else:
        tree.bulk_load_sorted(list(range(n)), list(range(n)))
    gc.collect()
    assert len(tree) == n and tree.search(7) == [7]
    # the nodes: three objects (node, keys, values) per 32-64 entries
    assert len(gc.get_objects()) - before < n // 5
