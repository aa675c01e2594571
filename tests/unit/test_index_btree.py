"""B+-tree: ordering, duplicates, range scans, deletion."""

import random

import pytest

from repro.errors import ConstraintError, StorageError
from repro.index.btree import BTree


class TestInsertSearch:
    def test_empty(self):
        tree = BTree()
        assert tree.search(1) == []
        assert len(tree) == 0
        assert tree.min_key() is None
        assert tree.max_key() is None

    def test_single(self):
        tree = BTree()
        tree.insert(5, "five")
        assert tree.search(5) == ["five"]
        assert tree.contains(5)
        assert not tree.contains(6)

    def test_many_keys_split_correctly(self):
        tree = BTree(order=4)
        keys = list(range(500))
        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 10)
        assert len(tree) == 500
        assert tree.height > 1
        for key in (0, 250, 499):
            assert tree.search(key) == [key * 10]

    def test_duplicates_non_unique(self):
        tree = BTree(unique=False)
        tree.insert("k", 1)
        tree.insert("k", 2)
        assert tree.search("k") == [1, 2]
        assert len(tree) == 2

    def test_duplicates_unique_raise(self):
        tree = BTree(unique=True)
        tree.insert("k", 1)
        with pytest.raises(ConstraintError):
            tree.insert("k", 2)

    def test_min_order_enforced(self):
        with pytest.raises(StorageError):
            BTree(order=2)

    def test_tuple_keys(self):
        tree = BTree()
        tree.insert(("oracle", 2), "a")
        tree.insert(("oracle", 1), "b")
        assert [k for k, __ in tree.items()] == [("oracle", 1), ("oracle", 2)]


class TestRangeScan:
    @pytest.fixture
    def tree(self):
        tree = BTree(order=4)
        for key in range(0, 100, 2):  # evens 0..98
            tree.insert(key, f"v{key}")
        return tree

    def test_full_scan_ordered(self, tree):
        keys = [k for k, __ in tree.items()]
        assert keys == sorted(keys)
        assert len(keys) == 50

    def test_closed_range(self, tree):
        keys = [k for k, __ in tree.range_scan(10, 20)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_open_low(self, tree):
        keys = [k for k, __ in tree.range_scan(None, 6)]
        assert keys == [0, 2, 4, 6]

    def test_open_high(self, tree):
        keys = [k for k, __ in tree.range_scan(94, None)]
        assert keys == [94, 96, 98]

    def test_exclusive_bounds(self, tree):
        keys = [k for k, __ in tree.range_scan(10, 20, low_inclusive=False,
                                               high_inclusive=False)]
        assert keys == [12, 14, 16, 18]

    def test_bounds_between_keys(self, tree):
        keys = [k for k, __ in tree.range_scan(11, 15)]
        assert keys == [12, 14]

    def test_empty_range(self, tree):
        assert list(tree.range_scan(13, 13)) == []

    def test_min_max(self, tree):
        assert tree.min_key() == 0
        assert tree.max_key() == 98


class TestDelete:
    def test_delete_specific_value(self):
        tree = BTree()
        tree.insert("k", 1)
        tree.insert("k", 2)
        assert tree.delete("k", 1)
        assert tree.search("k") == [2]
        assert len(tree) == 1

    def test_delete_whole_key(self):
        tree = BTree()
        tree.insert("k", 1)
        tree.insert("k", 2)
        assert tree.delete("k")
        assert tree.search("k") == []
        assert len(tree) == 0

    def test_delete_missing_returns_false(self):
        tree = BTree()
        tree.insert("k", 1)
        assert not tree.delete("k", 99)
        assert not tree.delete("missing")

    @pytest.mark.parametrize("unique", [False, True])
    def test_delete_by_an_equal_rowid(self, unique):
        """Index payloads are rowids; the DML engine deletes with a
        rowid it rebuilt, equal to the stored one but not the same
        object."""
        tree = BTree(order=4, unique=unique)
        for slot in range(20):
            tree.insert(slot if unique else slot % 3, (1, 0, slot))
        key = 7 if unique else 1
        assert not tree.delete(key, (1, 1, 7))
        assert tree.delete(key, (1, 0, 7))
        assert (1, 0, 7) not in tree.search(key)
        assert len(tree) == 19

    def test_delete_then_range_scan(self):
        tree = BTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        for key in range(0, 100, 3):
            tree.delete(key)
        expected = [k for k in range(100) if k % 3]
        assert [k for k, __ in tree.items()] == expected

    def test_clear(self):
        tree = BTree()
        for key in range(10):
            tree.insert(key, key)
        tree.clear()
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_max_key_after_heavy_right_deletes(self):
        tree = BTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        for key in range(50, 100):
            tree.delete(key)
        assert tree.max_key() == 49


class TestOnePayloadIsStoredBare:
    """A non-unique key holding one payload stores it without a list: a
    second insert makes the list and the delete that leaves one payload
    unmakes it.  Every method returns the same shapes either way."""

    @staticmethod
    def _stored(tree):
        return [value for __, values in tree.range_slices()
                for value in values]

    def test_insert_and_delete_move_between_the_two_layouts(self):
        tree = BTree(order=4)
        for slot in range(30):
            tree.insert(slot, (1, 0, slot))
        assert self._stored(tree) == [(1, 0, slot) for slot in range(30)]
        tree.insert(7, (1, 1, 7))
        tree.insert(7, (1, 2, 7))
        stored = self._stored(tree)
        assert stored[7] == [(1, 0, 7), (1, 1, 7), (1, 2, 7)]
        assert tree.search(7) == [(1, 0, 7), (1, 1, 7), (1, 2, 7)]
        assert len(tree) == 32
        assert tree.delete(7, (1, 1, 7)) and tree.delete(7, (1, 0, 7))
        assert self._stored(tree)[7] == (1, 2, 7)
        assert tree.search(7) == [(1, 2, 7)]
        assert not tree.delete(7, (1, 0, 7))
        assert tree.delete(7, (1, 2, 7))
        assert tree.search(7) == [] and len(tree) == 29
        assert list(tree.range_scan(5, 9)) \
            == [(5, (1, 0, 5)), (6, (1, 0, 6)), (8, (1, 0, 8)),
                (9, (1, 0, 9))]

    def test_search_hands_out_a_copy(self):
        tree = BTree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        tree.search(1).append("c")
        tree.search(2).append("c")
        assert tree.search(1) == ["a", "b"] and tree.search(2) == []

    def test_whole_key_delete_counts_every_payload(self):
        tree = BTree()
        for value in ("a", "b", "c"):
            tree.insert(1, value)
        tree.insert(2, "d")
        assert tree.delete(1) and tree.delete(2)
        assert len(tree) == 0 and list(tree.range_scan()) == []

    def test_bulk_loads_store_a_lone_payload_bare(self):
        tree = BTree(order=4)
        tree.bulk_load([(2, "x"), (1, "a"), (2, "y"), (3, "z")])
        assert self._stored(tree) == ["a", ["x", "y"], "z"]
        assert list(tree.range_scan()) \
            == [(1, "a"), (2, "x"), (2, "y"), (3, "z")]
        assert len(tree) == 4
        tree.bulk_load_sorted([1, 2, 3], ["p", "q", "r"])
        assert self._stored(tree) == ["p", "q", "r"]
        tree.insert(2, "s")
        assert tree.search(2) == ["q", "s"]


class TestSplits:
    """A node overfilled at the tree's right end keeps ``order``
    entries and hands the new sibling only the last (the 90/10 split);
    any other split halves the node."""

    @staticmethod
    def leaf_sizes(tree):
        sizes, node = [], tree._leaf_for(None)
        while node is not None:
            sizes.append(len(node.keys))
            node = node.next_leaf
        return sizes

    def test_an_append_leaves_the_left_node_full(self):
        tree = BTree(order=8)
        for key in range(9):
            tree.insert(key, key)
        assert self.leaf_sizes(tree) == [8, 1]

    def test_a_split_inside_the_tree_halves(self):
        tree = BTree(order=8)
        for key in [*range(8), 3.5]:
            tree.insert(key, key)
        assert self.leaf_sizes(tree) == [4, 5]

    def test_ascending_keys_fill_every_node_but_the_right_edge(self):
        tree = BTree(order=8)
        for key in range(1000):
            tree.insert(key, str(key))
        sizes = self.leaf_sizes(tree)
        assert set(sizes[:-1]) == {8} and len(sizes) == 125
        assert tree.height == 4
        assert list(tree.items()) == [(k, str(k)) for k in range(1000)]
        # a populated tree takes more ascending keys the same way
        for key in range(1000, 1100):
            tree.insert(key, str(key))
        assert set(self.leaf_sizes(tree)[:-1]) == {8}
        assert tree.search(1050) == ["1050"]


class TestInstrumentation:
    def test_touch_hook_counts_visits(self):
        visits = []
        tree = BTree(order=4, touch=visits.append)
        for key in range(100):
            tree.insert(key, key)
        visits.clear()
        tree.search(50)
        assert sum(visits) >= tree.height

    def test_descent_charges_its_levels_in_one_call(self):
        """A search on a 3-level tree calls the hook once, with 3, for
        loaded and for inserted trees alike; the reads it charges are
        the levels it descended."""
        for build in ("bulk", "insert"):
            visits = []
            tree = BTree(order=4, touch=visits.append)
            if build == "bulk":
                tree.bulk_load((key, key) for key in range(40))
            else:
                for key in range(40):
                    tree.insert(key, key)
            assert tree.height == 3
            for key in (0, 7, 19, 1000):
                visits.clear()
                tree.search(key)
                assert visits == [3], (build, key)
