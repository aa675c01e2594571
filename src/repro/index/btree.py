"""A B+-tree supporting unique and non-unique keys and range scans.

This is the engine's native ordered access method (the paper's baseline
"B+-Trees [Com79]") and the storage structure behind index-organized
tables.  Leaves are chained for range scans; interior nodes hold
separator keys.  Deletion empties slots without rebalancing (empty nodes
are unlinked); the tree stays correct, and since this engine simulates
I/O rather than bytes on disk, occupancy is not the point.

A unique tree holds one payload per key, stored as it is.  A non-unique
tree stores a key's payload as it is too while the key has one, and a
list of them from the second: a second insert makes the list and the
delete that leaves one payload unmakes it (so a payload must not itself
be a list).  The difference stays inside the leaves: every method takes and
returns the same shapes either way.  An entry with one payload costs its
key and its payload and no list around the payload, so a leaf of such
entries holds nothing the cyclic collector tracks but the leaf's own
lists when its keys and payloads are plain values and tuples of them.

Node visits are charged to an optional ``touch`` callback so index
traffic shows up in the same :class:`~repro.storage.buffer.IOStats`
counters as heap traffic.
"""

from __future__ import annotations

import bisect
import threading
from itertools import islice
from operator import itemgetter, lt
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConstraintError, StorageError

#: fast first- and second-element extractors for bulk-load sorting
_first = itemgetter(0)
_second = itemgetter(1)

#: Maximum entries per node before a split.
DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.keys: List[Any] = []
        # leaf: values[i] is keys[i]'s payload, or (non-unique tree, a
        # key with several) the list of its payloads
        self.values: List[Any] = []
        # interior: children[i] covers keys < keys[i]; len(children) == len(keys)+1
        self.children: List["_Node"] = []
        self.next_leaf: Optional["_Node"] = None


class BTree:
    """B+-tree mapping orderable keys to payload values.

    For ``unique=True`` a duplicate insert raises
    :class:`~repro.errors.ConstraintError` and each key holds its one
    payload; otherwise a key holds its payloads in insertion order.  No
    payload may be a ``list``.
    """

    def __init__(self, order: int = DEFAULT_ORDER, unique: bool = False,
                 touch: Optional[Callable[[int], None]] = None):
        if order < 4:
            raise StorageError("btree order must be >= 4")
        self.order = order
        self.unique = unique
        self._touch = touch
        self._root = _Node(leaf=True)
        self._height = 1
        #: taken by index maintenance and by snapshot-mode probes, so
        #: lock-free readers never see the structure mid-restructure
        self.latch = threading.Lock()
        self._count = 0  # number of (key, value) entries

    # -- instrumentation -------------------------------------------------

    def _visit(self, nodes: int = 1) -> None:
        if self._touch is not None:
            self._touch(nodes)

    @property
    def entry_count(self) -> int:
        """Total number of (key, value) entries."""
        return self._count

    @property
    def height(self) -> int:
        """Tree height in levels (1 = root is a leaf)."""
        return self._height

    def __len__(self) -> int:
        return self._count

    # -- mutation ---------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert a (key, value) entry; splits nodes as needed."""
        split = self._insert(self._root, key, value, True)
        if split is not None:
            sep, right = split
            new_root = _Node(leaf=False)
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._count += 1

    def delete(self, key: Any, value: Any = None) -> bool:
        """Delete one entry for ``key``.

        With ``value`` given, removes that specific payload (needed for
        non-unique indexes, where one key maps to many rowids); otherwise
        removes the whole key.  Returns True when something was removed.
        """
        node = self._leaf_for(key)
        while node is not None:
            idx = bisect.bisect_left(node.keys, key)
            if idx >= len(node.keys):
                node = node.next_leaf
                self._visit()
                continue
            if node.keys[idx] != key:
                return False
            stored = node.values[idx]
            if stored.__class__ is not list:
                if value is not None and not (stored is value
                                              or stored == value):
                    return False
                del node.keys[idx]
                del node.values[idx]
                self._count -= 1
                return True
            if value is None:
                del node.keys[idx]
                del node.values[idx]
                self._count -= len(stored)
                return True
            try:
                stored.remove(value)
            except ValueError:
                return False
            if len(stored) == 1:
                node.values[idx] = stored[0]
            self._count -= 1
            return True
        return False

    def clear(self) -> None:
        """Remove every entry."""
        self._root = _Node(leaf=True)
        self._height = 1
        self._count = 0

    def bulk_load(self, pairs: Iterable[Tuple[Any, Any]]) -> None:
        """Replace the tree's contents with ``pairs``, built bottom-up.

        The classic sorted bulk build: sort once, pack full leaves in
        key order chaining ``next_leaf``, then build each interior
        level from the subtree minima of the level below — no per-entry
        descent, no splits.  Duplicate keys collapse into one payload
        list preserving input order (or raise for a unique tree, before
        any existing contents are discarded); a key loaded once holds
        its payload bare.
        """
        pairs = list(pairs)
        self.bulk_load_columns(list(map(_first, pairs)),
                               list(map(_second, pairs)))

    def bulk_load_columns(self, keys: List[Any], values: List[Any]) -> None:
        """:meth:`bulk_load` of the pairs ``zip(keys, values)``, given as
        two aligned columns, so a caller builds no pair per entry."""
        out_keys: List[Any] = []
        out_values: List[Any] = []
        unique = self.unique
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            key, value = keys[i], values[i]
            if out_keys and out_keys[-1] == key:
                if unique:
                    raise ConstraintError(
                        f"duplicate key {key!r} in unique index")
                if out_values[-1].__class__ is list:
                    out_values[-1].append(value)
                else:
                    out_values[-1] = [out_values[-1], value]
            else:
                out_keys.append(key)
                out_values.append(value)
        self._build_sorted(out_keys, out_values, len(keys))

    def insert_batch(self, pairs: List[Tuple[Any, Any]]) -> None:
        """Insert ``(key, value)`` pairs as one batch, all or none.

        An empty tree is built bottom-up (:meth:`bulk_load`); into a
        populated one the pairs go in key order.  A unique violation —
        against a stored key or inside the batch — raises with the tree
        as it was.
        """
        if not self._count:
            self.bulk_load(pairs)
            return
        pairs = sorted(pairs, key=_first)
        done = 0
        try:
            for key, value in pairs:
                self.insert(key, value)
                done += 1
        except ConstraintError:
            for key, value in pairs[:done]:
                self.delete(key, value)
            raise

    def bulk_load_sorted(self, keys: List[Any],
                         payloads: List[Any]) -> None:
        """Replace the tree with pre-sorted unique entries, built bottom-up.

        The zero-sort fast path for loaders that produce entries in key
        order (sort-group inverted-list construction): ``keys`` must be
        strictly increasing — verified in one C-level pass — and
        ``payloads[i]`` is the single payload stored under ``keys[i]``.
        """
        n_entries = len(keys)
        if len(payloads) != n_entries:
            raise StorageError(
                "bulk_load_sorted: keys and payloads differ in length")
        if n_entries > 1 and not all(map(lt, keys, islice(keys, 1, None))):
            raise StorageError(
                "bulk_load_sorted: keys are not strictly increasing")
        self._build_sorted(list(keys), list(payloads), n_entries)

    def _build_sorted(self, keys: List[Any], values: List[Any],
                      n_entries: int) -> None:
        """Pack sorted unique ``keys``/``values`` into leaves bottom-up."""
        if not keys:
            self.clear()
            return
        # pack leaves at full occupancy
        cap = self.order
        leaves: List[_Node] = []
        for start in range(0, len(keys), cap):
            leaf = _Node(leaf=True)
            leaf.keys = keys[start:start + cap]
            leaf.values = values[start:start + cap]
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
        self._visit(len(leaves))
        # build interior levels until one root remains; separators are
        # the minimum key of each right-hand subtree
        level = leaves
        mins = [leaf.keys[0] for leaf in leaves]
        height = 1
        while len(level) > 1:
            parents: List[_Node] = []
            parent_mins: List[Any] = []
            for start in range(0, len(level), cap + 1):
                node = _Node(leaf=False)
                node.children = level[start:start + cap + 1]
                node.keys = mins[start + 1:start + len(node.children)]
                parents.append(node)
                parent_mins.append(mins[start])
            self._visit(len(parents))
            level = parents
            mins = parent_mins
            height += 1
        self._root = level[0]
        self._height = height
        self._count = n_entries

    # -- lookup -------------------------------------------------------------

    def search(self, key: Any) -> List[Any]:
        """Return the list of payloads stored under ``key`` (possibly empty)."""
        node = self._leaf_for(key)
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            stored = node.values[idx]
            return stored[:] if stored.__class__ is list else [stored]
        return []

    def contains(self, key: Any) -> bool:
        """True when at least one entry exists for ``key``."""
        return bool(self.search(key))

    def range_scan(self, low: Any = None, high: Any = None,
                   low_inclusive: bool = True,
                   high_inclusive: bool = True) -> Iterator[Tuple[Any, Any]]:
        """Yield (key, value) pairs with ``low <= key <= high`` in key order.

        Either bound may be None for an open end; inclusivity is
        controlled per bound (needed for ``>`` vs ``>=`` predicates).
        """
        for keys, values in self.range_slices(low, high, low_inclusive,
                                              high_inclusive):
            if self.unique:
                yield from zip(keys, values)
                continue
            for key, stored in zip(keys, values):
                if stored.__class__ is list:
                    for payload in stored:
                        yield key, payload
                else:
                    yield key, stored

    def range_slices(self, low: Any = None, high: Any = None,
                     low_inclusive: bool = True, high_inclusive: bool = True
                     ) -> Iterator[Tuple[List[Any], List[Any]]]:
        """:meth:`range_scan`'s entries a leaf at a time: ``(keys,
        values)`` slices of each leaf's lists (``values[i]`` as a leaf
        holds it: the payload, or the list of a non-unique key's
        several).
        Two bisects a leaf find the run, so a walk costs no Python code
        per entry.  A bound need not be a key: it only has to order
        against the keys."""
        node = self._leaf_for(low)
        while node is not None:
            keys = node.keys
            start = 0 if low is None else (
                bisect.bisect_left if low_inclusive
                else bisect.bisect_right)(keys, low)
            end = len(keys) if high is None else (
                bisect.bisect_right if high_inclusive
                else bisect.bisect_left)(keys, high)
            if start < end:
                yield keys[start:end], node.values[start:end]
                low = None  # every later leaf starts past it
            if end < len(keys):
                return
            node = node.next_leaf
            if node is not None:
                self._visit()

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Yield every (key, value) entry in key order."""
        return self.range_scan()

    def min_key(self) -> Optional[Any]:
        """Smallest key in the tree, or None when empty."""
        for key, _ in self.range_scan():
            return key
        return None

    def max_key(self) -> Optional[Any]:
        """Largest key in the tree, or None when empty (walks right spine)."""
        node = self._root
        self._visit()
        while not node.leaf:
            node = node.children[-1]
            self._visit()
        # rightmost leaf may have been emptied by deletes; fall back to scan
        if node.keys:
            return node.keys[-1]
        best = None
        for key, _ in self.range_scan():
            best = key
        return best

    # -- internals ----------------------------------------------------------

    def _leaf_for(self, key: Any) -> _Node:
        """The leaf ``key`` belongs in (None: the first leaf).  The
        descent charges its levels to the counter in one call."""
        node = self._root
        levels = 1
        while not node.leaf:
            node = node.children[
                0 if key is None else bisect.bisect_right(node.keys, key)]
            levels += 1
        self._visit(levels)
        return node

    def _insert(self, node: _Node, key: Any, value: Any,
                rightmost: bool) -> Optional[Tuple[Any, _Node]]:
        """Insert under ``node``, which is on the tree's right edge when
        ``rightmost``; a split returns ``(separator, right sibling)``."""
        self._visit()
        if node.leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                if self.unique:
                    raise ConstraintError(f"duplicate key {key!r} in unique index")
                stored = node.values[idx]
                if stored.__class__ is list:
                    stored.append(value)
                else:
                    node.values[idx] = [stored, value]
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
        else:
            idx = bisect.bisect_right(node.keys, key)
            split = self._insert(node.children[idx], key, value,
                                 rightmost and idx == len(node.keys))
            if split is None:
                return None
            sep, right = split
            node.keys.insert(idx, sep)
            node.children.insert(idx + 1, right)
        if len(node.keys) > self.order:
            return self._split(node, rightmost and idx == len(node.keys) - 1)
        return None

    def _split(self, node: _Node, appended: bool) -> Tuple[Any, _Node]:
        """Split an overfull ``node`` in halves, or keep it full when the
        entry went to the tree's right end (Oracle's 90/10 split)."""
        mid = len(node.keys) - 1 if appended else len(node.keys) // 2
        right = _Node(leaf=node.leaf)
        if node.leaf:
            right.keys = node.keys[mid:]
            right.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            right.next_leaf = node.next_leaf
            node.next_leaf = right
            return right.keys[0], right
        sep = node.keys[mid]
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return sep, right
