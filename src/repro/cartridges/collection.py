"""Collection cartridge: indexing VARRAY / nested-table columns (§3.1).

"In Oracle8i, collection type columns cannot be indexed using built-in
indexing schemes.  Consider the operator Contains(VARRAY, elem_value)
which returns TRUE if the VARRAY contains an element with the value
elem_value.  For such an operator, the user can provide both a
functional implementation as well as an indextype based implementation
and use it for processing queries such as:

    SELECT * FROM Employees WHERE Contains(Hobbies, 'Skiing');"

This module is that example, end to end: the ``Coll_Contains`` operator
(named to avoid colliding with the text cartridge's Contains), an
element inverted index stored in an IOT, and the usual implicit
maintenance.  It also indexes element *counts*, supporting the
ancillary ``Coll_Count(label)`` operator (occurrences of the element in
the matched collection).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.core.odci import (
    IndexMethods, IndexTable, ODCIEnv, ODCIIndexInfo, ODCIPredInfo,
    ODCIQueryInfo)
from repro.core.scan_context import PrecomputedScan
from repro.core.stats import IndexCost, StatsMethods
from repro.errors import ODCIError
from repro.types.objects import iter_collection
from repro.types.values import is_null

#: Per-call optimizer cost of the functional implementation.
FUNCTIONAL_COST = 0.05


def coll_contains(collection: Any, element: Any) -> int:
    """Functional implementation: occurrences of ``element`` (0 = absent)."""
    if is_null(collection) or is_null(element):
        return 0
    return sum(1 for item in iter_collection(collection)
               if not is_null(item) and item == element)


#: The element inverted index: occurrences of each element per row.
_ELEMS = IndexTable(
    "elems", "elem VARCHAR2(256), rid ROWID, occurrences INTEGER,"
    " PRIMARY KEY (elem, rid)", organization_index=True)


def _element_key(element: Any) -> str:
    """Normalize an element to the index's VARCHAR2 key space."""
    return repr(element) if not isinstance(element, str) else element


class CollectionIndexMethods(IndexMethods):
    """ODCIIndex routines of CollectionIndexType.

    Storage: an IOT ``(elem, rid, occurrences)`` keyed on (elem, rid) —
    the same shape as the text cartridge's inverted index, with
    collection elements instead of tokens.
    """

    index_tables = (_ELEMS,)

    @staticmethod
    def _element_counts(collection: Any) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        if is_null(collection):
            return counts
        for item in iter_collection(collection):
            if is_null(item):
                continue
            key = _element_key(item)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def index_insert_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Count every new collection's elements, then insert all
        ``(elem, rid, occurrences)`` rows in one call."""
        rows = [[key, rowid, count] for rowid, new_values in entries
                for key, count in self._element_counts(new_values[0]).items()]
        if rows:
            env.callback.insert_rows(_ELEMS.name(ia), rows)

    def index_delete(self, ia: ODCIIndexInfo, rowid: Any,
                     old_values: Sequence[Any], env: ODCIEnv) -> None:
        """Delete the row's ``(elem, rid)`` keys, derived from its old
        collection."""
        keys = [(key, rowid) for key in self._element_counts(old_values[0])]
        if keys:
            env.callback.delete_rows(_ELEMS.name(ia), keys)

    def index_start(self, ia: ODCIIndexInfo, op_info: ODCIPredInfo,
                    query_info: ODCIQueryInfo, env: ODCIEnv) -> Any:
        if not op_info.operator_args:
            raise ODCIError("ODCIIndexStart",
                            "Coll_Contains requires an element argument")
        element = op_info.operator_args[0]
        if is_null(element):
            return PrecomputedScan([])
        rows = env.callback.query(
            f"SELECT rid, occurrences FROM {_ELEMS.name(ia)}"
            " WHERE elem = :1", [_element_key(element)])
        accepted = sorted(
            (rid, count) for rid, count in rows
            if op_info.bound_accepts(count))
        if query_info.ancillary_label is not None:
            return PrecomputedScan(accepted, want_aux=True)
        return PrecomputedScan([rid for rid, __ in accepted])


class CollectionStatsMethods(StatsMethods):
    """ODCIStats routines for CollectionIndexType."""

    def selectivity(self, pred_info: ODCIPredInfo, args: Sequence[Any],
                    env: ODCIEnv) -> float:
        return 0.02  # element membership is usually selective

    def index_cost(self, ia: ODCIIndexInfo, pred_info: ODCIPredInfo,
                   selectivity: float, args: Sequence[Any],
                   env: ODCIEnv) -> IndexCost:
        return IndexCost(io_cost=2.0, cpu_cost=selectivity * 10)


def install(db) -> None:
    """Register the collection cartridge."""
    if db.catalog.has_indextype("CollectionIndexType"):
        return
    db.create_function("CollContainsFunc", coll_contains,
                       cost=FUNCTIONAL_COST)
    db.register_methods("CollectionIndexMethods", CollectionIndexMethods)
    db.register_stats_type("CollectionStatsMethods", CollectionStatsMethods)
    db.execute("CREATE OPERATOR Coll_Contains "
               "BINDING (ANY, ANY) RETURN NUMBER USING CollContainsFunc")
    db.execute("CREATE OPERATOR Coll_Count ANCILLARY TO Coll_Contains")
    db.execute("CREATE INDEXTYPE CollectionIndexType "
               "FOR Coll_Contains(ANY, ANY) "
               "USING CollectionIndexMethods")
    db.execute("ASSOCIATE STATISTICS WITH INDEXTYPES CollectionIndexType "
               "USING CollectionStatsMethods")
