"""VirIndexType: three-phase evaluation of VIRSimilar.

§3.2.3: "the VIRSimilar operator is evaluated in three phases — the
first phase is a filter that does a range query on the index data table,
the second phase is another filter that is a computation of the distance
measure, and the third phase does the actual image signature comparison.
... the first two passes of filtering are very selective and greatly
reduce the data set on which the image signature comparisons need to be
performed."

Index storage: the declared heap table ``<index>_coarse(rid, c1..c4)``
holding the coarse vector per image, with a native B-tree on ``c1`` so
the phase-1 range query is itself index-driven ("optimization of the
range query on the index data table using indexes").  The framework
creates, fills, truncates and drops it.  Per-phase candidate counts are
recorded in the shared statistics (``vir_phase1/2/3``) — they are the
series the E3 benchmark prints.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.cartridges.vir.signature import (
    COARSE_DIMS, Weights, coarse_distance, coarse_vector, component_bound,
    parse_weights, signature_distance)
from repro.core.odci import (
    IndexMethods, IndexTable, ODCIEnv, ODCIIndexInfo, ODCIPredInfo,
    ODCIQueryInfo)
from repro.core.scan_context import PrecomputedScan
from repro.core.stats import IndexCost, StatsMethods
from repro.errors import ODCIError
from repro.types.objects import ObjectValue
from repro.types.values import is_null

#: Name of the image object type registered by install().
IMAGE_TYPE_NAME = "IMAGE_T"
#: Per-call optimizer cost of the functional VIRSimilar (page units).
FUNCTIONAL_COST = 0.4


def _signature_of(value: Any) -> Optional[Sequence[float]]:
    """Accept a raw signature tuple or an image object with one."""
    if is_null(value):
        return None
    if isinstance(value, ObjectValue):
        value = value.get("signature")
        if is_null(value):
            return None
    return tuple(value)


def vir_similar_functional(signature: Any, query_signature: Any,
                           weights_param: Any, threshold: Any) -> int:
    """Functional implementation: full signature comparison per row."""
    sig = _signature_of(signature)
    query = _signature_of(query_signature)
    if sig is None or query is None or is_null(threshold):
        return 0
    weights = parse_weights(str(weights_param) if not is_null(weights_param)
                            else "")
    return 1 if signature_distance(sig, query, weights) <= threshold else 0


#: The coarse vector of each image, with a B-tree on ``c1``.
_COARSE = IndexTable(
    "coarse", "rid ROWID, " + ", ".join(
        f"c{i + 1} NUMBER" for i in range(COARSE_DIMS)),
    indexes=("c1",))


class VirIndexMethods(IndexMethods):
    """ODCIIndex routines of VirIndexType.

    Deliberately stateless: every routine works purely through the
    session-scoped :class:`~repro.core.odci.ODCIEnv` it is handed (its
    callback SQL, workspace, stats), and all index data lives in the
    feature table.  One methods instance therefore serves concurrent
    sessions without any latch of its own — the table locks taken by
    its callback SQL are the whole concurrency story, which is exactly
    the §2.5 "index data in database objects" argument.
    """

    index_tables = (_COARSE,)

    # -- array maintenance --------------------------------------------------

    def index_insert_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Extract every coarse vector, then insert all rows in one call."""
        coarse_rows: List[List[Any]] = []
        for rowid, new_values in entries:
            sig = _signature_of(new_values[0])
            if sig is None:
                continue
            coarse_rows.append([rowid] + list(coarse_vector(sig)))
        if coarse_rows:
            env.callback.insert_rows(_COARSE.name(ia), coarse_rows)

    def index_delete_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Delete each row's coarse row by key, located from its old
        signature: the old coarse vector's ``c1`` probes the ``c1``
        B-tree, and ``rid`` picks the row among those sharing it."""
        delete = (f"DELETE FROM {_COARSE.name(ia)}"
                  " WHERE c1 = :1 AND rid = :2")
        for rowid, old_values in entries:
            sig = _signature_of(old_values[0])
            if sig is not None:
                env.callback.execute(delete, [coarse_vector(sig)[0], rowid])

    # -- scan: the three phases ---------------------------------------------------

    def index_start(self, ia: ODCIIndexInfo, op_info: ODCIPredInfo,
                    query_info: ODCIQueryInfo, env: ODCIEnv) -> Any:
        if len(op_info.operator_args) < 3:
            raise ODCIError(
                "ODCIIndexStart",
                "VIRSimilar needs (query signature, weights, threshold)")
        query_sig = _signature_of(op_info.operator_args[0])
        weights = parse_weights(str(op_info.operator_args[1]))
        threshold = float(op_info.operator_args[2])
        if query_sig is None:
            return PrecomputedScan([])
        query_coarse = coarse_vector(query_sig)

        phase1 = self._phase1_range_filter(ia, env, query_coarse, weights,
                                           threshold)
        env.stats.bump("vir_phase1_candidates", len(phase1))

        phase2: List[Any] = []
        for rid, coarse in phase1:
            if coarse_distance(coarse, query_coarse, weights) <= threshold:
                phase2.append(rid)
        env.stats.bump("vir_phase2_candidates", len(phase2))

        column = ia.column_names[0]
        matches: List[Any] = []
        for rid in sorted(phase2):
            value = env.callback.fetch_value(ia.table_name, rid, column)
            sig = _signature_of(value)
            if sig is None:
                continue
            env.stats.bump("vir_phase3_comparisons")
            distance = signature_distance(sig, query_sig, weights)
            if distance <= threshold:
                score = distance
                matches.append((rid, score))
        if query_info.ancillary_label is not None:
            results: List[Any] = matches
        else:
            results = [rid for rid, __ in matches]
        return env.workspace.allocate(PrecomputedScan(
            results, query_info.ancillary_label is not None))

    def _phase1_range_filter(self, ia: ODCIIndexInfo, env: ODCIEnv,
                             query_coarse: Sequence[float], weights: Weights,
                             threshold: float) -> List[Any]:
        """Range query on the coarse table, driven by the c1 B-tree when
        globalcolor participates, falling back to a scan otherwise."""
        coarse = _COARSE.name(ia)
        cols = ", ".join(f"c{i + 1}" for i in range(COARSE_DIMS))
        conditions: List[str] = []
        binds: List[Any] = []
        bind_no = 1
        for i, weight in enumerate(weights.as_tuple()):
            if weight <= 0:
                continue
            radius = component_bound(threshold, weights, i)
            lo, hi = query_coarse[i] - radius, query_coarse[i] + radius
            conditions.append(
                f"c{i + 1} >= :{bind_no} AND c{i + 1} <= :{bind_no + 1}")
            binds.extend([lo, hi])
            bind_no += 2
        where = " AND ".join(conditions) if conditions else "1 = 1"
        rows = env.callback.query(
            f"SELECT rid, {cols} FROM {coarse} WHERE {where}", binds)
        return [(row[0], tuple(row[1:])) for row in rows]


class VirStatsMethods(StatsMethods):
    """ODCIStats routines for VirIndexType."""

    def selectivity(self, pred_info: ODCIPredInfo, args: Sequence[Any],
                    env: ODCIEnv) -> Optional[float]:
        """Threshold-proportional estimate: tighter thresholds match less."""
        threshold = args[3] if len(args) >= 4 else None
        if not isinstance(threshold, (int, float)):
            return None
        return min(1.0, max(0.0005, (float(threshold) / 100.0) ** 2))

    def index_cost(self, ia: ODCIIndexInfo, pred_info: ODCIPredInfo,
                   selectivity: float, args: Sequence[Any],
                   env: ODCIEnv) -> Optional[IndexCost]:
        return IndexCost(io_cost=2.0,
                         cpu_cost=selectivity * 200 * FUNCTIONAL_COST)


def install(db) -> None:
    """Register the VIR cartridge: IMAGE_T, VIRSimilar, VirIndexType."""
    if db.catalog.has_indextype("VirIndexType"):
        return
    if not db.catalog.has_object_type(IMAGE_TYPE_NAME):
        from repro.types.datatypes import ANY, INTEGER
        db.create_object_type(IMAGE_TYPE_NAME, [
            ("signature", ANY), ("width", INTEGER), ("height", INTEGER)])
    db.create_function("VIRSimilarFunc", vir_similar_functional,
                       cost=FUNCTIONAL_COST)
    db.register_methods("VirIndexMethods", VirIndexMethods)
    db.register_stats_type("VirStatsMethods", VirStatsMethods)
    db.execute("CREATE OPERATOR VIRSimilar "
               "BINDING (ANY, ANY, VARCHAR2, NUMBER) RETURN NUMBER "
               "USING VIRSimilarFunc")
    db.execute("CREATE INDEXTYPE VirIndexType "
               "FOR VIRSimilar(ANY, ANY, VARCHAR2, NUMBER) "
               "USING VirIndexMethods")
    db.execute("ASSOCIATE STATISTICS WITH INDEXTYPES VirIndexType "
               "USING VirStatsMethods")
