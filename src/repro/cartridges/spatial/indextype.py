"""SpatialIndexType (tile index) and RtreeIndexType (E7 ablation).

Two-phase Sdo_Relate evaluation (§3.2.2): "the operator first determines
the candidate set of tiles in the parks and roads which overlap, and
then applies an exact filter to these candidate rows".

The tile index stores, per indexed row, the quadtree cover of its
geometry in a heap table ``<index>_tiles(rid, grpcode, code, maxcode)``
with a native B-tree on ``grpcode`` — a cartridge building an ordinary
index on its own index table through server callbacks, exactly the
"callbacks exploit the performance ... of SQL processing" point of §2.5.

Scans are *Incremental Computation* with *return-state* contexts: exact
geometry tests happen lazily as the executor fetches, so a LIMITed query
never exact-tests the whole candidate set.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.cartridges.spatial.geometry import (
    GEOMETRY_TYPE_NAME, Relation, bounding_box, make_point, make_polygon,
    make_rect, mask_matches, parse_mask_param, relate)
from repro.cartridges.spatial.rtree import RTree, Rect
from repro.cartridges.spatial.tiling import TileRange, tessellate, WORLD_SIZE
from repro.core.odci import (
    FetchResult, IndexMethods, ODCIEnv, ODCIIndexInfo, ODCIPredInfo,
    ODCIQueryInfo)
from repro.core.scan_context import ScanContext
from repro.core.stats import IndexCost, StatsMethods
from repro.errors import ODCIError
from repro.types.objects import ObjectValue
from repro.types.values import is_null

#: Per-call optimizer cost of the functional Sdo_Relate (page units).
FUNCTIONAL_COST = 0.5


def sdo_relate_functional(geometry: Any, query_geometry: Any,
                          mask_param: Any) -> int:
    """Functional implementation of Sdo_Relate; returns 1 or 0."""
    if is_null(geometry) or is_null(query_geometry) or is_null(mask_param):
        return 0
    mask = parse_mask_param(str(mask_param))
    return 1 if mask_matches(relate(geometry, query_geometry), mask) else 0


def _tiles_table(ia: ODCIIndexInfo) -> str:
    return f"{ia.index_name.lower()}_tiles"


class _SpatialScan(ScanContext):
    """Incremental candidate stream with lazy exact filtering."""

    def __init__(self, env: ODCIEnv, ia: ODCIIndexInfo,
                 candidates: List[Any], query_geometry: ObjectValue,
                 mask: str):
        super().__init__()
        self._env = env
        self._ia = ia
        self._candidates = candidates
        self._query_geometry = query_geometry
        self._mask = mask
        self.exact_tests = 0

    def row_source(self) -> Iterator[Any]:
        column = self._ia.column_names[0]
        table = self._ia.table_name
        for rid in self._candidates:
            geometry = self._env.callback.fetch_value(table, rid, column)
            if is_null(geometry):
                continue
            self.exact_tests += 1
            self._env.stats.bump("spatial_exact_tests")
            if mask_matches(relate(geometry, self._query_geometry),
                            self._mask):
                yield rid


class SpatialIndexMethods(IndexMethods):
    """ODCIIndex routines of SpatialIndexType (tile index)."""

    # -- definition ---------------------------------------------------------

    def index_create(self, ia: ODCIIndexInfo, parameters: str,
                     env: ODCIEnv) -> None:
        tiles = _tiles_table(ia)
        env.callback.execute(
            f"CREATE TABLE {tiles} (rid ROWID, grpcode INTEGER,"
            " code INTEGER, maxcode INTEGER)")
        env.callback.execute(
            f"CREATE INDEX {tiles}_grp ON {tiles}(grpcode)")
        self._load(ia, env)

    def _load(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        """Tessellate every base-table geometry into the (empty) tiles
        table."""
        rows = env.callback.query(
            f"SELECT rowid, {ia.column_names[0]} FROM {ia.table_name}")
        self.index_insert_batch(ia, [(rid, [geometry])
                                     for rid, geometry in rows], env)

    def index_alter(self, ia: ODCIIndexInfo, parameters: str,
                    env: ODCIEnv) -> None:
        # the tile index takes no parameters; ALTER is a rebuild
        self.index_truncate(ia, env)
        self._load(ia, env)

    def index_drop(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        env.callback.execute(f"DROP TABLE {_tiles_table(ia)}")

    def index_truncate(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        env.callback.execute(f"TRUNCATE TABLE {_tiles_table(ia)}")

    # -- maintenance ------------------------------------------------------------

    def index_insert(self, ia: ODCIIndexInfo, rowid: Any,
                     new_values: Sequence[Any], env: ODCIEnv) -> None:
        self.index_insert_batch(ia, [(rowid, new_values)], env)

    def index_delete(self, ia: ODCIIndexInfo, rowid: Any,
                     old_values: Sequence[Any], env: ODCIEnv) -> None:
        self.index_delete_batch(ia, [(rowid, old_values)], env)

    # -- array maintenance --------------------------------------------------

    def index_insert_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Tessellate every new geometry, then insert all tiles at once."""
        tile_rows: List[List[Any]] = []
        for rowid, new_values in entries:
            geometry = new_values[0]
            if is_null(geometry):
                continue
            for tile in tessellate(geometry):
                tile_rows.append([rowid, tile.grpcode, tile.code,
                                  tile.maxcode])
        if tile_rows:
            env.callback.insert_rows(_tiles_table(ia), tile_rows)

    def index_delete_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Delete every row's tiles, located from its old geometry.

        A row's tiles lie in the group codes of its geometry's cover,
        so each ``(group, row)`` pair is one probe of the tiles table's
        own ``grpcode`` B-tree plus a filter on that group's tiles.
        """
        pairs: Dict[Any, None] = {}
        for rowid, old_values in entries:
            geometry = old_values[0]
            if not is_null(geometry):
                for tile in tessellate(geometry):
                    pairs[tile.grpcode, rowid] = None
        delete = (f"DELETE FROM {_tiles_table(ia)} "
                  "WHERE grpcode = :1 AND rid = :2")
        for pair in pairs:
            env.callback.execute(delete, pair)

    def index_update_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Delete the old covers, then insert the new ones."""
        self.index_delete_batch(
            ia, [(rowid, old) for rowid, old, __ in entries], env)
        self.index_insert_batch(
            ia, [(rowid, new) for rowid, __, new in entries], env)

    # -- scan --------------------------------------------------------------------

    def index_start(self, ia: ODCIIndexInfo, op_info: ODCIPredInfo,
                    query_info: ODCIQueryInfo, env: ODCIEnv) -> Any:
        """Open an Sdo_Relate() scan.

        The primary filter's tile lookups and the secondary filter's
        ``fetch_value`` reads both go through ``env.callback``, which
        is pinned to the invoking statement's MVCC snapshot: the tile
        table and base geometries this scan observes are the frozen
        ones, regardless of concurrent spatial DML.
        """
        if len(op_info.operator_args) < 2:
            raise ODCIError("ODCIIndexStart",
                            "Sdo_Relate needs (query geometry, mask)")
        query_geometry, mask_param = op_info.operator_args[:2]
        if is_null(query_geometry):
            return _SpatialScan(env, ia, [], None, "ANYINTERACT")
        mask = parse_mask_param(str(mask_param))
        candidates = self._primary_filter(ia, env, query_geometry)
        env.stats.bump("spatial_primary_candidates", len(candidates))
        return _SpatialScan(env, ia, candidates, query_geometry, mask)

    def _primary_filter(self, ia: ODCIIndexInfo, env: ODCIEnv,
                        query_geometry: ObjectValue) -> List[Any]:
        tiles = _tiles_table(ia)
        seen: Dict[Any, None] = {}
        for tile in tessellate(query_geometry):
            rows = env.callback.query(
                f"SELECT rid FROM {tiles} WHERE grpcode = :1 "
                "AND code <= :2 AND maxcode >= :3",
                [tile.grpcode, tile.maxcode, tile.code])
            for (rid,) in rows:
                seen[rid] = None
        return sorted(seen)

    def index_fetch(self, context: Any, nrows: int,
                    env: ODCIEnv) -> FetchResult:
        batch = context.next_batch(nrows)
        return FetchResult(rowids=list(batch), done=len(batch) < nrows)

    def index_close(self, context: Any, env: ODCIEnv) -> None:
        context.close()


class SpatialStatsMethods(StatsMethods):
    """ODCIStats routines for the spatial indextypes."""

    def selectivity(self, pred_info: ODCIPredInfo, args: Sequence[Any],
                    env: ODCIEnv) -> Optional[float]:
        """Area-fraction estimate: |query bbox| / |world|."""
        query_geometry = args[1] if len(args) >= 2 else None
        if not isinstance(query_geometry, ObjectValue):
            return None
        box = bounding_box(query_geometry)
        area = max(0.0, (box[2] - box[0])) * max(0.0, (box[3] - box[1]))
        world = WORLD_SIZE * WORLD_SIZE
        return min(1.0, max(0.001, area / world))

    def index_cost(self, ia: ODCIIndexInfo, pred_info: ODCIPredInfo,
                   selectivity: float, args: Sequence[Any],
                   env: ODCIEnv) -> Optional[IndexCost]:
        query_geometry = args[1] if len(args) >= 2 else None
        ranges = 4.0
        if isinstance(query_geometry, ObjectValue):
            try:
                ranges = float(len(tessellate(query_geometry)))
            except Exception:
                ranges = 4.0
        # each tile range costs one cheap B-tree probe on the tiles table;
        # the exact filter costs one relate() per candidate
        return IndexCost(io_cost=1.0 + 0.05 * ranges,
                         cpu_cost=selectivity * 100 * FUNCTIONAL_COST)


class RtreeIndexMethods(IndexMethods):
    """ODCIIndex routines of RtreeIndexType (E7 ablation).

    Same operator, same two-phase shape — but the primary filter is an
    R-tree bounding-box search instead of tile-range probes.  The tree
    lives on the methods instance (one per domain index); entries map
    bbox → rowid.
    """

    def __init__(self):
        self._tree = RTree(max_entries=8)
        self._rect_of: Dict[Any, Rect] = {}
        # the in-memory tree is shared by every session using the index;
        # R-tree split/condense is far from atomic, so all structure
        # access is latch-held (searches materialize their result list
        # before releasing)
        self._latch = threading.RLock()

    # -- definition ---------------------------------------------------------

    def index_create(self, ia: ODCIIndexInfo, parameters: str,
                     env: ODCIEnv) -> None:
        column = ia.column_names[0]
        rows = env.callback.query(
            f"SELECT rowid, {column} FROM {ia.table_name}")
        pairs: List[Any] = []
        rect_of: Dict[Any, Rect] = {}
        for rid, geometry in rows:
            if is_null(geometry):
                continue
            rect = Rect.from_box(bounding_box(geometry))
            pairs.append((rect, rid))
            rect_of[rid] = rect
        with self._latch:
            self._tree = RTree(max_entries=8)
            self._rect_of = rect_of
            if getattr(env, "bulk_build", True):
                # Sort-Tile-Recursive packing: one sorted pass per level
                # instead of a quadratic-split descent per geometry
                self._tree.bulk_load(pairs)
            else:
                for rect, rid in pairs:
                    self._tree.insert(rect, rid)

    def index_drop(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        with self._latch:
            self._tree = RTree(max_entries=8)
            self._rect_of = {}

    def index_truncate(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        self.index_drop(ia, env)

    # -- maintenance ------------------------------------------------------------

    def index_insert(self, ia: ODCIIndexInfo, rowid: Any,
                     new_values: Sequence[Any], env: ODCIEnv) -> None:
        geometry = new_values[0]
        if is_null(geometry):
            return
        rect = Rect.from_box(bounding_box(geometry))
        with self._latch:
            self._tree.insert(rect, rowid)
            self._rect_of[rowid] = rect

    def index_delete(self, ia: ODCIIndexInfo, rowid: Any,
                     old_values: Sequence[Any], env: ODCIEnv) -> None:
        with self._latch:
            rect = self._rect_of.pop(rowid, None)
            if rect is not None:
                self._tree.delete(rect, rowid)

    # -- array maintenance --------------------------------------------------

    def index_insert_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Compute every bbox outside the latch, insert under one hold."""
        prepared = []
        for rowid, new_values in entries:
            geometry = new_values[0]
            if is_null(geometry):
                continue
            prepared.append((rowid, Rect.from_box(bounding_box(geometry))))
        with self._latch:
            for rowid, rect in prepared:
                self._tree.insert(rect, rowid)
                self._rect_of[rowid] = rect

    def index_delete_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        with self._latch:
            for rowid, __ in entries:
                rect = self._rect_of.pop(rowid, None)
                if rect is not None:
                    self._tree.delete(rect, rowid)

    def index_update_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        with self._latch:
            for rowid, __, new_values in entries:
                rect = self._rect_of.pop(rowid, None)
                if rect is not None:
                    self._tree.delete(rect, rowid)
                geometry = new_values[0]
                if is_null(geometry):
                    continue
                new_rect = Rect.from_box(bounding_box(geometry))
                self._tree.insert(new_rect, rowid)
                self._rect_of[rowid] = new_rect

    # -- scan --------------------------------------------------------------------

    def index_start(self, ia: ODCIIndexInfo, op_info: ODCIPredInfo,
                    query_info: ODCIQueryInfo, env: ODCIEnv) -> Any:
        if len(op_info.operator_args) < 2:
            raise ODCIError("ODCIIndexStart",
                            "Sdo_Relate needs (query geometry, mask)")
        query_geometry, mask_param = op_info.operator_args[:2]
        if is_null(query_geometry):
            return _SpatialScan(env, ia, [], None, "ANYINTERACT")
        mask = parse_mask_param(str(mask_param))
        rect = Rect.from_box(bounding_box(query_geometry))
        with self._latch:
            candidates = sorted(self._tree.search(rect))
        env.stats.bump("spatial_primary_candidates", len(candidates))
        return _SpatialScan(env, ia, candidates, query_geometry, mask)

    def index_fetch(self, context: Any, nrows: int,
                    env: ODCIEnv) -> FetchResult:
        batch = context.next_batch(nrows)
        return FetchResult(rowids=list(batch), done=len(batch) < nrows)

    def index_close(self, context: Any, env: ODCIEnv) -> None:
        context.close()


def _install_common(db) -> None:
    """Shared type / function / operator registration."""
    if not db.catalog.has_object_type(GEOMETRY_TYPE_NAME):
        from repro.types.datatypes import INTEGER, ANY
        geometry_type = db.create_object_type(
            GEOMETRY_TYPE_NAME, [("gtype", INTEGER), ("coords", ANY)])
        db.create_function(
            "sdo_point", lambda x, y: make_point(geometry_type, x, y),
            cost=0.0001)
        db.create_function(
            "sdo_rect",
            lambda a, b, c, d: make_rect(geometry_type, a, b, c, d),
            cost=0.0001)
        db.create_function(
            "sdo_polygon",
            lambda *coords: make_polygon(geometry_type, coords),
            cost=0.0001)
    if not db.catalog.has_operator("Sdo_Relate"):
        db.create_function("SdoRelateFunc", sdo_relate_functional,
                           cost=FUNCTIONAL_COST)
        db.execute("CREATE OPERATOR Sdo_Relate "
                   "BINDING (SDO_GEOMETRY, SDO_GEOMETRY, VARCHAR2) "
                   "RETURN NUMBER USING SdoRelateFunc")
    if "spatialstatsmethods" not in db.catalog.stats_types:
        db.register_stats_type("SpatialStatsMethods", SpatialStatsMethods)


def install(db) -> None:
    """Register the spatial cartridge with the tile indextype."""
    if db.catalog.has_indextype("SpatialIndexType"):
        return
    _install_common(db)
    db.register_methods("SpatialIndexMethods", SpatialIndexMethods)
    db.execute("CREATE INDEXTYPE SpatialIndexType "
               "FOR Sdo_Relate(SDO_GEOMETRY, SDO_GEOMETRY, VARCHAR2) "
               "USING SpatialIndexMethods")
    db.execute("ASSOCIATE STATISTICS WITH INDEXTYPES SpatialIndexType "
               "USING SpatialStatsMethods")


def install_rtree(db) -> None:
    """Register RtreeIndexType — same operator, different algorithm (E7)."""
    if db.catalog.has_indextype("RtreeIndexType"):
        return
    _install_common(db)
    db.register_methods("RtreeIndexMethods", RtreeIndexMethods)
    db.execute("CREATE INDEXTYPE RtreeIndexType "
               "FOR Sdo_Relate(SDO_GEOMETRY, SDO_GEOMETRY, VARCHAR2) "
               "USING RtreeIndexMethods")
    db.execute("ASSOCIATE STATISTICS WITH INDEXTYPES RtreeIndexType "
               "USING SpatialStatsMethods")
