"""SpatialIndexType (tile index) and RtreeIndexType (E7 ablation).

Two-phase Sdo_Relate evaluation (§3.2.2): "the operator first determines
the candidate set of tiles in the parks and roads which overlap, and
then applies an exact filter to these candidate rows".

The tile index stores, per indexed row, the quadtree cover of its
geometry in an index-organized table
``<index>_tiles(grpcode, code, rid, maxcode)`` keyed on
``(grpcode, code, rid)`` — the text cartridge's storage model, and the
"callbacks exploit the performance ... of SQL processing" point of §2.5:

* a build tessellates every geometry, sorts the tiles into key order and
  direct-loads them in one call;
* a delete derives the row's keys from its old geometry's cover and
  deletes exactly those (``delete_rows``), so it costs the row's tiles,
  whatever the size of the table or of the row's group codes; an update
  deletes the old keys and inserts the new ones;
* the primary filter runs one prefix scan per group code of the query
  geometry's cover, bounded by that group's lowest ``code`` and highest
  ``maxcode``, and keeps a stored tile only if its range meets one of
  the group's query tiles.

Scans are *Incremental Computation* with *return-state* contexts: exact
geometry tests happen lazily as the executor fetches, so a LIMITed query
never exact-tests the whole candidate set.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import add, attrgetter
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple)

from repro.cartridges.spatial.geometry import (
    GEOMETRY_TYPE_NAME, bounding_box, make_point, make_polygon,
    make_rect, mask_matches, parse_mask_param, relate)
from repro.cartridges.spatial.rtree import RTree, Rect
from repro.cartridges.spatial.tiling import TileRange, tessellate, WORLD_SIZE
from repro.core.odci import (
    IndexMethods, IndexTable, ODCIEnv, ODCIIndexInfo, ODCIPredInfo,
    ODCIQueryInfo, base_table_rows)
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


#: The quadtree cover of each row's geometry, one tile per entry.
_TILES = IndexTable(
    "tiles", "grpcode INTEGER, code INTEGER, rid ROWID, maxcode INTEGER,"
    " PRIMARY KEY (grpcode, code, rid)", organization_index=True)


_tile_code = attrgetter("code")


def _tile_columns(pairs: Iterable[Tuple[Any, Any]]
                  ) -> Tuple[List[Tuple[Any, ...]], List[Tuple[int]]]:
    """The tiles of each non-null ``(rid, geometry)``, in input order, as
    two aligned columns: keys ``(grpcode, code, rid)`` and payloads
    ``(maxcode,)``.  A cover never holds a tile twice, so one row's
    keys are distinct."""
    keys: List[Tuple[Any, ...]] = []
    payloads: List[Tuple[int]] = []
    for rid, geometry in pairs:
        if is_null(geometry):
            continue
        for grpcode, code, maxcode in tessellate(geometry):
            keys.append((grpcode, code, rid))
            payloads.append((maxcode,))
    return keys, payloads


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

    index_tables = (_TILES,)

    # -- definition ---------------------------------------------------------

    def index_load(self, ia: ODCIIndexInfo, rows: List[Any],
                   env: ODCIEnv) -> None:
        """Tessellate every base-table geometry into the (empty) tiles
        table: the tiles' keys sorted (rowids compare as tuples, in C),
        the payloads put in the same order, then one presorted
        direct-path load of the two columns."""
        keys, payloads = _tile_columns(rows)
        if keys:
            order = sorted(range(len(keys)), key=keys.__getitem__)
            env.callback.direct_load(
                _TILES.name(ia), list(map(keys.__getitem__, order)),
                list(map(payloads.__getitem__, order)), presorted=True)

    def index_alter(self, ia: ODCIIndexInfo, parameters: str,
                    env: ODCIEnv) -> None:
        # the tile index takes no parameters; ALTER is a rebuild
        self.index_truncate(ia, env)
        self.index_load(ia, base_table_rows(ia, env), env)

    # -- array maintenance --------------------------------------------------

    def index_insert_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Tessellate every new geometry, then insert all tiles at once."""
        keys, payloads = _tile_columns((rowid, new_values[0])
                                       for rowid, new_values in entries)
        if keys:
            env.callback.insert_rows(_TILES.name(ia),
                                     list(map(add, keys, payloads)))

    def index_delete_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Delete every row's tiles by key, located from its old geometry:
        the old cover gives each tile's ``(grpcode, code)``, the row its
        ``rid`` — one keyed delete call for the batch."""
        keys, __ = _tile_columns(
            (rowid, old_values[0]) for rowid, old_values in entries)
        if keys:
            env.callback.delete_rows(_TILES.name(ia), keys)

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
        """The rows with a stored tile whose range meets a tile of the
        query geometry's cover: one prefix scan per group code."""
        groups: Dict[int, List[TileRange]] = {}
        for tile in tessellate(query_geometry):
            groups.setdefault(tile.grpcode, []).append(tile)
        select = (f"SELECT rid, code, maxcode FROM {_TILES.name(ia)}"
                  " WHERE grpcode = :1 AND code <= :2 AND maxcode >= :3")
        seen: Dict[Any, None] = {}
        for grpcode, group in groups.items():
            # a cover's tiles are disjoint: in code order their maxcodes
            # increase too
            group.sort(key=_tile_code)
            codes = [tile.code for tile in group]
            maxcodes = [tile.maxcode for tile in group]
            # the SQL admits the rows meeting the group's whole span (with
            # one query tile, exactly the right ones); of the query tiles
            # ending at or after a row's ``code``, the first starts lowest
            for rid, code, maxcode in env.callback.query(
                    select, [grpcode, maxcodes[-1], codes[0]]):
                if codes[bisect_left(maxcodes, code)] <= maxcode:
                    seen[rid] = None
        return sorted(seen)


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
        # the query cover's tile ranges bound the prefix scans of the
        # tiles table (one per group code); the exact filter costs one
        # relate() per candidate
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

    def index_load(self, ia: ODCIIndexInfo, rows: List[Any],
                   env: ODCIEnv) -> None:
        """Sort-Tile-Recursive packing of every row's bounding box: one
        sorted pass per level instead of a quadratic-split descent per
        geometry."""
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
            self._tree.bulk_load(pairs)

    def index_drop(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        with self._latch:
            self._tree = RTree(max_entries=8)
            self._rect_of = {}

    def index_truncate(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        self.index_drop(ia, env)

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
