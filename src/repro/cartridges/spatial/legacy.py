"""Pre-Oracle8i spatial querying: the explicit index-table join.

Section 3.2.2 shows the query an end user had to write before extensible
indexing::

    SELECT DISTINCT r.gid, p.gid
    FROM roads_sdoindex r, parks_sdoindex p
    WHERE (r.grpcode = p.grpcode)
      AND (r.sdo_code BETWEEN p.sdo_code AND p.sdo_maxcode
           OR p.sdo_code BETWEEN r.sdo_code AND r.sdo_maxcode)
      AND (sdo_geom.Relate(r.gid, p.gid, 'OVERLAPS') = 'TRUE');

with the drawbacks the paper lists: the querying algorithm is exposed,
index maintenance is the application's job ("the user had to explicitly
invoke PL/SQL package routines ... to maintain the spatial index
following a DML operation"), and the storage schema is public.

:class:`LegacySpatialLayer` reproduces that experience: it builds and
maintains a ``<table>_sdoindex`` table explicitly, registers the
``sdo_geom.relate`` exact-test function, and emits the paper's SQL
verbatim via :meth:`LegacySpatialLayer.overlap_query_sql`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.cartridges.spatial.geometry import (
    mask_matches, relate)
from repro.cartridges.spatial.tiling import tessellate
from repro.errors import ExecutionError
from repro.types.values import is_null

#: Attribute attached to the session holding gid -> geometry.
_REGISTRY_ATTR = "legacy_spatial_geometries"


def install_legacy(db) -> None:
    """Register the ``sdo_geom.relate`` function and the gid registry."""
    if hasattr(db, _REGISTRY_ATTR):
        return
    registry: Dict[int, Any] = {}
    setattr(db, _REGISTRY_ATTR, registry)

    def sdo_geom_relate(gid_a: Any, gid_b: Any, mask: Any) -> str:
        if is_null(gid_a) or is_null(gid_b):
            return "FALSE"
        geom_a = registry.get(gid_a)
        geom_b = registry.get(gid_b)
        if geom_a is None or geom_b is None:
            raise ExecutionError(
                f"sdo_geom.relate: unknown gid {gid_a!r} or {gid_b!r}")
        return "TRUE" if mask_matches(relate(geom_a, geom_b), str(mask)) \
            else "FALSE"

    db.create_function("sdo_geom.relate", sdo_geom_relate, cost=0.5)


class LegacySpatialLayer:
    """One spatial layer with an application-managed ``_sdoindex`` table."""

    def __init__(self, db, table: str, gid_column: str,
                 geometry_column: str):
        install_legacy(db)
        self.db = db
        self.table = table
        self.gid_column = gid_column
        self.geometry_column = geometry_column
        self.index_table = f"{table.lower()}_sdoindex"
        self._registry: Dict[int, Any] = getattr(db, _REGISTRY_ATTR)
        self._created = False

    # -- explicit index management -----------------------------------------

    def build(self) -> None:
        """Create and populate the ``_sdoindex`` table."""
        self.db.execute(
            f"CREATE TABLE {self.index_table} (gid INTEGER,"
            " grpcode INTEGER, sdo_code INTEGER, sdo_maxcode INTEGER)")
        self.db.execute(
            f"CREATE INDEX {self.index_table}_grp "
            f"ON {self.index_table}(grpcode)")
        self._created = True
        self.sync()

    def drop(self) -> None:
        """Drop the index table and forget this layer's geometries."""
        self.db.execute(f"DROP TABLE {self.index_table}")
        self._created = False

    def sync(self) -> None:
        """Rebuild the index table from the base table (explicit, pre-8i)."""
        if not self._created:
            raise ExecutionError(f"layer {self.table}: call build() first")
        self.db.execute(f"DELETE FROM {self.index_table}")
        rows = self.db.execute(
            f"SELECT {self.gid_column}, {self.geometry_column} "
            f"FROM {self.table}")
        tile_rows: List[List[Any]] = []
        for gid, geometry in rows:
            if is_null(geometry):
                continue
            self._registry[gid] = geometry
            for tile in tessellate(geometry):
                tile_rows.append([gid, tile.grpcode, tile.code, tile.maxcode])
        if tile_rows:
            self.db.insert_rows(self.index_table, tile_rows)

    # -- the paper's query -------------------------------------------------------

    @staticmethod
    def overlap_query_sql(layer_r: "LegacySpatialLayer",
                          layer_p: "LegacySpatialLayer",
                          mask: str = "OVERLAPS") -> str:
        """The §3.2.2 pre-8i query text, verbatim in shape."""
        return (
            f"SELECT DISTINCT r.gid, p.gid "
            f"FROM {layer_r.index_table} r, {layer_p.index_table} p "
            f"WHERE (r.grpcode = p.grpcode) "
            f"AND (r.sdo_code BETWEEN p.sdo_code AND p.sdo_maxcode "
            f"OR p.sdo_code BETWEEN r.sdo_code AND r.sdo_maxcode) "
            f"AND (sdo_geom.Relate(r.gid, p.gid, '{mask}') = 'TRUE')")

    @staticmethod
    def overlap_query(layer_r: "LegacySpatialLayer",
                      layer_p: "LegacySpatialLayer",
                      mask: str = "OVERLAPS") -> List[Tuple[Any, Any]]:
        """Run the legacy two-layer query and return (gid_r, gid_p) pairs."""
        sql = LegacySpatialLayer.overlap_query_sql(layer_r, layer_p, mask)
        return layer_r.db.execute(sql).fetchall()
