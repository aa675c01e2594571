"""Spatial cartridge through the SQL engine (§3.2.2)."""

import random

import pytest

from repro.bench.workloads import make_rect_layer
from repro.cartridges.spatial import (
    LegacySpatialLayer, install_rtree, make_rect)
from repro.cartridges.spatial.indextype import sdo_relate_functional


@pytest.fixture
def layers_db(spatial_db):
    db = spatial_db
    db.execute("CREATE TABLE roads (gid INTEGER, geometry SDO_GEOMETRY)")
    db.execute("CREATE TABLE parks (gid INTEGER, geometry SDO_GEOMETRY)")
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    roads = make_rect_layer(gt, 40, seed=2, min_size=10, max_size=180,
                            start_gid=1)
    parks = make_rect_layer(gt, 40, seed=3, min_size=20, max_size=120,
                            start_gid=100)
    db.insert_rows("roads", [[g, geom] for g, geom in roads])
    db.insert_rows("parks", [[g, geom] for g, geom in parks])
    db.execute("CREATE INDEX roads_sidx ON roads(geometry)"
               " INDEXTYPE IS SpatialIndexType")
    db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
               " INDEXTYPE IS SpatialIndexType")
    db.roads_data = roads
    db.parks_data = parks
    return db


def brute_pairs(roads, parks, mask):
    return sorted((r, p) for r, rg in roads for p, pg in parks
                  if sdo_relate_functional(pg, rg, f"mask={mask}"))


class TestWindowQueries:
    def test_index_matches_functional(self, layers_db):
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        window = make_rect(gt, 300, 300, 700, 700)
        indexed = layers_db.query(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window])
        expected = sorted(g for g, geom in layers_db.parks_data
                          if sdo_relate_functional(geom, window,
                                                   "mask=ANYINTERACT"))
        assert sorted(r[0] for r in indexed) == expected

    def test_plan_uses_domain_index(self, layers_db):
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        window = make_rect(gt, 400, 400, 500, 500)
        plan = layers_db.explain(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window])
        assert any("DOMAIN INDEX SCAN parks_sidx" in line for line in plan)

    def test_inside_mask(self, layers_db):
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        window = make_rect(gt, 0, 0, 1023, 1023)
        rows = layers_db.query(
            "SELECT COUNT(*) FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=INSIDE')", [window])
        assert rows[0][0] == len(layers_db.parks_data)

    def test_primary_filter_counts_recorded(self, layers_db):
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        window = make_rect(gt, 100, 100, 200, 200)
        layers_db.stats.extra.clear()
        layers_db.query(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window])
        assert "spatial_primary_candidates" in layers_db.stats.extra


class TestSpatialJoin:
    def test_join_uses_domain_nl_probe(self, layers_db):
        plan = layers_db.explain(
            "SELECT r.gid, p.gid FROM roads r, parks p WHERE "
            "Sdo_Relate(p.geometry, r.geometry, 'mask=OVERLAPS')")
        assert any("DOMAIN NL JOIN" in line for line in plan)

    def test_join_matches_brute_force(self, layers_db):
        rows = layers_db.query(
            "SELECT r.gid, p.gid FROM roads r, parks p WHERE "
            "Sdo_Relate(p.geometry, r.geometry, 'mask=OVERLAPS')")
        expected = brute_pairs(layers_db.roads_data, layers_db.parks_data,
                               "OVERLAPS")
        assert sorted(rows) == expected


class TestMaintenance:
    def test_insert_then_found(self, layers_db):
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        new_geom = make_rect(gt, 10, 10, 20, 20)
        layers_db.execute("INSERT INTO parks VALUES (:1, :2)",
                          [999, new_geom])
        window = make_rect(gt, 5, 5, 25, 25)
        rows = layers_db.query(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=INSIDE')", [window])
        assert 999 in [r[0] for r in rows]

    def test_delete_then_gone(self, layers_db):
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        victim = layers_db.parks_data[0][0]
        layers_db.execute("DELETE FROM parks WHERE gid = :1", [victim])
        window = make_rect(gt, 0, 0, 1023, 1023)
        rows = layers_db.query(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window])
        assert victim not in [r[0] for r in rows]

    def test_rollback_restores_tiles(self, layers_db):
        tiles_before = layers_db.query(
            "SELECT COUNT(*) FROM parks_sidx_tiles")
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        layers_db.begin()
        layers_db.execute("INSERT INTO parks VALUES (:1, :2)",
                          [888, make_rect(gt, 30, 30, 60, 60)])
        layers_db.rollback()
        assert layers_db.query(
            "SELECT COUNT(*) FROM parks_sidx_tiles") == tiles_before


    def test_alter_rebuild_leaves_a_fresh_builds_tiles(self, spatial_db):
        """ALTER INDEX on the tile index is a rebuild: whatever drift the
        tiles table had, afterwards it holds what CREATE INDEX would put
        there — and it empties the table with TRUNCATE, not with one
        versioned DELETE per tile."""
        db = spatial_db
        db.execute("CREATE TABLE geo (gid INTEGER, geometry SDO_GEOMETRY)")
        gt = db.catalog.get_object_type("SDO_GEOMETRY")
        layer = make_rect_layer(gt, 500, seed=21, min_size=5, max_size=120)
        db.insert_rows("geo", [[g, geom] for g, geom in layer])
        db.execute("CREATE INDEX geo_sidx ON geo(geometry)"
                   " INDEXTYPE IS SpatialIndexType")

        def tiles():
            return sorted(
                (rid.sort_key, grp, code, maxcode)
                for rid, grp, code, maxcode in db.execute(
                    "SELECT rid, grpcode, code, maxcode"
                    " FROM geo_sidx_tiles").fetchall())
        fresh = tiles()
        assert len(fresh) > 500
        # drift the index data behind the cartridge's back, then rebuild
        db.execute("DELETE FROM geo_sidx_tiles WHERE grpcode = 3")
        db.execute("UPDATE geo_sidx_tiles SET maxcode = code"
                   " WHERE grpcode = 5")
        assert tiles() != fresh
        created = db.engine.mvcc.stats.versions_created
        db.execute("ALTER INDEX geo_sidx PARAMETERS ('')")
        assert tiles() == fresh
        # the old tiles went in one truncate: no tombstone per tile row
        assert db.engine.mvcc.stats.versions_created - created < 10

    def test_truncate_table_truncates_tiles(self, layers_db):
        layers_db.execute("TRUNCATE TABLE parks")
        assert layers_db.execute(
            "SELECT COUNT(*) FROM parks_sidx_tiles").fetchall() == [(0,)]
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        layers_db.execute("INSERT INTO parks VALUES (:1, :2)",
                          [1, make_rect(gt, 10, 10, 20, 20)])
        assert layers_db.execute(
            "SELECT gid FROM parks WHERE Sdo_Relate(geometry, :1,"
            " 'mask=ANYINTERACT')", [make_rect(gt, 0, 0, 50, 50)]
        ).fetchall() == [(1,)]

    def test_maintenance_never_scans_the_tiles_table(self, layers_db):
        """Update and delete reach a row's tiles through the grpcode
        B-tree: no statement against the tiles table is a full scan."""
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        layers_db.enable_tracing()
        victim, other = (g for g, __ in layers_db.parks_data[:2])
        layers_db.execute("UPDATE parks SET geometry = :1 WHERE gid = :2",
                          [make_rect(gt, 500, 500, 530, 540), victim])
        layers_db.execute("DELETE FROM parks WHERE gid = :1", [other])
        chosen = [line for line in layers_db.trace_log
                  if line.startswith("optimizer:candidate*")
                  and "parks_sidx_tiles" in line]
        assert chosen
        assert all("INDEX RANGE SCAN parks_sidx_tiles_grp" in line
                   for line in chosen)


class TestLegacyFormulation:
    def test_legacy_equals_integrated(self, layers_db):
        road_layer = LegacySpatialLayer(layers_db, "roads", "gid", "geometry")
        park_layer = LegacySpatialLayer(layers_db, "parks", "gid", "geometry")
        road_layer.build()
        park_layer.build()
        legacy = LegacySpatialLayer.overlap_query(road_layer, park_layer)
        expected = brute_pairs(layers_db.roads_data, layers_db.parks_data,
                               "OVERLAPS")
        assert sorted(legacy) == expected

    def test_legacy_sql_has_paper_shape(self, layers_db):
        road_layer = LegacySpatialLayer(layers_db, "roads", "gid", "geometry")
        park_layer = LegacySpatialLayer(layers_db, "parks", "gid", "geometry")
        sql = LegacySpatialLayer.overlap_query_sql(road_layer, park_layer)
        assert "BETWEEN p.sdo_code AND p.sdo_maxcode" in sql
        assert "sdo_geom.Relate(r.gid, p.gid, 'OVERLAPS') = 'TRUE'" in sql
        assert "r.grpcode = p.grpcode" in sql

    def test_legacy_index_needs_explicit_sync(self, layers_db):
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        park_layer = LegacySpatialLayer(layers_db, "parks", "gid", "geometry")
        park_layer.build()
        count_before = layers_db.query(
            "SELECT COUNT(*) FROM parks_sdoindex")[0][0]
        layers_db.execute("INSERT INTO parks VALUES (:1, :2)",
                          [777, make_rect(gt, 500, 500, 520, 520)])
        assert layers_db.query(
            "SELECT COUNT(*) FROM parks_sdoindex")[0][0] == count_before
        park_layer.sync()
        assert layers_db.query(
            "SELECT COUNT(*) FROM parks_sdoindex")[0][0] > count_before


class TestRtreeAblation:
    def test_same_answers_through_other_indextype(self, layers_db):
        install_rtree(layers_db)
        layers_db.execute(
            "CREATE TABLE parks_rt (gid INTEGER, geometry SDO_GEOMETRY)")
        layers_db.insert_rows("parks_rt",
                              [[g, geom] for g, geom in layers_db.parks_data])
        layers_db.execute("CREATE INDEX parks_rt_idx ON parks_rt(geometry)"
                          " INDEXTYPE IS RtreeIndexType")
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        window = make_rect(gt, 200, 200, 600, 600)
        tile_rows = layers_db.query(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window])
        rtree_rows = layers_db.query(
            "SELECT gid FROM parks_rt WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window])
        assert sorted(tile_rows) == sorted(rtree_rows)

    def test_rtree_maintenance(self, layers_db):
        install_rtree(layers_db)
        layers_db.execute(
            "CREATE TABLE zone (gid INTEGER, geometry SDO_GEOMETRY)")
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        layers_db.execute("CREATE INDEX zone_idx ON zone(geometry)"
                          " INDEXTYPE IS RtreeIndexType")
        layers_db.execute("INSERT INTO zone VALUES (1, :1)",
                          [make_rect(gt, 0, 0, 10, 10)])
        layers_db.execute("INSERT INTO zone VALUES (2, :1)",
                          [make_rect(gt, 100, 100, 120, 120)])
        layers_db.execute("DELETE FROM zone WHERE gid = 1")
        window = make_rect(gt, 0, 0, 200, 200)
        rows = layers_db.query(
            "SELECT gid FROM zone WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window])
        assert [r[0] for r in rows] == [2]
