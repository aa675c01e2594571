"""Spatial cartridge through the SQL engine (§3.2.2)."""

import random

import pytest

from repro.bench.workloads import make_rect_layer
from repro.cartridges.spatial import (
    LegacySpatialLayer, install_rtree, make_rect)
from repro.cartridges.spatial.indextype import sdo_relate_functional
from repro.cartridges.spatial.tiling import ranges_interact, tessellate


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


def _on_both(db, sql, params=None):
    """Run one statement on ``zone`` and on its index-free copy."""
    for table in ("zone", "zone_plain"):
        db.execute(sql.format(table=table), params)


def brute_pairs(roads, parks, mask):
    return sorted((r, p) for r, rg in roads for p, pg in parks
                  if sdo_relate_functional(pg, rg, f"mask={mask}"))


class TestWindowQueries:
    def test_index_matches_functional(self, layers_db):
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        window = make_rect(gt, 300, 300, 700, 700)
        indexed = layers_db.execute(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window]
        ).fetchall()
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
        rows = layers_db.execute(
            "SELECT COUNT(*) FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=INSIDE')", [window]).fetchall()
        assert rows[0][0] == len(layers_db.parks_data)

    def test_primary_filter_counts_recorded(self, layers_db):
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        window = make_rect(gt, 100, 100, 200, 200)
        layers_db.stats.extra.clear()
        layers_db.execute(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window]
        ).fetchall()
        assert "spatial_primary_candidates" in layers_db.stats.extra


class TestPrimaryFilter:
    def test_group_scans_equal_brute_force_ranges_interact(self, spatial_db):
        """One prefix scan per group code of the query cover returns the
        rows whose cover meets it — what one probe per query tile
        returned — including stored tiles that contain a query tile
        (geometries 64 or more units wide have level-4 or coarser
        tiles) and query covers over one to four group codes."""
        from repro.core.callbacks import CallbackPhase
        db = spatial_db
        gt = db.catalog.get_object_type("SDO_GEOMETRY")
        rng = random.Random(13)
        db.execute("CREATE TABLE geo (gid INTEGER, geometry SDO_GEOMETRY)")
        shapes = {}
        for gid in range(400):
            if gid % 4 == 0:   # wide: coarse tiles, some grid-aligned
                x, y = rng.randrange(0, 12) * 64, rng.randrange(0, 12) * 64
                w, h = rng.choice((64, 128, 192)), rng.choice((64, 128))
                if gid % 8:
                    x, y = x + rng.uniform(0, 30), y + rng.uniform(0, 30)
            else:
                x, y = rng.uniform(0, 980), rng.uniform(0, 980)
                w, h = rng.uniform(1, 40), rng.uniform(1, 40)
            shapes[gid] = make_rect(gt, x, y, min(x + w, 1023),
                                    min(y + h, 1023))
        db.insert_rows("geo", [[g, geom] for g, geom in shapes.items()])
        db.execute("CREATE INDEX geo_sidx ON geo(geometry)"
                   " INDEXTYPE IS SpatialIndexType")
        rid_of = dict((gid, rid) for rid, gid in db.execute(
            "SELECT rowid, gid FROM geo").fetchall())
        covers = {rid_of[g]: tessellate(geom) for g, geom in shapes.items()}

        windows = [make_rect(gt, *box) for box in (
            (300, 300, 340, 330),      # inside one group code
            (230, 300, 290, 340),      # across two
            (230, 230, 290, 290),      # across four
            (200, 600, 600, 620),      # across three
            (320, 320, 384, 384),      # one level-4 tile
            (256, 256, 384, 320),      # two level-4 tiles, one group
            (512, 0, 640, 128),        # one level-3 tile
        )]
        for __ in range(40):
            x, y = rng.uniform(0, 900), rng.uniform(0, 900)
            windows.append(make_rect(gt, x, y, x + rng.uniform(2, 120),
                                     y + rng.uniform(2, 120)))

        index = db.catalog.get_index("geo_sidx")
        env = db.make_env(CallbackPhase.SCAN, index.domain)
        ia = index.domain.index_info()
        statements = []
        real_query = env.callback.query
        env.callback.query = lambda *args: (statements.append(args)
                                            or real_query(*args))
        group_counts, level4, contained = set(), False, False
        for window in windows:
            query_cover = tessellate(window)
            groups = {t.grpcode for t in query_cover}
            group_counts.add(len(groups))
            level4 |= any(t.maxcode - t.code == 3 for t in query_cover)
            expected = sorted(rid for rid, cover in covers.items()
                              if ranges_interact(cover, query_cover))
            contained |= any(
                s.code <= q.code and q.maxcode <= s.maxcode and s != q
                for cover in covers.values() for s in cover
                for q in query_cover)
            del statements[:]
            assert index.domain.methods._primary_filter(
                ia, env, window) == expected
            assert len(statements) == len(groups)
            indexed = db.execute(
                "SELECT gid FROM geo WHERE Sdo_Relate(geometry, :1,"
                " 'mask=ANYINTERACT')", [window]).fetchall()
            assert sorted(indexed) == sorted(
                (g,) for g, geom in shapes.items() if sdo_relate_functional(
                    geom, window, "mask=ANYINTERACT"))
        assert {1, 2, 3, 4} <= group_counts
        assert level4 and contained

    @pytest.mark.vectorized
    def test_group_scan_walks_no_tile_past_the_bound(self, layers_db):
        """``code <= :2`` bounds each group code's leaf walk: the tiles
        table hands over exactly the group's tiles up to the bound —
        none above it, and fewer than the group holds."""
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        storage = layers_db.catalog.get_table("parks_sidx_tiles").storage
        walked = []
        real = storage.prefix_batches

        def spy(prefix, low=None, high=None, snapshot=None):
            for rowids, columns in real(prefix, low, high, snapshot):
                walked.append((prefix[0], high, list(columns[1])))
                yield rowids, columns
        storage.prefix_batches = spy
        try:
            for box in ((100, 100, 160, 150), (300, 300, 700, 700),
                        (0, 500, 1023, 540), (600, 40, 630, 90)):
                layers_db.execute(
                    "SELECT gid FROM parks WHERE Sdo_Relate(geometry, :1,"
                    " 'mask=ANYINTERACT')", [make_rect(gt, *box)]).fetchall()
        finally:
            del storage.prefix_batches
        assert walked
        in_groups = 0
        for grpcode, high, codes in walked:
            assert high is not None and max(codes) <= high
            # a full scan (``+ 0`` defeats the prefix path) agrees
            assert len(codes) == layers_db.execute(
                "SELECT COUNT(*) FROM parks_sidx_tiles WHERE grpcode + 0 = :1"
                " AND code <= :2", [grpcode, high]).fetchall()[0][0]
            in_groups += layers_db.execute(
                "SELECT COUNT(*) FROM parks_sidx_tiles WHERE grpcode + 0 = :1",
                [grpcode]).fetchall()[0][0]
        assert sum(len(codes) for __, __, codes in walked) < in_groups


class TestSpatialJoin:
    def test_join_uses_domain_nl_probe(self, layers_db):
        plan = layers_db.explain(
            "SELECT r.gid, p.gid FROM roads r, parks p WHERE "
            "Sdo_Relate(p.geometry, r.geometry, 'mask=OVERLAPS')")
        assert any("DOMAIN NL JOIN" in line for line in plan)

    def test_join_matches_brute_force(self, layers_db):
        rows = layers_db.execute(
            "SELECT r.gid, p.gid FROM roads r, parks p WHERE "
            "Sdo_Relate(p.geometry, r.geometry, 'mask=OVERLAPS')").fetchall()
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
        rows = layers_db.execute(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=INSIDE')", [window]).fetchall()
        assert 999 in [r[0] for r in rows]

    def test_delete_then_gone(self, layers_db):
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        victim = layers_db.parks_data[0][0]
        layers_db.execute("DELETE FROM parks WHERE gid = :1", [victim])
        window = make_rect(gt, 0, 0, 1023, 1023)
        rows = layers_db.execute(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window]
        ).fetchall()
        assert victim not in [r[0] for r in rows]

    def test_rollback_restores_tiles(self, layers_db):
        tiles_before = layers_db.execute(
            "SELECT COUNT(*) FROM parks_sidx_tiles").fetchall()
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        layers_db.begin()
        layers_db.execute("INSERT INTO parks VALUES (:1, :2)",
                          [888, make_rect(gt, 30, 30, 60, 60)])
        layers_db.rollback()
        assert layers_db.execute(
            "SELECT COUNT(*) FROM parks_sidx_tiles").fetchall() == tiles_before


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
                (rid, grp, code, maxcode)
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
        """Update and delete reach a row's tiles by key — the old cover's
        ``(grpcode, code, rid)`` — and a window query by one prefix scan
        per group code: every statement against the tiles table plans
        as an IOT prefix scan, and none reads the whole table."""
        gt = layers_db.catalog.get_object_type("SDO_GEOMETRY")
        storage = layers_db.catalog.get_table("parks_sidx_tiles").storage
        located = []

        def no_full_scan(*args, **kwargs):
            raise AssertionError("full scan of the tiles table")

        real_locate = storage.locate

        def locate(key):
            located.append(key)
            return real_locate(key)
        storage.scan, storage.locate = no_full_scan, locate
        layers_db.enable_tracing()
        victim, other = (g for g, __ in layers_db.parks_data[:2])
        layers_db.execute("UPDATE parks SET geometry = :1 WHERE gid = :2",
                          [make_rect(gt, 500, 500, 530, 540), victim])
        layers_db.execute("DELETE FROM parks WHERE gid = :1", [other])
        # the two rows' old covers, one keyed delete per tile
        assert len(located) == sum(
            len(tessellate(geometry))
            for __, geometry in layers_db.parks_data[:2])
        assert (victim,) in layers_db.execute(
            "SELECT gid FROM parks WHERE Sdo_Relate(geometry, :1,"
            " 'mask=ANYINTERACT')", [make_rect(gt, 490, 490, 540, 550)]
        ).fetchall()
        chosen = [line for line in layers_db.trace_log
                  if line.startswith("optimizer:candidate*")
                  and "parks_sidx_tiles" in line]
        assert chosen
        assert all("IOT PREFIX SCAN parks_sidx_tiles" in line
                   and "TABLE SCAN" not in line for line in chosen)


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
        count_before = layers_db.execute(
            "SELECT COUNT(*) FROM parks_sdoindex").fetchall()[0][0]
        layers_db.execute("INSERT INTO parks VALUES (:1, :2)",
                          [777, make_rect(gt, 500, 500, 520, 520)])
        assert layers_db.execute(
            "SELECT COUNT(*) FROM parks_sdoindex"
        ).fetchall()[0][0] == count_before
        park_layer.sync()
        assert layers_db.execute(
            "SELECT COUNT(*) FROM parks_sdoindex"
        ).fetchall()[0][0] > count_before


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
        tile_rows = layers_db.execute(
            "SELECT gid FROM parks WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window]
        ).fetchall()
        rtree_rows = layers_db.execute(
            "SELECT gid FROM parks_rt WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window]
        ).fetchall()
        assert sorted(tile_rows) == sorted(rtree_rows)

    @pytest.fixture
    def zone_db(self, layers_db):
        """Two empty tables, ``zone`` R-tree-indexed and ``zone_plain``
        index-free."""
        install_rtree(layers_db)
        for table in ("zone", "zone_plain"):
            layers_db.execute(
                f"CREATE TABLE {table} (gid INTEGER, geometry SDO_GEOMETRY)")
        layers_db.execute("CREATE INDEX zone_idx ON zone(geometry)"
                          " INDEXTYPE IS RtreeIndexType")
        return layers_db

    @staticmethod
    def indexed_gids(db, window):
        """The gids a ``zone_idx`` domain scan finds in ``window``,
        checked against ``zone_plain``."""
        query = ("SELECT gid FROM {table} WHERE "
                 "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')")
        plan = db.explain(query.format(table="zone"), [window])
        assert any("DOMAIN INDEX SCAN zone_idx" in line for line in plan)
        got = sorted(db.execute(query.format(table="zone"),
                                [window]).fetchall())
        assert got == sorted(db.execute(query.format(table="zone_plain"),
                                        [window]).fetchall())
        return [gid for gid, in got]

    def test_rtree_maintenance(self, zone_db):
        """INSERT, UPDATE and DELETE on an R-tree-indexed table, read
        back through the domain scan against an index-free copy."""
        gt = zone_db.catalog.get_object_type("SDO_GEOMETRY")
        rects = make_rect_layer(gt, 200, seed=17, min_size=10, max_size=80)
        moved = make_rect(gt, 850, 850, 900, 900)

        def on_both_many(sql, param_sets):
            for table in ("zone", "zone_plain"):
                zone_db.executemany(sql.format(table=table), param_sets)

        on_both_many("INSERT INTO {table} VALUES (:1, :2)",
                     [[g, geom] for g, geom in rects])
        _on_both(zone_db, "DELETE FROM {table} WHERE gid <= 20")
        _on_both(zone_db, "UPDATE {table} SET geometry = :1 WHERE gid > 180",
                 [moved])
        on_both_many("UPDATE {table} SET geometry = :1 WHERE gid = :2",
                     [[make_rect(gt, 10 * k, 10 * k, 10 * k + 30,
                                 10 * k + 30), 100 + k]
                      for k in range(10)])
        windows = [make_rect(gt, 0, 0, 200, 200),
                   make_rect(gt, 300, 300, 700, 700),
                   make_rect(gt, 840, 840, 1000, 1000),
                   make_rect(gt, 0, 0, 1000, 1000)]
        found = [self.indexed_gids(zone_db, window) for window in windows]
        # the moved rows answer where they moved to, the deleted nowhere
        assert set(range(181, 201)) <= set(found[2])
        assert set(range(100, 110)) <= set(found[0])
        assert len(found[3]) == 180

    def test_rtree_truncate(self, zone_db):
        """TRUNCATE TABLE runs the R-tree's ODCIIndexTruncate: the old
        rectangles answer no window, the index stays VALID, and rows
        inserted afterwards (under the old rows' rowids) are found."""
        gt = zone_db.catalog.get_object_type("SDO_GEOMETRY")
        for table in ("zone", "zone_plain"):
            zone_db.insert_rows(table, [
                [g, geom] for g, geom in make_rect_layer(
                    gt, 200, seed=17, min_size=10, max_size=80)])
        _on_both(zone_db, "TRUNCATE TABLE {table}")
        assert zone_db.execute(
            "SELECT status FROM user_indexes WHERE index_name = 'zone_idx'"
        ).fetchall() == [("VALID",)]
        # 200 new rows, every one in the top-right quarter
        fresh = [[k, make_rect(gt, 520 + 24 * (k % 20), 520 + 48 * (k // 20),
                               535 + 24 * (k % 20), 560 + 48 * (k // 20))]
                 for k in range(200)]
        for table in ("zone", "zone_plain"):
            zone_db.insert_rows(table, fresh)
        assert self.indexed_gids(zone_db, make_rect(gt, 0, 0, 500, 500)) == []
        assert self.indexed_gids(
            zone_db, make_rect(gt, 0, 0, 1000, 1000)) == list(range(200))
