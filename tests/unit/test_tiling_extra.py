"""Additional tiling and spatial-scan coverage."""

import pytest

from repro.cartridges.spatial.geometry import (
    GEOMETRY_TYPE_NAME, make_point, make_rect)
from repro.cartridges.spatial.tiling import (
    GROUP_LEVEL, MAX_LEVEL, WORLD_SIZE, morton, tessellate)
from repro.errors import ExecutionError
from repro.types.datatypes import ANY, INTEGER
from repro.types.objects import ObjectType

GT = ObjectType(GEOMETRY_TYPE_NAME, [("gtype", INTEGER), ("coords", ANY)])


class TestMortonProperties:
    def test_bijective_at_level(self):
        level = 4
        codes = {morton(x, y, level)
                 for x in range(1 << level) for y in range(1 << level)}
        assert len(codes) == (1 << level) ** 2
        assert max(codes) == (1 << (2 * level)) - 1

    def test_zero_maps_to_zero(self):
        assert morton(0, 0, MAX_LEVEL) == 0


class TestTessellationShapes:
    def test_point_gets_fine_tiles(self):
        tiles = tessellate(make_point(GT, 100.5, 200.5))
        assert tiles
        # a point can never fully contain a tile, so every tile is at
        # the finest level: code == maxcode
        assert all(t.code == t.maxcode for t in tiles)

    def test_world_spanning_rect_covers_all_groups(self):
        world = make_rect(GT, 0, 0, WORLD_SIZE - 1, WORLD_SIZE - 1)
        tiles = tessellate(world)
        groups = {t.grpcode for t in tiles}
        assert len(groups) == (1 << GROUP_LEVEL) ** 2

    def test_interior_tiles_merge_into_ranges(self):
        # a large aligned rect should produce some multi-cell ranges
        big = make_rect(GT, 0, 0, 512, 512)
        tiles = tessellate(big)
        assert any(t.maxcode > t.code for t in tiles)

    def test_max_level_validation(self):
        rect = make_rect(GT, 0, 0, 10, 10)
        with pytest.raises(ExecutionError):
            tessellate(rect, max_level=0)
        with pytest.raises(ExecutionError):
            tessellate(rect, max_level=MAX_LEVEL + 1)

    def test_coarser_level_fewer_tiles(self):
        rect = make_rect(GT, 37, 41, 412, 397)
        fine = tessellate(rect, max_level=MAX_LEVEL)
        coarse = tessellate(rect, max_level=GROUP_LEVEL + 1)
        assert len(coarse) <= len(fine)

    def test_tiny_rect_single_tile(self):
        tile_size = WORLD_SIZE / (1 << MAX_LEVEL)
        rect = make_rect(GT, 1, 1, tile_size / 4, tile_size / 4)
        tiles = tessellate(rect)
        assert len(tiles) <= 4  # at most the four neighbouring cells


class TestSpatialScanCounters:
    def test_exact_tests_lazy_under_limit(self, spatial_db):
        """LIMIT stops the incremental spatial scan early: fewer exact
        geometry tests than candidates."""
        from repro.bench.workloads import make_rect_layer
        spatial_db.execute(
            "CREATE TABLE geo (gid INTEGER, geometry SDO_GEOMETRY)")
        gt = spatial_db.catalog.get_object_type("SDO_GEOMETRY")
        layer = make_rect_layer(gt, 200, seed=13, min_size=30,
                                max_size=100)
        spatial_db.insert_rows("geo", [[g, geom] for g, geom in layer])
        spatial_db.execute("CREATE INDEX geo_idx ON geo(geometry)"
                           " INDEXTYPE IS SpatialIndexType")
        window = make_rect(gt, 0, 0, 1000, 1000)
        spatial_db.stats.extra.clear()
        rows = spatial_db.execute(
            "SELECT gid FROM geo WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT') LIMIT 3",
            [window]).fetchall()
        assert len(rows) == 3
        extra = spatial_db.stats.extra
        assert extra["spatial_exact_tests"] \
            < extra["spatial_primary_candidates"]
