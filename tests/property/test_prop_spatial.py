"""Property tests: spatial primary-filter soundness and R-tree vs brute force.

The key invariant of the tile index (and any primary filter) is *no
false negatives*: if two geometries interact, their tile covers must
interact — otherwise the exact filter never sees the pair.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cartridges.spatial.geometry import (
    GEOMETRY_TYPE_NAME, Relation, bounding_box, relate)
from repro.cartridges.spatial.rtree import RTree, Rect
from repro.cartridges.spatial.tiling import (
    WORLD_SIZE, ranges_interact, tessellate)
from repro.types.datatypes import ANY, INTEGER
from repro.types.objects import ObjectType

GT = ObjectType(GEOMETRY_TYPE_NAME, [("gtype", INTEGER), ("coords", ANY)])

coord = st.floats(min_value=0, max_value=WORLD_SIZE - 1, allow_nan=False)
size = st.floats(min_value=0.5, max_value=300, allow_nan=False)


@st.composite
def rects(draw):
    from repro.cartridges.spatial.geometry import make_rect
    x = draw(coord)
    y = draw(coord)
    w = min(draw(size), WORLD_SIZE - x - 0.001)
    h = min(draw(size), WORLD_SIZE - y - 0.001)
    return make_rect(GT, x, y, x + max(w, 0.1), y + max(h, 0.1))


class TestTilingSoundness:
    @given(rects(), rects())
    @settings(max_examples=120, deadline=None)
    def test_no_false_negatives(self, a, b):
        """Interacting geometries always share interacting tile ranges."""
        if relate(a, b) is not Relation.DISJOINT:
            assert ranges_interact(tessellate(a), tessellate(b))

    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_cover_contains_own_bbox_center(self, geom):
        """A geometry's cover always interacts with its own cover."""
        cover = tessellate(geom)
        assert cover
        assert ranges_interact(cover, cover)

    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_ranges_well_formed(self, geom):
        for tile in tessellate(geom):
            assert 0 <= tile.code <= tile.maxcode
            assert tile.grpcode >= 0


class TestRelationProperties:
    @given(rects(), rects())
    @settings(max_examples=120, deadline=None)
    def test_symmetry_of_relate(self, a, b):
        forward = relate(a, b)
        backward = relate(b, a)
        flip = {Relation.INSIDE: Relation.CONTAINS,
                Relation.CONTAINS: Relation.INSIDE}
        assert backward == flip.get(forward, forward)

    @given(rects())
    @settings(max_examples=60, deadline=None)
    def test_self_relation_is_equal(self, a):
        assert relate(a, a) is Relation.EQUAL

    @given(rects(), rects())
    @settings(max_examples=120, deadline=None)
    def test_disjoint_iff_bbox_or_geometry_separation(self, a, b):
        from repro.cartridges.spatial.geometry import boxes_interact
        if not boxes_interact(bounding_box(a), bounding_box(b)):
            assert relate(a, b) is Relation.DISJOINT


class TestRTreeVsBruteForce:
    @given(st.lists(rects(), min_size=0, max_size=60), rects())
    @settings(max_examples=40, deadline=None)
    def test_search_equals_linear_scan(self, geoms, query):
        tree = RTree(max_entries=4)
        entries = []
        for i, geom in enumerate(geoms):
            rect = Rect.from_box(bounding_box(geom))
            entries.append((rect, i))
            tree.insert(rect, i)
        window = Rect.from_box(bounding_box(query))
        expected = {i for rect, i in entries if rect.intersects(window)}
        assert set(tree.search(window)) == expected

    @given(st.lists(rects(), min_size=1, max_size=40), st.data())
    @settings(max_examples=30, deadline=None)
    def test_delete_then_search_consistent(self, geoms, data):
        tree = RTree(max_entries=4)
        entries = []
        for i, geom in enumerate(geoms):
            rect = Rect.from_box(bounding_box(geom))
            entries.append((rect, i))
            tree.insert(rect, i)
        to_delete = data.draw(st.lists(
            st.sampled_from(entries), unique_by=lambda e: e[1]))
        for rect, i in to_delete:
            assert tree.delete(rect, i)
        removed = {i for __, i in to_delete}
        everything = Rect(0, 0, WORLD_SIZE, WORLD_SIZE)
        assert set(tree.search(everything)) == {
            i for __, i in entries} - removed


# ---------------------------------------------------------------------------
# closed-form rectangle cover ≡ the relate() cover, tile for tile
# ---------------------------------------------------------------------------

def _relate_cover(geometry, max_level=None):
    """The reference descent: from level 0, every tile classified by the
    general relation engine (what ``tessellate`` did for every geometry
    before rectangles got interval arithmetic)."""
    from repro.cartridges.spatial import tiling
    from repro.cartridges.spatial.geometry import (
        boxes_interact, make_rect)
    max_level = tiling.MAX_LEVEL if max_level is None else max_level
    box = bounding_box(geometry)
    out = []

    def cover(level, tx, ty):
        tile_box = tiling._tile_box(level, tx, ty)
        if not boxes_interact(tile_box, box):
            return
        relation = relate(make_rect(GT, *tile_box), geometry)
        if relation is Relation.DISJOINT:
            return
        inside = relation in (Relation.INSIDE, Relation.EQUAL)
        if (inside and level >= tiling.GROUP_LEVEL) or level == max_level:
            lo, hi = tiling._range_for_tile(level, tx, ty)
            out.append(tiling.TileRange(tiling._grpcode_for(lo), lo, hi))
            return
        for dx in (0, 1):
            for dy in (0, 1):
                cover(level + 1, 2 * tx + dx, 2 * ty + dy)

    cover(0, 0, 0)
    return out


#: coordinates on a 1/8 grid: far from relate()'s 1e-9 tolerance, and
#: dense in exact tile borders (multiples of 32) by construction
grid = st.integers(min_value=0, max_value=int(WORLD_SIZE) * 8).map(
    lambda v: v / 8)
#: the borders of the level-5, level-2 and level-0 tiles
borders = st.sampled_from([0.0, 32.0, 64.0, 256.0, 288.0, 512.0, 768.0,
                           992.0, 1024.0])
free = st.floats(min_value=0, max_value=WORLD_SIZE, allow_nan=False).map(
    lambda v: round(v, 6))


@st.composite
def any_rect(draw, axis=st.one_of(grid, borders, free)):
    from repro.cartridges.spatial.geometry import make_rect
    xs = sorted([draw(axis), draw(axis)])
    ys = sorted([draw(axis), draw(axis)])
    return make_rect(GT, xs[0], ys[0], xs[1], ys[1])


class TestClosedFormCover:
    @given(any_rect())
    @settings(max_examples=300, deadline=None)
    def test_rectangles_match_the_relate_cover(self, rect):
        assert tessellate(rect) == _relate_cover(rect)

    @given(any_rect(axis=borders))
    @settings(max_examples=120, deadline=None)
    def test_edges_exactly_on_tile_borders(self, rect):
        assert tessellate(rect) == _relate_cover(rect)

    @given(grid, any_rect())
    @settings(max_examples=80, deadline=None)
    def test_zero_width_and_zero_height_rectangles(self, at, rect):
        from repro.cartridges.spatial.geometry import make_rect
        x0, y0, x1, y1 = bounding_box(rect)
        for flat in (make_rect(GT, at, y0, at, y1),
                     make_rect(GT, x0, at, x1, at),
                     make_rect(GT, at, at, at, at)):
            assert tessellate(flat) == _relate_cover(flat)

    @given(st.one_of(rects(), any_rect()))
    @settings(max_examples=150, deadline=None)
    def test_cover_tiles_are_disjoint(self, geom):
        """No tile twice and no two tiles overlapping: a row's tiles
        have distinct ``(grpcode, code)``, so its keys in the tiles
        table ``(grpcode, code, rid)`` are distinct."""
        cover = sorted(tessellate(geom), key=lambda t: t.code)
        assert len({(t.grpcode, t.code) for t in cover}) == len(cover)
        for before, after in zip(cover, cover[1:]):
            assert before.maxcode < after.code

    @given(any_rect(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_coarser_max_level(self, rect, max_level):
        assert tessellate(rect, max_level) == _relate_cover(rect, max_level)

    @given(any_rect())
    @settings(max_examples=40, deadline=None)
    def test_any_winding_and_start_vertex_is_a_rectangle(self, rect):
        from repro.cartridges.spatial.geometry import make_polygon
        coords = list(rect.get("coords"))
        rotated = coords[2:] + coords[:2]
        points = [coords[i:i + 2] for i in range(0, 8, 2)]
        reversed_ = [c for p in reversed(points) for c in p]
        expected = _relate_cover(rect)
        assert tessellate(make_polygon(GT, rotated)) == expected
        assert tessellate(make_polygon(GT, reversed_)) == expected

    def test_rectangle_never_calls_relate_and_a_triangle_does(
            self, monkeypatch):
        from repro.cartridges.spatial import tiling
        from repro.cartridges.spatial.geometry import (
            make_polygon, make_point, make_rect)
        calls = []
        real = tiling.relate_parts
        monkeypatch.setattr(
            tiling, "relate_parts",
            lambda a, b: calls.append(1) or real(a, b))
        tessellate(make_rect(GT, 10, 20, 300, 400))
        assert not calls
        triangle = make_polygon(GT, [100, 100, 400, 130, 250, 380])
        assert tessellate(triangle) == _relate_cover(triangle)
        assert calls
        # a four-vertex polygon that is not axis-aligned takes it too
        del calls[:]
        diamond = make_polygon(GT, [200, 100, 300, 200, 200, 300, 100, 200])
        assert tessellate(diamond) == _relate_cover(diamond)
        assert calls
        point = make_point(GT, 64, 96.5)
        assert tessellate(point) == _relate_cover(point)
