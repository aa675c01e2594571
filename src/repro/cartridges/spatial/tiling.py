"""Linear-quadtree tessellation with z-order (Morton) tile codes.

"The spatial index consists of a collection of tiles (unit of space)
corresponding to every spatial object" (§3.2.2).  Space is the square
``[0, WORLD_SIZE)²``; a geometry is covered by quadtree tiles down to
``MAX_LEVEL``.  Each covering tile maps to the Morton-code *range* of
the finest-level cells it spans — the ``(sdo_code, sdo_maxcode)`` pair
of the paper's legacy schema — and carries the ``grpcode`` of its
``GROUP_LEVEL`` ancestor, so two tiles can only interact when their
group codes are equal (the legacy query's ``r.grpcode = p.grpcode``
equi-join).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.cartridges.spatial.geometry import (
    GTYPE_POLYGON, Box, Parts, Relation, boxes_interact, geometry_parts,
    relate_parts)
from repro.errors import ExecutionError
from repro.types.objects import ObjectValue

#: Side length of the (square) indexed world.
WORLD_SIZE = 1024.0
#: Finest tessellation level (2^MAX_LEVEL cells per side).
MAX_LEVEL = 5
#: Level whose tiles define the group code.
GROUP_LEVEL = 2


@dataclass(frozen=True)
class TileRange:
    """One covering tile as a Morton range at MAX_LEVEL granularity."""

    grpcode: int
    code: int      # first MAX_LEVEL Morton code covered
    maxcode: int   # last MAX_LEVEL Morton code covered

    def intersects(self, other: "TileRange") -> bool:
        """Range intersection — the paper's BETWEEN-OR-BETWEEN test."""
        return (self.grpcode == other.grpcode
                and self.code <= other.maxcode
                and other.code <= self.maxcode)


def morton(x: int, y: int, level: int) -> int:
    """Interleave the low ``level`` bits of x (even) and y (odd)."""
    code = 0
    for bit in range(level):
        code |= ((x >> bit) & 1) << (2 * bit)
        code |= ((y >> bit) & 1) << (2 * bit + 1)
    return code


def _tile_box(level: int, tx: int, ty: int) -> Tuple[float, float, float, float]:
    size = WORLD_SIZE / (1 << level)
    return tx * size, ty * size, (tx + 1) * size, (ty + 1) * size


def _range_for_tile(level: int, tx: int, ty: int) -> Tuple[int, int]:
    shift = MAX_LEVEL - level
    base = morton(tx, ty, level) << (2 * shift)
    return base, base + (1 << (2 * shift)) - 1


def _grpcode_for(code: int) -> int:
    return code >> (2 * (MAX_LEVEL - GROUP_LEVEL))


#: what the descent needs to know of a tile against the geometry
_DISJOINT, _INSIDE, _PARTIAL = 0, 1, 2


def tessellate(geometry: ObjectValue,
               max_level: int = MAX_LEVEL) -> List[TileRange]:
    """Quadtree cover of ``geometry`` as a list of tile ranges.

    Recursion emits a tile when it is entirely interior to the geometry
    or when ``max_level`` is reached; tiles above GROUP_LEVEL are always
    subdivided so every emitted range lies within one group.

    The descent starts at the smallest tile enclosing every cell the
    bounding box shares a point with: each of its ancestors holds the
    whole geometry (never interior, never disjoint) and each tile off
    that path misses the box, so a descent from level 0 emits the same
    tiles in the same order.  An axis-aligned rectangle is classified
    by interval arithmetic on the two boxes; any other geometry by
    :func:`~repro.cartridges.spatial.geometry.relate_parts`.
    """
    if not 0 < max_level <= MAX_LEVEL:
        raise ExecutionError(f"max_level must be in (0, {MAX_LEVEL}]")
    parts = geometry_parts(geometry)
    box = parts[2]
    if box[0] < 0 or box[1] < 0 or box[2] > WORLD_SIZE or box[3] > WORLD_SIZE:
        raise ExecutionError(
            f"geometry bbox {box} lies outside the indexed world "
            f"[0, {WORLD_SIZE})^2")
    if _is_axis_aligned_rect(parts):
        classify = _rect_classifier(box)
    else:
        classify = _relate_classifier(parts)
    out: List[TileRange] = []
    _cover(classify, *_enclosing_tile(box, max_level), max_level, out)
    return out


def _is_axis_aligned_rect(parts: Parts) -> bool:
    """Four vertices whose edges alternate vertical/horizontal (either
    winding, any start vertex, zero width or height included)."""
    gtype, pts, __ = parts
    if gtype != GTYPE_POLYGON or len(pts) != 4:
        return False
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts
    return (y0 == y1 and x1 == x2 and y2 == y3 and x3 == x0) \
        or (x0 == x1 and y1 == y2 and x2 == x3 and y3 == y0)


def _rect_classifier(box: Box):
    """Tile-vs-rectangle in closed form.

    What ``relate(tile, rectangle)`` distinguishes for the descent:
    DISJOINT exactly when the closed boxes share no point (a shared
    edge or corner is a TOUCH), INSIDE/EQUAL exactly when the tile lies
    within the closed rectangle.  ``relate`` treats a vertex within
    1e-9 of an edge as on it; this test is exact, which at most splits
    a tile into its four children — the cells covered are the same.
    """
    x0, y0, x1, y1 = box

    def classify(tile_box: Box) -> int:
        tx0, ty0, tx1, ty1 = tile_box
        if tx1 < x0 or x1 < tx0 or ty1 < y0 or y1 < ty0:
            return _DISJOINT
        if x0 <= tx0 and tx1 <= x1 and y0 <= ty0 and ty1 <= y1:
            return _INSIDE
        return _PARTIAL
    return classify


def _relate_classifier(parts: Parts):
    """Tile-vs-geometry through the general relation engine."""
    box = parts[2]

    def classify(tile_box: Box) -> int:
        if not boxes_interact(tile_box, box):
            return _DISJOINT
        xmin, ymin, xmax, ymax = tile_box
        tile = (GTYPE_POLYGON,
                [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)],
                tile_box)
        relation = relate_parts(tile, parts)
        if relation is Relation.DISJOINT:
            return _DISJOINT
        if relation is Relation.INSIDE or relation is Relation.EQUAL:
            return _INSIDE
        return _PARTIAL
    return classify


def _enclosing_tile(box: Box, max_level: int) -> Tuple[int, int, int]:
    """(level, tx, ty) of the smallest tile holding every ``max_level``
    cell whose closed box shares a point with ``box``."""
    last = (1 << max_level) - 1
    cell = WORLD_SIZE / (1 << max_level)
    # a bound exactly on a cell border also touches the cell before it
    cx0 = max(0, math.ceil(box[0] / cell) - 1)
    cy0 = max(0, math.ceil(box[1] / cell) - 1)
    cx1 = min(last, math.floor(box[2] / cell))
    cy1 = min(last, math.floor(box[3] / cell))
    level = max_level
    while cx0 != cx1 or cy0 != cy1:
        cx0, cy0, cx1, cy1 = cx0 >> 1, cy0 >> 1, cx1 >> 1, cy1 >> 1
        level -= 1
    return level, cx0, cy0


def _cover(classify, level: int, tx: int, ty: int,
           max_level: int, out: List[TileRange]) -> None:
    relation = classify(_tile_box(level, tx, ty))
    if relation == _DISJOINT:
        return
    if (relation == _INSIDE and level >= GROUP_LEVEL) or level == max_level:
        lo, hi = _range_for_tile(level, tx, ty)
        out.append(TileRange(grpcode=_grpcode_for(lo), code=lo, maxcode=hi))
        return
    for dx in (0, 1):
        for dy in (0, 1):
            _cover(classify, level + 1, 2 * tx + dx, 2 * ty + dy,
                   max_level, out)


def ranges_interact(a: List[TileRange], b: List[TileRange]) -> bool:
    """Primary filter: do any tile ranges of the two covers intersect?"""
    by_group = {}
    for r in a:
        by_group.setdefault(r.grpcode, []).append(r)
    for r in b:
        for other in by_group.get(r.grpcode, ()):
            if r.intersects(other):
                return True
    return False
