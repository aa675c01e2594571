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
from typing import List, NamedTuple, Tuple

from repro.cartridges.spatial.geometry import (
    GTYPE_POLYGON, Box, Parts, Relation, boxes_interact, bounding_box,
    geometry_parts, relate_parts)
from repro.errors import ExecutionError
from repro.types.objects import ObjectValue

#: Side length of the (square) indexed world.
WORLD_SIZE = 1024.0
#: Finest tessellation level (2^MAX_LEVEL cells per side).
MAX_LEVEL = 5
#: Level whose tiles define the group code.
GROUP_LEVEL = 2


class TileRange(NamedTuple):
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


#: ``_SPREAD[i]``: the bits of ``i`` moved to the even positions, so
#: ``morton(x, y, MAX_LEVEL) == _SPREAD[x] | _SPREAD[y] << 1``
_SPREAD = tuple(morton(i, 0, MAX_LEVEL) for i in range(1 << MAX_LEVEL))


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

    An axis-aligned rectangle is covered in closed form
    (:func:`_rect_cover`); any other geometry by the descent, which
    classifies tiles with
    :func:`~repro.cartridges.spatial.geometry.relate_parts`.  The
    descent starts at the smallest tile enclosing every cell the
    bounding box shares a point with: each of its ancestors holds the
    whole geometry (never interior, never disjoint) and each tile off
    that path misses the box, so a descent from level 0 emits the same
    tiles in the same order.
    """
    if not 0 < max_level <= MAX_LEVEL:
        raise ExecutionError(f"max_level must be in (0, {MAX_LEVEL}]")
    rect = _axis_aligned_box(geometry)
    box = rect if rect is not None else bounding_box(geometry)
    if box[0] < 0 or box[1] < 0 or box[2] > WORLD_SIZE or box[3] > WORLD_SIZE:
        raise ExecutionError(
            f"geometry bbox {box} lies outside the indexed world "
            f"[0, {WORLD_SIZE})^2")
    if rect is not None:
        return _rect_cover(rect, max_level)
    out: List[TileRange] = []
    _cover(_relate_classifier(geometry_parts(geometry)),
           *_enclosing_tile(box, max_level), max_level, out)
    return out


def _axis_aligned_box(geometry: ObjectValue):
    """The box of a four-vertex polygon whose edges alternate
    vertical/horizontal (either winding, any start vertex, zero width or
    height included); None for any other geometry."""
    coords = geometry.get("coords")
    if len(coords) != 8 or geometry.get("gtype") != GTYPE_POLYGON:
        return None
    x0, y0, x1, y1, x2, y2, x3, y3 = coords
    if not ((y0 == y1 and x1 == x2 and y2 == y3 and x3 == x0)
            or (x0 == x1 and y1 == y2 and x2 == x3 and y3 == y0)):
        return None
    return min(x0, x2), min(y0, y2), max(x0, x2), max(y0, y2)


def _rect_cover(box: Box, max_level: int) -> List[TileRange]:
    """The descent's cover of the closed rectangle ``box``, in closed
    form.

    Tile ``t`` of level ``L`` spans ``[t·s, (t+1)·s]`` with ``s`` a
    power of two, so per axis the tiles meeting ``[lo, hi]`` (sharing a
    point: a shared edge counts) are ``ceil(lo/s)-1 .. floor(hi/s)``
    and those inside it ``ceil(lo/s) .. floor(hi/s)-1`` — exact in
    floating point.  The descent emits a tile of level ``L`` when it
    meets the box and is inside it (``L >= GROUP_LEVEL``) or ``L`` is
    ``max_level``, unless its parent was inside at a level it emits
    from, which already holds it.  Each row of a level is one or two
    runs of tiles: the parent's inside run is cut out of it.

    The descent visits children x-major, so it emits the tiles in the
    order of their Morton codes with the roles of x and y swapped; that
    key sorts the result.
    """
    cell = WORLD_SIZE / (1 << max_level)
    # ceil(a / 2^k) == ceil(ceil(a) / 2^k): each level's bounds are the
    # finest level's, shifted
    cx0, cy0 = math.ceil(box[0] / cell), math.ceil(box[1] / cell)
    cx1, cy1 = math.floor(box[2] / cell), math.floor(box[3] / cell)
    spread = _SPREAD
    group_shift = 2 * (MAX_LEVEL - GROUP_LEVEL)
    found: List[Tuple[int, int, int]] = []
    parent = None      # the previous level's inside tiles, if it emitted any
    # a level coarser than GROUP_LEVEL emits only when it is max_level
    for level in range(min(GROUP_LEVEL, max_level), max_level + 1):
        k = max_level - level
        last = (1 << level) - 1
        nx0, ny0 = -(-cx0 >> k), -(-cy0 >> k)
        nx1, ny1 = (cx1 >> k) - 1, (cy1 >> k) - 1
        inside = (nx0, ny0, nx1, ny1) if (
            level >= GROUP_LEVEL and nx0 <= nx1 and ny0 <= ny1) else None
        if level == max_level:
            # every tile meeting the box
            ex0, ey0 = max(0, nx0 - 1), max(0, ny0 - 1)
            ex1, ey1 = min(last, nx1 + 1), min(last, ny1 + 1)
        elif inside is not None:
            ex0, ey0, ex1, ey1 = inside
        else:
            parent = None
            continue
        shift = MAX_LEVEL - level
        span = (1 << 2 * shift) - 1
        for ty in range(ey0, ey1 + 1):
            runs = [(ex0, ex1)]
            if parent is not None and parent[1] <= ty >> 1 <= parent[3]:
                runs = [(ex0, min(ex1, 2 * parent[0] - 1)),
                        (max(ex0, 2 * parent[2] + 2), ex1)]
            y_bits = spread[ty << shift]
            y_code = y_bits << 1
            for a, b in runs:
                for tx in range(a, b + 1):
                    x_bits = spread[tx << shift]
                    code = x_bits | y_code
                    found.append((x_bits << 1 | y_bits, code, code + span))
        parent = inside
    found.sort()
    return [TileRange(code >> group_shift, code, maxcode)
            for __, code, maxcode in found]


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
