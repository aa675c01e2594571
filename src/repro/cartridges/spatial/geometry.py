"""Geometry model and spatial relations.

Geometries are SDO_GEOMETRY object values: ``gtype`` (1=point, 3=polygon)
plus a flat ``coords`` tuple (x1, y1, x2, y2, ...).  Polygons are simple
(non-self-intersecting) rings; vertices may wind either way.

:func:`relate` computes the spatial relationship used by the
``Sdo_Relate`` masks: EQUAL, INSIDE, CONTAINS, OVERLAPS, TOUCH, DISJOINT
(plus the derived ANYINTERACT).
"""

from __future__ import annotations

import enum
from typing import List, Sequence, Tuple

from repro.errors import ExecutionError
from repro.types.objects import ObjectValue

Point = Tuple[float, float]
Box = Tuple[float, float, float, float]  # xmin, ymin, xmax, ymax

#: Name of the geometry object type registered by install().
GEOMETRY_TYPE_NAME = "SDO_GEOMETRY"

GTYPE_POINT = 1
GTYPE_POLYGON = 3


class Relation(enum.Enum):
    """Result of :func:`relate` — the Sdo_Relate mask vocabulary."""

    DISJOINT = "DISJOINT"
    TOUCH = "TOUCH"
    OVERLAPS = "OVERLAPS"
    INSIDE = "INSIDE"
    CONTAINS = "CONTAINS"
    EQUAL = "EQUAL"


# ---------------------------------------------------------------------------
# construction / extraction
# ---------------------------------------------------------------------------

def _require_type(db_or_type):
    from repro.types.objects import ObjectType
    if isinstance(db_or_type, ObjectType):
        return db_or_type
    return db_or_type.catalog.get_object_type(GEOMETRY_TYPE_NAME)


def make_point(geometry_type, x: float, y: float) -> ObjectValue:
    """Build a point geometry (``geometry_type`` is the ObjectType or a db)."""
    return _require_type(geometry_type).new(GTYPE_POINT, (float(x), float(y)))


def make_rect(geometry_type, xmin: float, ymin: float,
              xmax: float, ymax: float) -> ObjectValue:
    """Build an axis-aligned rectangle polygon."""
    if xmax < xmin or ymax < ymin:
        raise ExecutionError("rectangle corners out of order")
    coords = (float(xmin), float(ymin), float(xmax), float(ymin),
              float(xmax), float(ymax), float(xmin), float(ymax))
    return _require_type(geometry_type).new(GTYPE_POLYGON, coords)


def make_polygon(geometry_type, coords: Sequence[float]) -> ObjectValue:
    """Build a polygon from a flat (x1, y1, x2, y2, ...) coordinate list."""
    if len(coords) < 6 or len(coords) % 2:
        raise ExecutionError(
            "polygon needs at least 3 (x, y) vertex pairs")
    return _require_type(geometry_type).new(
        GTYPE_POLYGON, tuple(float(c) for c in coords))


def geometry_coords(geometry: ObjectValue) -> List[Point]:
    """Vertex list of a geometry object value."""
    flat = list(geometry.get("coords"))
    return [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


def bounding_box(geometry: ObjectValue) -> Box:
    """Axis-aligned bounding box of a geometry."""
    flat = geometry.get("coords")
    xs = flat[0::2]
    ys = flat[1::2]
    return min(xs), min(ys), max(xs), max(ys)


# ---------------------------------------------------------------------------
# low-level predicates
# ---------------------------------------------------------------------------

_EPS = 1e-9


def _orient(a: Point, b: Point, c: Point) -> int:
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if cross > _EPS:
        return 1
    if cross < -_EPS:
        return -1
    return 0


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    if _orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) - _EPS <= p[0] <= max(a[0], b[0]) + _EPS
            and min(a[1], b[1]) - _EPS <= p[1] <= max(a[1], b[1]) + _EPS)


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True for a *proper* crossing (interiors intersect at one point)."""
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def segments_touch(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when the segments share at least one point (incl. endpoints)."""
    if segments_cross(a, b, c, d):
        return True
    return (_on_segment(a, b, c) or _on_segment(a, b, d)
            or _on_segment(c, d, a) or _on_segment(c, d, b))


def point_in_polygon(point: Point, polygon: Sequence[Point]) -> int:
    """Return 1 strictly inside, 0 on the boundary, -1 outside (ray cast)."""
    n = len(polygon)
    for i in range(n):
        if _on_segment(polygon[i], polygon[(i + 1) % n], point):
            return 0
    inside = False
    x, y = point
    j = n - 1
    for i in range(n):
        xi, yi = polygon[i]
        xj, yj = polygon[j]
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return 1 if inside else -1


def _edges(points: Sequence[Point]):
    n = len(points)
    for i in range(n):
        yield points[i], points[(i + 1) % n]


def boxes_interact(a: Box, b: Box) -> bool:
    """True when two bounding boxes share any point."""
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


# ---------------------------------------------------------------------------
# the relation engine
# ---------------------------------------------------------------------------

#: what :func:`relate` reads of one geometry: (gtype, vertices, bbox)
Parts = Tuple[int, List[Point], Box]


def geometry_parts(geometry: ObjectValue) -> Parts:
    """Extract once what :func:`relate_parts` reads of a geometry."""
    return (geometry.get("gtype"), geometry_coords(geometry),
            bounding_box(geometry))


def relate(geom_a: ObjectValue, geom_b: ObjectValue) -> Relation:
    """Spatial relation of two geometries (point or simple polygon)."""
    return relate_parts(geometry_parts(geom_a), geometry_parts(geom_b))


def relate_parts(a: Parts, b: Parts) -> Relation:
    """:func:`relate` on pre-extracted parts, for callers that relate
    one geometry many times (the tessellation descent)."""
    a_type, a_pts, a_box = a
    b_type, b_pts, b_box = b
    if not boxes_interact(a_box, b_box):
        return Relation.DISJOINT
    if a_type == GTYPE_POINT and b_type == GTYPE_POINT:
        return Relation.EQUAL if _same_point(a_pts[0], b_pts[0]) \
            else Relation.DISJOINT
    if a_type == GTYPE_POINT:
        side = point_in_polygon(a_pts[0], b_pts)
        if side > 0:
            return Relation.INSIDE
        return Relation.TOUCH if side == 0 else Relation.DISJOINT
    if b_type == GTYPE_POINT:
        side = point_in_polygon(b_pts[0], a_pts)
        if side > 0:
            return Relation.CONTAINS
        return Relation.TOUCH if side == 0 else Relation.DISJOINT
    return _relate_polygons(a_pts, b_pts)


def _same_point(a: Point, b: Point) -> bool:
    return abs(a[0] - b[0]) <= _EPS and abs(a[1] - b[1]) <= _EPS


def _relate_polygons(a_pts: List[Point], b_pts: List[Point]) -> Relation:
    crossing = any(segments_cross(pa, pb, pc, pd)
                   for pa, pb in _edges(a_pts)
                   for pc, pd in _edges(b_pts))
    if crossing:
        return Relation.OVERLAPS

    a_sides = [point_in_polygon(p, b_pts) for p in a_pts]
    b_sides = [point_in_polygon(p, a_pts) for p in b_pts]
    a_in = all(s >= 0 for s in a_sides)
    b_in = all(s >= 0 for s in b_sides)
    touching = any(s == 0 for s in a_sides) or any(s == 0 for s in b_sides) \
        or any(segments_touch(pa, pb, pc, pd)
               for pa, pb in _edges(a_pts)
               for pc, pd in _edges(b_pts))

    if a_in and b_in:
        return Relation.EQUAL
    if a_in:
        return Relation.INSIDE
    if b_in:
        return Relation.CONTAINS
    if touching:
        # boundaries meet; interiors may or may not mingle — with no
        # proper crossing and neither contained, this is a touch
        return Relation.TOUCH
    # no vertex containment, no crossings: either disjoint or one ring
    # passes through the other without vertices inside (can't happen for
    # simple polygons without crossings) — disjoint
    return Relation.DISJOINT


def mask_matches(relation: Relation, mask: str) -> bool:
    """Does ``relation`` satisfy an Sdo_Relate mask expression?

    Masks combine with ``+`` (``'OVERLAPS+TOUCH'``); ``ANYINTERACT``
    matches everything but DISJOINT.
    """
    wanted = {m.strip().upper() for m in mask.split("+") if m.strip()}
    if not wanted:
        raise ExecutionError(f"empty Sdo_Relate mask {mask!r}")
    for name in wanted:
        if name == "ANYINTERACT":
            if relation is not Relation.DISJOINT:
                return True
            continue
        if name not in Relation.__members__:
            raise ExecutionError(f"unknown Sdo_Relate mask {name!r}")
        if relation is Relation[name]:
            return True
    return False


def parse_mask_param(param: str) -> str:
    """Extract the mask from a ``'mask=OVERLAPS'`` parameter string."""
    text = param.strip()
    for piece in text.split():
        if piece.lower().startswith("mask="):
            return piece.split("=", 1)[1]
    # a bare mask name is also accepted
    return text
