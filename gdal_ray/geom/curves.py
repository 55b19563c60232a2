"""Curve-geometry linearization — the OGRGeometryFactory
``curveToLineString`` / ``forceTo`` role (reference:
ogr/ogrgeometryfactory.cpp OGRGeometryFactory::curveToLineString,
ogr/ogrcircularstring.cpp): CircularString / CompoundCurve /
CurvePolygon / MultiCurve / MultiSurface WKB → their linear
equivalents, stepping each arc at most ``max_angle_deg`` degrees
(GDAL's OGR_ARC_STEPSIZE default 4°).  This is what ogr2ogr applies
on read when a driver can't store curves — "linearize-on-read".

Z and M are interpolated linearly in arc angle along each inserted
vertex (OGRCircularString::segmentize semantics).  Exactly-collinear
triplets degrade to straight segments (infinite radius), matching the
reference's tolerance path.
"""

from __future__ import annotations

import numpy as np

from gdal_ray.geom import wkb as gwkb


def _arc_angles(p0, p1, p2):
    """Circumcenter + the CCW-or-CW sweep p0→p1→p2.  Returns
    (cx, cy, r, a0, sweep) or None when the triplet is collinear."""
    ax, ay = p0
    bx, by = p1
    cx_, cy_ = p2
    d = 2.0 * (ax * (by - cy_) + bx * (cy_ - ay) + cx_ * (ay - by))
    scale = max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx_), abs(cy_), 1.0)
    if abs(d) < 1e-14 * scale * scale:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy_) + (bx * bx + by * by) * (cy_ - ay)
          + (cx_ * cx_ + cy_ * cy_) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx_ - bx) + (bx * bx + by * by) * (ax - cx_)
          + (cx_ * cx_ + cy_ * cy_) * (bx - ax)) / d
    r = float(np.hypot(ax - ux, ay - uy))
    a0 = float(np.arctan2(ay - uy, ax - ux))
    a1 = float(np.arctan2(by - uy, bx - ux))
    a2 = float(np.arctan2(cy_ - uy, cx_ - ux))
    # choose the sweep direction that passes through the middle point
    ccw1 = (a1 - a0) % (2.0 * np.pi)
    ccw2 = (a2 - a0) % (2.0 * np.pi)
    if ccw1 <= ccw2:
        sweep = ccw2 if ccw2 > 0 else 2.0 * np.pi
    else:
        sweep = -((a0 - a2) % (2.0 * np.pi))
        if sweep == 0.0:
            sweep = -2.0 * np.pi
    return ux, uy, r, a0, sweep


def _linearize_cs(coords: np.ndarray, z, m, max_angle_deg: float):
    """CircularString coords (odd n) → densified polyline (+ z/m)."""
    step = np.radians(max_angle_deg)
    xs: list[np.ndarray] = []
    zs: list[np.ndarray] = []
    ms: list[np.ndarray] = []

    def emit(pts, zseg, mseg):
        if xs:  # drop the duplicated joint vertex
            pts = pts[1:]
            zseg = None if zseg is None else zseg[1:]
            mseg = None if mseg is None else mseg[1:]
        xs.append(pts)
        if z is not None:
            zs.append(zseg)
        if m is not None:
            ms.append(mseg)

    for i in range(0, len(coords) - 2, 2):
        p0, p1, p2 = coords[i], coords[i + 1], coords[i + 2]
        if (p0 == p2).all() and not (p0 == p1).all():
            # SQL/MM full circle: start == end, p1 diametrically
            # opposite (OGRCircularString closed-arc convention);
            # CCW orientation
            ux, uy = 0.5 * (p0 + p1)
            r = 0.5 * float(np.hypot(*(p1 - p0)))
            arc = (ux, uy, r, float(np.arctan2(p0[1] - uy, p0[0] - ux)),
                   2.0 * np.pi)
        else:
            arc = _arc_angles(p0, p1, p2)
        if arc is None:  # collinear → straight segment
            pts = np.vstack([p0, p1, p2])
            t = np.array([0.0, 0.5, 1.0])
        else:
            ux, uy, r, a0, sweep = arc
            # epsilon guards the exact-division case (90° / 30° must
            # give 3 steps, not 4 via 3.0000000000000004)
            k = max(2, int(np.ceil(abs(sweep) / step - 1e-9)))
            t = np.arange(k + 1) / k
            angs = a0 + sweep * t
            pts = np.column_stack([ux + r * np.cos(angs),
                                   uy + r * np.sin(angs)])
            # pin the three defining points exactly (GDAL keeps them)
            pts[0] = p0
            pts[-1] = p2
        zseg = None
        mseg = None
        if z is not None:
            zseg = z[i] + (z[i + 2] - z[i]) * t
            zseg[0], zseg[-1] = z[i], z[i + 2]
        if m is not None:
            mseg = m[i] + (m[i + 2] - m[i]) * t
            mseg[0], mseg[-1] = m[i], m[i + 2]
        emit(pts, zseg, mseg)
    coords2 = np.vstack(xs)
    z2 = np.concatenate(zs) if z is not None else None
    m2 = np.concatenate(ms) if m is not None else None
    return coords2, z2, m2


def _full(g: dict) -> np.ndarray:
    cols = [g["coords"]]
    if "z" in g:
        cols.append(g["z"][:, None])
    if "m" in g:
        cols.append(g["m"][:, None])
    return np.hstack(cols)


def _line_full(g: dict, max_angle_deg: float) -> np.ndarray:
    """Any curve/linear line-like node → full-width vertex array."""
    t = g["type"]
    if t == gwkb.LINESTRING:
        return _full(g)
    if t == gwkb.CIRCULARSTRING:
        c2, z2, m2 = _linearize_cs(g["coords"], g.get("z"), g.get("m"),
                                   max_angle_deg)
        cols = [c2]
        if z2 is not None:
            cols.append(z2[:, None])
        if m2 is not None:
            cols.append(m2[:, None])
        return np.hstack(cols)
    if t == gwkb.COMPOUNDCURVE:
        segs = [_line_full(p, max_angle_deg) for p in g["parts"]]
        out = [segs[0]]
        for s in segs[1:]:
            if not np.allclose(out[-1][-1, :2], s[0, :2], atol=1e-9):
                raise ValueError("CompoundCurve segments must share endpoints")
            out.append(s[1:])
        return np.vstack(out)
    raise ValueError(f"not a curve/line geometry: type {t}")


def linearize(buf: bytes, max_angle_deg: float = 4.0) -> bytes:
    """Curve WKB → linear WKB (CircularString/CompoundCurve →
    LineString, CurvePolygon → Polygon, MultiCurve →
    MultiLineString, MultiSurface → MultiPolygon); linear types pass
    through unchanged (collections recurse)."""
    g = gwkb.parse(buf)
    t = g["type"]
    dims = g["dims"]
    if t in (gwkb.CIRCULARSTRING, gwkb.COMPOUNDCURVE):
        return gwkb.linestring_wkb_d(_line_full(g, max_angle_deg), dims)
    if t == gwkb.CURVEPOLYGON:
        rings = [_line_full(p, max_angle_deg) for p in g["parts"]]
        return gwkb.polygon_wkb_d(rings, dims)
    if t == gwkb.MULTICURVE:
        parts = [gwkb.linestring_wkb_d(_line_full(p, max_angle_deg), dims)
                 for p in g["parts"]]
        return gwkb.collection_wkb(gwkb.MULTILINESTRING, parts, dims)
    if t == gwkb.MULTISURFACE:
        parts = []
        for p in g["parts"]:
            if p["type"] == gwkb.CURVEPOLYGON:
                rings = [_line_full(r, max_angle_deg) for r in p["parts"]]
                parts.append(gwkb.polygon_wkb_d(rings, dims))
            else:  # plain polygon child
                parts.append(linearize_polygon(p, dims))
        return gwkb.collection_wkb(gwkb.MULTIPOLYGON, parts, dims)
    if t == gwkb.GEOMETRYCOLLECTION:
        kids = [linearize(_child_wkb(p), max_angle_deg) for p in g["parts"]]
        return gwkb.collection_wkb(gwkb.GEOMETRYCOLLECTION, kids, dims)
    return buf  # already linear


def linearize_polygon(g: dict, dims: str) -> bytes:
    rings = []
    for i, r in enumerate(g["rings"]):
        cols = [r]
        if "rings_z" in g:
            cols.append(g["rings_z"][i][:, None])
        if "rings_m" in g:
            cols.append(g["rings_m"][i][:, None])
        rings.append(np.hstack(cols))
    return gwkb.polygon_wkb_d(rings, dims)


def _child_wkb(g: dict) -> bytes:
    """Re-serialize a parsed child node (needed for GC recursion)."""
    t = g["type"]
    dims = g["dims"]
    if t == gwkb.POINT:
        return gwkb.point_wkb_d(_full(g), dims)
    if t == gwkb.LINESTRING:
        return gwkb.linestring_wkb_d(_full(g), dims)
    if t == gwkb.CIRCULARSTRING:
        return gwkb.circularstring_wkb(_full(g), dims)
    if t == gwkb.POLYGON:
        return linearize_polygon(g, dims)
    # every container: CompoundCurve, CurvePolygon, Multi*, collection
    return gwkb.collection_wkb(t, [_child_wkb(p) for p in g["parts"]], dims)
