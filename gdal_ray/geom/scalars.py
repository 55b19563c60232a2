"""Geometry scalar completeness: Distance, IsSimple, Touches /
Crosses / Overlaps, Delaunay triangulation, ConcaveHull — the
remaining OGRGeometry scalar surface (reference roles:
ogr/ogrgeometry.cpp:3536 Distance, :2393 IsSimple, :5631/:5959
Touches/Crosses/Overlaps, DelaunayTriangulation/ConcaveHull via
GEOS).  All pure numpy; the relate predicates cover the
point/line/polygon cases the engine's data model uses and are
documented per case (not a full DE-9IM matrix engine)."""

from __future__ import annotations

import numpy as np

from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom.clip import PolygonEdges
from gdal_ray.geom.ops import ring_area
from gdal_ray.geom.predicates import CHUNK

_EPS = 1e-12


# ------------------------------------------------------------- distance
def _blocks(n: int, m: int):
    """(row, column) slices that tile an n × m pair grid in blocks of
    at most ``CHUNK`` elements, so no n × m temporary is built."""
    cols = max(1, min(m, CHUNK))
    rows = max(1, CHUNK // cols)
    for j in range(0, m, cols):
        for i in range(0, n, rows):
            yield slice(i, i + rows), slice(j, j + cols)


def _seg_point_dist(px, py, ax, ay, bx, by):
    """Per point (px, py), the minimum distance to the segments (a, b),
    over (point, segment) blocks of at most ``CHUNK`` elements."""
    out = np.full(len(px), np.inf)
    for i, j in _blocks(len(px), len(ax)):
        abx = bx[j] - ax[j]
        aby = by[j] - ay[j]
        den = abx * abx + aby * aby
        qx, qy = px[i, None], py[i, None]
        t = np.where(
            den > 0,
            ((qx - ax[j]) * abx + (qy - ay[j]) * aby) / np.where(den > 0, den, 1.0),
            0.0,
        )
        t = np.clip(t, 0.0, 1.0)
        dx = qx - (ax[j] + t * abx)
        dy = qy - (ay[j] + t * aby)
        np.minimum(out[i], np.sqrt(dx * dx + dy * dy).min(axis=1), out=out[i])
    return out


def _segments_intersect_any(a0, a1, b0, b1):
    """True if any segment of chain A intersects any of chain B
    (vectorized orientation tests over blocks of the pair matrix)."""
    return any(
        _segments_intersect_block(a0[i], a1[i], b0[j], b1[j])
        for i, j in _blocks(len(a0), len(b0))
    )


def _segments_intersect_block(a0, a1, b0, b1):
    """``_segments_intersect_any`` over one block of segment pairs."""

    def cross_to(px, py, qx, qy, rx, ry):
        return (qx - px)[:, None] * (ry[None, :] - py[:, None]) - (
            qy - py
        )[:, None] * (rx[None, :] - px[:, None])

    o1 = cross_to(a0[:, 0], a0[:, 1], a1[:, 0], a1[:, 1], b0[:, 0], b0[:, 1])
    o2 = cross_to(a0[:, 0], a0[:, 1], a1[:, 0], a1[:, 1], b1[:, 0], b1[:, 1])
    o3 = cross_to(b0[:, 0], b0[:, 1], b1[:, 0], b1[:, 1], a0[:, 0], a0[:, 1]).T
    o4 = cross_to(b0[:, 0], b0[:, 1], b1[:, 0], b1[:, 1], a1[:, 0], a1[:, 1]).T
    proper = ((o1 * o2) < 0) & ((o3 * o4) < 0)
    touch = (
        (np.abs(o1) < _EPS) | (np.abs(o2) < _EPS)
        | (np.abs(o3) < _EPS) | (np.abs(o4) < _EPS)
    )
    # touch needs a bbox overlap check to rule out collinear-but-apart
    axmin = np.minimum(a0[:, 0], a1[:, 0])[:, None]
    axmax = np.maximum(a0[:, 0], a1[:, 0])[:, None]
    aymin = np.minimum(a0[:, 1], a1[:, 1])[:, None]
    aymax = np.maximum(a0[:, 1], a1[:, 1])[:, None]
    bxmin = np.minimum(b0[:, 0], b1[:, 0])[None, :]
    bxmax = np.maximum(b0[:, 0], b1[:, 0])[None, :]
    bymin = np.minimum(b0[:, 1], b1[:, 1])[None, :]
    bymax = np.maximum(b0[:, 1], b1[:, 1])[None, :]
    bbox = (
        (axmin <= bxmax + _EPS) & (bxmin <= axmax + _EPS)
        & (aymin <= bymax + _EPS) & (bymin <= aymax + _EPS)
    )
    return bool((proper | (touch & bbox & (o1 * o2 <= _EPS) & (o3 * o4 <= _EPS))).any())


def _decompose(buf: bytes):
    """WKB → (points (n,2), segment chains [list of (m,2)], rings)."""
    g = gwkb.parse(buf)
    t = g["type"]
    if t == gwkb.POINT:
        return g["coords"], [], []
    if t == gwkb.LINESTRING:
        return np.zeros((0, 2)), [g["coords"]], []
    if t == gwkb.POLYGON:
        return np.zeros((0, 2)), [], g["rings"]
    if t in (gwkb.MULTIPOINT, gwkb.MULTILINESTRING, gwkb.MULTIPOLYGON,
             gwkb.GEOMETRYCOLLECTION):
        pts, chains, rings = [np.zeros((0, 2))], [], []
        for part in g["parts"]:
            if part["type"] == gwkb.POINT:
                pts.append(part["coords"])
            elif part["type"] == gwkb.LINESTRING:
                chains.append(part["coords"])
            elif part["type"] == gwkb.POLYGON:
                rings.extend(part["rings"])
        return np.vstack(pts), chains, rings
    raise ValueError(f"unsupported geometry type {t}")


def _all_segments(chains, rings):
    a0s, a1s = [], []
    for c in chains:
        if len(c) >= 2:
            a0s.append(c[:-1])
            a1s.append(c[1:])
    for r in rings:
        rr = r if (r[0] == r[-1]).all() else np.vstack([r, r[:1]])
        a0s.append(rr[:-1])
        a1s.append(rr[1:])
    if not a0s:
        z = np.zeros((0, 2))
        return z, z
    return np.vstack(a0s), np.vstack(a1s)


def _rep_points(pts, chains, rings):
    out = [pts] if len(pts) else []
    out += [c for c in chains]
    out += [r for r in rings]
    return np.vstack(out) if out else np.zeros((0, 2))


def _any_point_in_rings(pts: np.ndarray, rings) -> bool:
    if len(pts) == 0 or not rings:
        return False
    # even-odd over exterior+holes (matches the engine's PIP kernel)
    inside = PolygonEdges(rings).contains_points(pts[:, 0], pts[:, 1])
    return bool(inside.any())


def distance(buf_a: bytes, buf_b: bytes) -> float:
    """Minimum planar distance between two geometries
    (OGRGeometry::Distance, ogrgeometry.cpp:3536): 0 if they
    intersect (including containment), else the min over all
    point/segment element pairs."""
    pa_, ca, ra = _decompose(buf_a)
    pb, cb, rb = _decompose(buf_b)
    # containment / crossing → 0
    if _any_point_in_rings(_rep_points(pb, cb, rb), ra):
        return 0.0
    if _any_point_in_rings(_rep_points(pa_, ca, ra), rb):
        return 0.0
    a0, a1 = _all_segments(ca, ra)
    b0, b1 = _all_segments(cb, rb)
    if len(a0) and len(b0) and _segments_intersect_any(a0, a1, b0, b1):
        return 0.0
    best = np.inf
    apts = _rep_points(pa_, ca, ra)
    bpts = _rep_points(pb, cb, rb)
    if len(apts) and len(b0):
        best = min(best, float(_seg_point_dist(
            apts[:, 0], apts[:, 1], b0[:, 0], b0[:, 1], b1[:, 0], b1[:, 1]
        ).min()))
    if len(bpts) and len(a0):
        best = min(best, float(_seg_point_dist(
            bpts[:, 0], bpts[:, 1], a0[:, 0], a0[:, 1], a1[:, 0], a1[:, 1]
        ).min()))
    for i, j in _blocks(len(apts), len(bpts)):
        d = apts[i, None, :] - bpts[None, j, :]
        best = min(best, float(np.sqrt((d * d).sum(-1)).min()))
    return best


def intersects(buf_a: bytes, buf_b: bytes) -> bool:
    """OGRGeometry::Intersects (ogrgeometry.cpp:4073 delegates to
    GEOS): true iff the geometries share at least one point. Exactly
    the distance == 0 cases of ``distance`` (containment, segment
    crossing, or touching within tolerance)."""
    return distance(buf_a, buf_b) <= _EPS


def within(buf_a: bytes, buf_b: bytes) -> bool:
    """OGRGeometry::Within (a ⊆ b, b polygonal): every vertex and
    segment midpoint of ``a`` lies inside-or-on ``b`` (even-odd,
    boundary-inclusive) and at least one probe is strictly interior.
    Midpoint sampling stands in for the exact interior-exterior
    emptiness test; exact for convex ``b`` and for all point/segment
    inputs, approximate only for a concave ``b`` whose boundary dips
    between a segment's sampled points (documented engine tolerance).
    """
    pa_, ca, ra = _decompose(buf_a)
    _, _, rb = _decompose(buf_b)
    if not rb:
        return False
    probe = [_rep_points(pa_, ca, ra)]
    for c in ca:
        if len(c) >= 2:
            probe.append((c[:-1] + c[1:]) / 2.0)
    for r in ra:
        rr = r if (r[0] == r[-1]).all() else np.vstack([r, r[:1]])
        probe.append((rr[:-1] + rr[1:]) / 2.0)
    pts = np.vstack(probe)
    if len(pts) == 0:
        return False
    edges = PolygonEdges(rb)
    inside = edges.contains_points(pts[:, 0], pts[:, 1])
    if not inside.all():
        return False
    # interiors must intersect: some probe strictly off b's boundary
    s0, s1 = _all_segments([], rb)
    d = _seg_point_dist(
        pts[:, 0], pts[:, 1], s0[:, 0], s0[:, 1], s1[:, 0], s1[:, 1]
    )
    return bool((inside & (d > _EPS)).any())


def contains(buf_a: bytes, buf_b: bytes) -> bool:
    """OGRGeometry::Contains = Within with the operands swapped."""
    return within(buf_b, buf_a)


def distance_points_to_line(px, py, line: np.ndarray) -> np.ndarray:
    """Vectorized distance from many points to one polyline."""
    a = line[:-1]
    b = line[1:]
    return _seg_point_dist(
        np.asarray(px, np.float64), np.asarray(py, np.float64),
        a[:, 0], a[:, 1], b[:, 0], b[:, 1],
    )


# ------------------------------------------------------------ is_simple
def is_simple(buf: bytes) -> bool:
    """OGRGeometry::IsSimple (ogrgeometry.cpp:2393): no
    self-intersection in the linework (points are always simple;
    a closed ring touching itself only at the closure point is
    simple)."""
    from gdal_ray.geom.ops import _self_intersections

    g = gwkb.parse(buf)
    t = g["type"]
    if t == gwkb.POINT:
        return True
    if t == gwkb.MULTIPOINT:
        pts = np.vstack([p["coords"] for p in g["parts"]])
        return len(np.unique(pts, axis=0)) == len(pts)
    if t == gwkb.LINESTRING:
        c = g["coords"]
        closed = (c[0] == c[-1]).all()
        ring = c[:-1] if closed else c
        return len(_self_intersections(ring if closed else c)) == 0
    if t == gwkb.POLYGON:
        for r in g["rings"]:
            rr = r[:-1] if (r[0] == r[-1]).all() else r
            if _self_intersections(rr):
                return False
        return True
    if t in (gwkb.MULTILINESTRING, gwkb.MULTIPOLYGON, gwkb.GEOMETRYCOLLECTION):
        return all(is_simple_part(p) for p in g["parts"])
    raise ValueError(f"unsupported geometry type {t}")


def is_simple_part(parsed: dict) -> bool:
    if parsed["type"] == gwkb.POINT:
        return True
    if parsed["type"] == gwkb.LINESTRING:
        return is_simple(gwkb.linestring_wkb(parsed["coords"]))
    if parsed["type"] == gwkb.POLYGON:
        return is_simple(
            gwkb.polygon_wkb(parsed["rings"][0], parsed["rings"][1:])
        )
    return True


# ------------------------------------------------- relate predicates
def _poly_poly_interior_overlap(ra, rb) -> bool:
    """Interiors intersect: any vertex of one strictly inside the
    other, or any proper edge crossing."""
    from gdal_ray.geom.clip import polygon_intersection

    try:
        inter = polygon_intersection(
            np.asarray(ra[0], np.float64), np.asarray(rb[0], np.float64)
        )
        area = sum(abs(ring_area(r)) for r in inter)
        return area > _EPS
    except Exception:
        # fall back: sampled vertex containment
        return _any_point_in_rings(ra[0][:-1], rb) or _any_point_in_rings(
            rb[0][:-1], ra
        )


def touches(buf_a: bytes, buf_b: bytes) -> bool:
    """Boundaries intersect, interiors do not
    (OGRGeometry::Touches, ogrgeometry.cpp:5631). Cases: poly/poly,
    line/poly, point/poly, line/line endpoints."""
    if distance(buf_a, buf_b) > _EPS:
        return False
    pa_, ca, ra = _decompose(buf_a)
    pb, cb, rb = _decompose(buf_b)
    if ra and rb:
        return not _poly_poly_interior_overlap(ra, rb)
    if ra or rb:
        rings = ra if ra else rb
        other_pts, other_chains = (pb, cb) if ra else (pa_, ca)
        # interior hit = any point strictly inside (not on boundary)
        probe = _rep_points(other_pts, other_chains, [])
        if len(probe) == 0:
            return False
        inside = PolygonEdges(rings).contains_points(probe[:, 0], probe[:, 1])
        seg = _all_segments([], rings)
        d = _seg_point_dist(
            probe[:, 0], probe[:, 1], seg[0][:, 0], seg[0][:, 1],
            seg[1][:, 0], seg[1][:, 1],
        )
        strictly_in = inside & (d > _EPS)
        if strictly_in.any():
            return False
        # line midpoints crossing into the interior
        for c in other_chains:
            mids = (c[:-1] + c[1:]) / 2.0
            mi = PolygonEdges(rings).contains_points(mids[:, 0], mids[:, 1])
            md = _seg_point_dist(
                mids[:, 0], mids[:, 1], seg[0][:, 0], seg[0][:, 1],
                seg[1][:, 0], seg[1][:, 1],
            )
            if (mi & (md > _EPS)).any():
                return False
        return True
    if ca and cb:
        # lines touch if they meet only at endpoints of at least one
        a = ca[0]
        b = cb[0]
        ends = np.vstack([a[0], a[-1], b[0], b[-1]])
        da = distance_points_to_line(ends[:, 0], ends[:, 1], a)
        db = distance_points_to_line(ends[:, 0], ends[:, 1], b)
        meet = (da < _EPS) & (db < _EPS)
        return bool(meet.any()) and not crosses(buf_a, buf_b)
    return False


def crosses(buf_a: bytes, buf_b: bytes) -> bool:
    """OGRGeometry::Crosses (ogrgeometry.cpp:5959). Cases:
    line/line proper interior crossing; line/polygon (line has points
    strictly inside AND strictly outside)."""
    pa_, ca, ra = _decompose(buf_a)
    pb, cb, rb = _decompose(buf_b)
    if ca and cb and not (ra or rb):
        a = ca[0]
        b = cb[0]
        a0, a1 = a[:-1], a[1:]
        b0, b1 = b[:-1], b[1:]
        return any(_proper_cross(a0[i], a1[i], b0[j], b1[j])
                   for i, j in _blocks(len(a0), len(b0)))
    if (ca and rb) or (cb and ra):
        line = ca[0] if ca else cb[0]
        rings = rb if rb else ra
        # sample: vertices + segment midpoints
        mids = (line[:-1] + line[1:]) / 2.0
        probe = np.vstack([line, mids])
        inside = PolygonEdges(rings).contains_points(probe[:, 0], probe[:, 1])
        seg = _all_segments([], rings)
        d = _seg_point_dist(
            probe[:, 0], probe[:, 1], seg[0][:, 0], seg[0][:, 1],
            seg[1][:, 0], seg[1][:, 1],
        )
        strict_in = inside & (d > _EPS)
        strict_out = (~inside) & (d > _EPS)
        return bool(strict_in.any() and strict_out.any())
    return False


def _proper_cross(a0, a1, b0, b1) -> bool:
    """Some segment a0→a1 crosses some segment b0→b1 properly: strict
    sign changes on both segments."""
    o1 = np.cross((a1 - a0)[:, None, :], (b0[None, :, :] - a0[:, None, :]))
    o2 = np.cross((a1 - a0)[:, None, :], (b1[None, :, :] - a0[:, None, :]))
    o3 = np.cross((b1 - b0)[None, :, :], (a0[:, None, :] - b0[None, :, :]))
    o4 = np.cross((b1 - b0)[None, :, :], (a1[:, None, :] - b0[None, :, :]))
    return bool((((o1 * o2) < -_EPS) & ((o3 * o4) < -_EPS)).any())


def overlaps(buf_a: bytes, buf_b: bytes) -> bool:
    """OGRGeometry::Overlaps: same-dimension interiors intersect and
    neither contains the other. Case: polygon/polygon via the clip
    engine's intersection area."""
    _pa, _ca, ra = _decompose(buf_a)
    _pb, _cb, rb = _decompose(buf_b)
    if not (ra and rb):
        return False
    from gdal_ray.geom.clip import polygon_intersection

    inter = polygon_intersection(
        np.asarray(ra[0], np.float64), np.asarray(rb[0], np.float64)
    )
    ia = sum(abs(ring_area(r)) for r in inter)
    if ia <= _EPS:
        return False
    aa = abs(ring_area(np.asarray(ra[0], np.float64)))
    ab = abs(ring_area(np.asarray(rb[0], np.float64)))
    return ia < aa - _EPS and ia < ab - _EPS


# --------------------------------------------------------- triangulation
def delaunay(points: np.ndarray) -> np.ndarray:
    """Delaunay triangulation (Bowyer-Watson), deterministic.
    → (T, 3) int array of point indices (CCW triangles).
    OGRGeometry::DelaunayTriangulation role (GEOS delegate in the
    reference)."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < 3:
        return np.zeros((0, 3), dtype=np.int64)
    # deterministic micro-jitter (index-hashed, ~1e-10 of the span):
    # breaks exact collinearity/cocircularity so no zero-area
    # triangles are dropped mid-build (which would hole the
    # triangulation); output indices are unaffected for points in
    # general position
    span0 = max(float(np.ptp(pts, axis=0).max()), 1.0)
    hidx = (np.arange(n, dtype=np.uint64) * np.uint64(2654435761)) % np.uint64(
        1 << 32
    )
    hidy = (np.arange(n, dtype=np.uint64) * np.uint64(40503)) % np.uint64(
        1 << 32
    )
    pts = pts + np.column_stack(
        [
            (hidx.astype(np.float64) / 2**32 - 0.5) * span0 * 1e-10,
            (hidy.astype(np.float64) / 2**32 - 0.5) * span0 * 1e-10,
        ]
    )
    # super-triangle
    mn = pts.min(axis=0)
    mx = pts.max(axis=0)
    c = (mn + mx) / 2.0
    span = max(float((mx - mn).max()), 1.0) * 64.0
    sup = np.array(
        [
            [c[0] - span, c[1] - span / 2],
            [c[0] + span, c[1] - span / 2],
            [c[0], c[1] + span],
        ]
    )
    allp = np.vstack([pts, sup])
    tris = [(n, n + 1, n + 2)]

    def circum_contains(tri, p):
        a, b, cc = allp[tri[0]], allp[tri[1]], allp[tri[2]]
        # in-circumcircle determinant (requires CCW triangle)
        m = np.array(
            [
                [a[0] - p[0], a[1] - p[1], (a[0] - p[0]) ** 2 + (a[1] - p[1]) ** 2],
                [b[0] - p[0], b[1] - p[1], (b[0] - p[0]) ** 2 + (b[1] - p[1]) ** 2],
                [cc[0] - p[0], cc[1] - p[1], (cc[0] - p[0]) ** 2 + (cc[1] - p[1]) ** 2],
            ]
        )
        return np.linalg.det(m) > 0

    def ccw(tri):
        a, b, cc = allp[tri[0]], allp[tri[1]], allp[tri[2]]
        return (b[0] - a[0]) * (cc[1] - a[1]) - (b[1] - a[1]) * (cc[0] - a[0])

    # deterministic insertion order
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    for ip in order:
        p = pts[ip]
        bad = []
        for t in tris:
            tt = t if ccw(t) > 0 else (t[0], t[2], t[1])
            if circum_contains(tt, p):
                bad.append(t)
        # polygon hole boundary = edges appearing once among bad tris
        edge_count: dict = {}
        for t in bad:
            for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                k = (min(e), max(e))
                edge_count[k] = edge_count.get(k, 0) + 1
        boundary = [e for e, cnt in edge_count.items() if cnt == 1]
        tris = [t for t in tris if t not in bad]
        for e in boundary:
            t = (e[0], e[1], int(ip))
            if ccw(t) < 0:
                t = (e[1], e[0], int(ip))
            if abs(ccw(t)) > _EPS:
                tris.append(t)
    out = [
        t for t in tris if max(t) < n
    ]
    return np.array(sorted(tuple(sorted(t)) for t in out), dtype=np.int64).reshape(-1, 3) if out else np.zeros((0, 3), np.int64)


def concave_hull(points: np.ndarray, ratio: float = 0.3) -> np.ndarray:
    """Concave hull via the chi-shape algorithm on the Delaunay
    triangulation (GEOS ConcaveHull role): starting from the convex
    hull (the triangulation border), repeatedly remove the longest
    border edge whose length exceeds
    ``min_edge + ratio * (max_edge - min_edge)``, when removal keeps
    the boundary simple. ratio=1 → convex hull. → closed CCW ring."""
    pts = np.asarray(points, dtype=np.float64)
    tris = delaunay(pts)
    if len(tris) == 0:
        from gdal_ray.geom.ops import convex_hull

        return convex_hull(pts)
    # edge → triangles map
    edge_tris: dict = {}
    for ti, t in enumerate(tris):
        for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            k = (min(e), max(e))
            edge_tris.setdefault(k, []).append(ti)
    alive = np.ones(len(tris), dtype=bool)

    def border_edges():
        out = []
        for k, ts in edge_tris.items():
            live = [t for t in ts if alive[t]]
            if len(live) == 1:
                out.append((k, live[0]))
        return out

    def elen(e):
        return float(np.linalg.norm(pts[e[0]] - pts[e[1]]))

    lens = [elen(k) for k in edge_tris]
    lmin, lmax = min(lens), max(lens)
    thresh = lmin + ratio * (lmax - lmin)
    changed = True
    while changed:
        changed = False
        border = border_edges()
        # boundary vertex set
        bverts = set()
        for e, _t in border:
            bverts.add(e[0])
            bverts.add(e[1])
        border.sort(key=lambda et: -elen(et[0]))
        for e, ti in border:
            if elen(e) <= thresh:
                break
            t = tris[ti]
            opp = [v for v in t if v not in e][0]
            if opp in bverts:
                continue  # removal would pinch the boundary
            alive[ti] = False
            changed = True
            break
    # assemble boundary ring
    border = [e for e, _t in border_edges()]
    nxt: dict = {}
    for a, b in border:
        nxt.setdefault(a, []).append(b)
        nxt.setdefault(b, []).append(a)
    start = border[0][0]
    ring = [start]
    prev = None
    cur = start
    for _ in range(len(border)):
        cands = [v for v in nxt[cur] if v != prev]
        if not cands:
            break
        prev, cur = cur, cands[0]
        ring.append(cur)
        if cur == start:
            break
    coords = pts[np.array(ring)]
    if ring_area(coords) < 0:
        coords = coords[::-1]
    return coords
