"""General polygon overlay — Greiner–Hormann clipping.

Closes the concave×concave gap left by the convex Sutherland-Hodgman
path (stages/overlay.py): intersection / union / difference of two
SIMPLE polygons (possibly concave; holes and self-intersections out
of scope — documented), per Greiner & Hormann, "Efficient clipping of
arbitrary polygons", ACM TOG 1998.

Degeneracy handling: vanilla G-H breaks when vertices fall exactly on
the other polygon's edges. We detect degenerate intersections
(alpha ≈ 0/1 or collinear overlap) and retry with the CLIP polygon
perturbed by a tiny deterministic offset (documented tolerance — the
same pragmatic approach GDAL applications use via GEOS snap-rounding).

Result: list of closed rings (an overlay of simple polygons can have
several output components).
"""

from __future__ import annotations

import numpy as np

from gdal_ray.geom.ops import ring_area
from gdal_ray.geom.predicates import PolygonEdges

_EPS = 1e-12


class _V:
    __slots__ = ("xy", "next", "prev", "inter", "entry", "neighbor", "alpha",
                 "visited")

    def __init__(self, xy):
        self.xy = np.asarray(xy, dtype=np.float64)
        self.next = None
        self.prev = None
        self.inter = False
        self.entry = True
        self.neighbor = None
        self.alpha = 0.0
        self.visited = False


def _ring_list(coords) -> _V:
    coords = np.asarray(coords, dtype=np.float64)
    if (coords[0] == coords[-1]).all():
        coords = coords[:-1]
    verts = [_V(c) for c in coords]
    n = len(verts)
    for i, v in enumerate(verts):
        v.next = verts[(i + 1) % n]
        v.prev = verts[(i - 1) % n]
    return verts[0]


def _iter_ring(head: _V):
    v = head
    while True:
        yield v
        v = v.next
        if v is head:
            break


def _seg_intersect(p1, p2, q1, q2):
    """→ (alphaP, alphaQ) in (0,1)² if proper crossing, else None;
    'degenerate' string if touching/collinear within eps."""
    d1 = p2 - p1
    d2 = q2 - q1
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < _EPS:
        # parallel: check collinear overlap (degenerate)
        cross = d1[0] * (q1[1] - p1[1]) - d1[1] * (q1[0] - p1[0])
        if abs(cross) < _EPS:
            return "degenerate"
        return None
    t = ((q1[0] - p1[0]) * d2[1] - (q1[1] - p1[1]) * d2[0]) / denom
    u = ((q1[0] - p1[0]) * d1[1] - (q1[1] - p1[1]) * d1[0]) / denom
    tol = 1e-9
    if -tol < t < tol or 1 - tol < t < 1 + tol or -tol < u < tol or 1 - tol < u < 1 + tol:
        if -tol <= t <= 1 + tol and -tol <= u <= 1 + tol:
            return "degenerate"
        return None
    if 0 < t < 1 and 0 < u < 1:
        return (t, u)
    return None


def _insert_intersections(headP: _V, headQ: _V) -> int:
    """Insert paired intersection vertices; returns count; raises
    ValueError('degenerate') on touch/collinear cases."""
    count = 0
    pverts = list(_iter_ring(headP))
    qverts = list(_iter_ring(headQ))
    # collect per original edge, insert sorted by alpha afterwards
    for pv in pverts:
        p1, p2 = pv.xy, pv.next.xy if not pv.next.inter else None
        # find true next original vertex
        nxt = pv.next
        while nxt.inter:
            nxt = nxt.next
        p2 = nxt.xy
        if pv.inter:
            continue
        for qv in qverts:
            if qv.inter:
                continue
            qn = qv.next
            while qn.inter:
                qn = qn.next
            res = _seg_intersect(pv.xy, p2, qv.xy, qn.xy)
            if res == "degenerate":
                raise ValueError("degenerate")
            if res is None:
                continue
            t, u = res
            ip = _V(pv.xy + t * (p2 - pv.xy))
            iq = _V(ip.xy.copy())
            ip.inter = iq.inter = True
            ip.alpha, iq.alpha = t, u
            ip.neighbor, iq.neighbor = iq, ip
            _insert_sorted(pv, ip)
            _insert_sorted(qv, iq)
            count += 1
    return count


def _insert_sorted(orig: _V, nv: _V):
    """Insert nv after orig among the intersection vertices on orig's
    edge, ordered by alpha."""
    cur = orig
    while cur.next.inter and cur.next.alpha < nv.alpha:
        cur = cur.next
    nv.next = cur.next
    nv.prev = cur
    cur.next.prev = nv
    cur.next = nv


def _mark_entries(head: _V, other_ring: np.ndarray, forward_inside_keep: bool):
    """Alternate entry/exit flags starting from whether the first
    vertex is outside the other polygon."""
    edges = PolygonEdges([other_ring])
    first = head
    inside = bool(edges.contains_points(
        np.array([first.xy[0]]), np.array([first.xy[1]])
    )[0])
    status = not inside  # next intersection is an ENTRY iff we start outside
    for v in _iter_ring(head):
        if v.inter:
            v.entry = status
            status = not status


def _collect(headP: _V, opP_forward: bool, opQ_forward: bool):
    """Trace result rings."""
    rings = []
    for start in _iter_ring(headP):
        if not start.inter or start.visited:
            continue
        ring = []
        cur = start
        on_p = True
        while True:
            cur.visited = True
            if cur.neighbor is not None:
                cur.neighbor.visited = True
            if cur.entry:
                while True:
                    cur = cur.next
                    ring.append(cur.xy)
                    if cur.inter:
                        break
            else:
                while True:
                    cur = cur.prev
                    ring.append(cur.xy)
                    if cur.inter:
                        break
            cur = cur.neighbor
            on_p = not on_p
            if cur is start or cur.neighbor is start or cur.visited and (
                abs(cur.xy[0] - start.xy[0]) < _EPS
                and abs(cur.xy[1] - start.xy[1]) < _EPS
            ):
                break
        if len(ring) >= 3:
            r = np.array(ring)
            rings.append(np.vstack([r, r[:1]]))
    return rings


def _interior_point(ring: np.ndarray, all_ys: np.ndarray) -> np.ndarray:
    """A point strictly inside a simple ring: midpoint of the first
    horizontal-chord crossing pair. The chord height is the midpoint of
    two ADJACENT values in the combined vertex-y set of every result
    ring, so it avoids all rings' horizontal edges (a chord at a vertex
    height of another ring breaks the subsequent containment test)."""
    ymin = ring[:, 1].min()
    above = all_ys[all_ys > ymin + 1e-300]
    ystar = 0.5 * (ymin + above[0]) if len(above) else ymin
    p = ring[:-1]
    q = np.roll(p, -1, axis=0)
    xs = []
    for (x1, y1), (x2, y2) in zip(p, q):
        if (y1 <= ystar) != (y2 <= ystar):
            t = (ystar - y1) / (y2 - y1)
            xs.append(x1 + t * (x2 - x1))
    xs.sort()
    if len(xs) < 2:
        return np.array([ring[:, 0].mean(), ystar])
    return np.array([0.5 * (xs[0] + xs[1]), ystar])


def _orient_nested(rings: list[np.ndarray]) -> list[np.ndarray]:
    """Orient result rings by containment depth: depth-even rings are
    shells (CCW, positive area), depth-odd rings are holes (CW) — the
    traversal's own orientation is direction-of-walk dependent and NOT
    reliable (a union of interlocking concave polygons emits its hole
    ring in either direction). Signed-area sums are then correct."""
    if len(rings) <= 1:
        return [r if ring_area(r) > 0 else r[::-1] for r in rings]
    all_ys = np.unique(np.concatenate([r[:, 1] for r in rings]))
    pts = np.array([_interior_point(r, all_ys) for r in rings])
    # every ring's interior point against every other ring, one call
    i, j = np.nonzero(~np.eye(len(rings), dtype=bool))
    inside = PolygonEdges.stack([[r] for r in rings]).contains(
        pts[i, 0], pts[i, 1], j)
    depths = np.bincount(i[inside], minlength=len(rings))
    out = []
    for r, depth in zip(rings, depths):
        want_ccw = depth % 2 == 0
        a = ring_area(r)
        if (a > 0) != want_ccw:
            r = r[::-1]
        out.append(r)
    return out


def _ensure_ccw(coords: np.ndarray) -> np.ndarray:
    c = np.asarray(coords, dtype=np.float64)
    if (c[0] != c[-1]).any():
        c = np.vstack([c, c[:1]])
    if ring_area(c) < 0:
        c = c[::-1]
    return c


def polygon_intersection(subject, clip, _retry: int = 0) -> list[np.ndarray]:
    """Intersection of two simple polygons → list of closed rings."""
    S = _ensure_ccw(subject)
    C = _ensure_ccw(clip)
    headP = _ring_list(S)
    headQ = _ring_list(C)
    try:
        n = _insert_intersections(headP, headQ)
    except ValueError:
        if _retry >= 3:
            raise ValueError("degenerate polygon overlay (touching edges)")
        # deterministic tiny perturbation of the clip polygon
        span = max(C[:, 0].ptp(), C[:, 1].ptp(), 1.0)
        delta = span * (1e-9 * (_retry + 1))
        return polygon_intersection(S, C[:-1] + delta, _retry + 1)
    if n == 0:
        # no crossings: containment or disjoint
        eS = PolygonEdges([S])
        eC = PolygonEdges([C])
        if eC.contains_points(np.array([S[0, 0]]), np.array([S[0, 1]]))[0]:
            return [S]
        if eS.contains_points(np.array([C[0, 0]]), np.array([C[0, 1]]))[0]:
            return [C]
        return []
    _mark_entries(headP, C, True)
    _mark_entries(headQ, S, True)
    return _collect(headP, True, True)


def intersection_area(subject, clip) -> float:
    return sum(abs(ring_area(r)) for r in polygon_intersection(subject, clip))


def _overlay(subject, clip, invert_s: bool, invert_c: bool, mode: str,
             _retry: int = 0) -> list[np.ndarray]:
    """Shared G-H driver; entry-flag inversion selects the op
    (Greiner-Hormann §4: intersection / union / difference are the
    same traversal under flipped entry marks)."""
    S = _ensure_ccw(subject)
    C = _ensure_ccw(clip)
    headP = _ring_list(S)
    headQ = _ring_list(C)
    try:
        n = _insert_intersections(headP, headQ)
    except ValueError:
        if _retry >= 3:
            raise ValueError("degenerate polygon overlay (touching edges)")
        span = max(C[:, 0].ptp(), C[:, 1].ptp(), 1.0)
        return _overlay(S, C[:-1] + span * 1e-9 * (_retry + 1),
                        invert_s, invert_c, mode, _retry + 1)
    if n == 0:
        eS = PolygonEdges([S])
        eC = PolygonEdges([C])
        s_in_c = bool(eC.contains_points(np.array([S[0, 0]]), np.array([S[0, 1]]))[0])
        c_in_s = bool(eS.contains_points(np.array([C[0, 0]]), np.array([C[0, 1]]))[0])
        if mode == "union":
            if s_in_c:
                return [C]
            if c_in_s:
                return [S]
            return [S, C]
        if mode == "difference":
            if s_in_c:
                return []
            if c_in_s:
                # hole: return exterior + CW hole ring
                return [S, C[::-1]]
            return [S]
        raise AssertionError(mode)
    _mark_entries(headP, C, True)
    _mark_entries(headQ, S, True)
    if invert_s:
        for v in _iter_ring(headP):
            if v.inter:
                v.entry = not v.entry
    if invert_c:
        for v in _iter_ring(headQ):
            if v.inter:
                v.entry = not v.entry
    rings = _collect(headP, True, True)
    return _orient_nested(rings)


def polygon_union(subject, clip) -> list[np.ndarray]:
    """Union of two simple polygons (GEOS Union, ogrgeometry.cpp:4986).

    Disjoint inputs → both rings; overlapping → merged outline(s)."""
    return _overlay(subject, clip, True, True, "union")


def polygon_difference(subject, clip) -> list[np.ndarray]:
    """subject − clip (GEOS Difference, ogrgeometry.cpp:5304).

    A fully-contained clip returns [exterior, reversed-clip]: the CW
    second ring is the hole (signed-area convention)."""
    return _overlay(subject, clip, True, False, "difference")


def union_area(subject, clip) -> float:
    # rings are containment-oriented (shells CCW, holes CW): the signed
    # sum IS the union area, including the interlocking-concave hole case
    return sum(ring_area(r) for r in polygon_union(subject, clip))


def difference_area(subject, clip) -> float:
    # signed sum: CW hole rings subtract
    return sum(ring_area(r) for r in polygon_difference(subject, clip))


def polygon_symdifference(a, b) -> list[np.ndarray]:
    """(A−B) ∪ (B−A) by composition (GEOS SymDifference,
    ogrgeometry.cpp:5423). Result ring lists concatenate — the two
    difference regions are disjoint by construction."""
    return polygon_difference(a, b) + polygon_difference(b, a)


def symdifference_area(a, b) -> float:
    return sum(ring_area(r) for r in polygon_symdifference(a, b))


def polygon_intersection_holes(rings_a, rings_b):
    """Intersection of polygons WITH holes (lifts the round-1 v0
    exclusion): shell∩shell pieces via the Greiner-Hormann core, then
    every hole of either input is subtracted from each piece
    (sequential difference, holes attached to containing shells).
    → list of (shell, [holes]) with containment orientation."""
    from gdal_ray.stages.overlay import _rings_to_polygons

    shells = polygon_intersection(
        np.asarray(rings_a[0], np.float64), np.asarray(rings_b[0], np.float64)
    )
    pieces = [(s if ring_area(s) > 0 else s[::-1], []) for s in shells
              if abs(ring_area(s)) > 1e-12]
    for hole in list(rings_a[1:]) + list(rings_b[1:]):
        h = np.asarray(hole, np.float64)
        if ring_area(h) < 0:
            h = h[::-1]  # difference expects a CCW clip ring
        nxt = []
        for shell, holes in pieces:
            out_rings = polygon_difference(shell, h)
            for s2, h2 in _rings_to_polygons(out_rings):
                nxt.append((s2, holes + h2))
        pieces = nxt
        if not pieces:
            break
    return pieces


def polygon_area_holes(pieces) -> float:
    """Area of a (shell, holes) piece list."""
    return float(sum(
        abs(ring_area(s)) - sum(abs(ring_area(h)) for h in hs)
        for s, hs in pieces))
