"""Topology-preserving coverage simplification
(`gdal vector simplify-coverage`, apps/gdalalg_vector_simplify_coverage.cpp
— GEOS CoverageSimplifier semantics: polygons sharing edges stay
seamless after simplification).

Algorithm (the standard coverage decomposition):
1. decompose every ring into directed edges; normalize each edge to an
   undirected key → shared edges appear in ≥2 rings;
2. NODES = vertices incident to edges of differing sharing-sets (chain
   breakpoints) — junctions where ≥3 polygons meet, or transitions
   between shared and unshared stretches;
3. split rings into CHAINS between nodes; each undirected chain is
   simplified ONCE (Douglas-Peucker, endpoints pinned) and the result
   substituted into every polygon that references it (forward or
   reversed) — neighbors therefore keep bit-identical shared borders
   (the seamlessness contract);
4. rebuild rings from the simplified chains.

Scope: polygonal coverages without overlaps; holes treated as rings.
"""

from __future__ import annotations

import numpy as np

from gdal_ray.geom.ops import simplify_coords


def _vkey(p) -> tuple:
    return (float(p[0]), float(p[1]))


def _ekey(a, b) -> tuple:
    ka, kb = _vkey(a), _vkey(b)
    return (ka, kb) if ka <= kb else (kb, ka)


def simplify_coverage(rings: list[np.ndarray], tolerance: float) -> list[np.ndarray]:
    """rings: list of closed (n,2) rings forming a coverage →
    simplified rings with shared borders kept identical."""
    # open rings (closure vertex dropped; wrap indices instead)
    rings = [
        np.asarray(r, dtype=np.float64)[:-1]
        if (np.asarray(r)[0] == np.asarray(r)[-1]).all()
        else np.asarray(r, dtype=np.float64)
        for r in rings
    ]
    # 1. edge sharing census
    edge_owners: dict[tuple, list[int]] = {}
    for ri, r in enumerate(rings):
        n = len(r)
        for i in range(n):
            edge_owners.setdefault(_ekey(r[i], r[(i + 1) % n]), []).append(ri)
    # 2. per-vertex incident sharing signature -> nodes
    def edge_sig(a, b):
        return tuple(sorted(edge_owners[_ekey(a, b)]))

    nodes: set[tuple] = set()
    for r in rings:
        n = len(r)
        for i in range(n):
            prev_sig = edge_sig(r[i - 1], r[i])
            next_sig = edge_sig(r[i], r[(i + 1) % n])
            if prev_sig != next_sig:
                nodes.add(_vkey(r[i]))
    # 3. split rings into chains between nodes; simplify each chain once
    simplified_chains: dict[tuple, np.ndarray] = {}

    def chain_key(chain: np.ndarray) -> tuple:
        a, b = _vkey(chain[0]), _vkey(chain[-1])
        mid = _vkey(chain[len(chain) // 2])
        return (a, b, len(chain), mid) if (a, b) <= (b, a) else (b, a, len(chain), mid)

    out_rings = []
    for r in rings:
        n = len(r)
        node_idx = [i for i in range(n) if _vkey(r[i]) in nodes]
        if not node_idx:
            # ring has no shared stretches: plain DP on the closed ring
            s = simplify_coords(np.vstack([r, r[:1]]), tolerance)
            out_rings.append(s)
            continue
        pieces = []
        k = len(node_idx)
        for j in range(k):
            i0 = node_idx[j]
            i1 = node_idx[(j + 1) % k]
            if i1 > i0:
                chain = r[i0 : i1 + 1]
            else:
                chain = np.vstack([r[i0:n], r[: i1 + 1]])
            # canonical orientation so both owners simplify identically
            fwd = _vkey(chain[0]) <= _vkey(chain[-1])
            canon = chain if fwd else chain[::-1]
            ck = chain_key(canon)
            if ck not in simplified_chains:
                simplified_chains[ck] = simplify_coords(canon, tolerance)
            s = simplified_chains[ck]
            pieces.append(s if fwd else s[::-1])
        ring = np.vstack([p[:-1] for p in pieces] + [pieces[-1][-1:]])
        # re-close
        if (ring[0] != ring[-1]).any():
            ring = np.vstack([ring, ring[:1]])
        out_rings.append(ring)
    return out_rings


# ------------------------------------------------------------ validation
def check_geometry(buf: bytes) -> list[str]:
    """Per-geometry validity report — the `gdal vector check-geometry`
    role (OGC validity subset: ring closure, minimum point counts,
    duplicate consecutive vertices, ring self-intersection, hole
    orientation). → list of error strings (empty = valid)."""
    from gdal_ray.geom import wkb as gwkb
    from gdal_ray.geom.ops import _self_intersections, ring_area

    errors: list[str] = []
    g = gwkb.parse(buf)
    t = g["type"]
    if t == gwkb.POINT:
        if not np.isfinite(g["coords"]).all():
            errors.append("non-finite coordinate")
        return errors
    if t == gwkb.LINESTRING:
        c = g["coords"]
        if len(c) < 2:
            errors.append("linestring with < 2 points")
        if len(c) >= 2 and (np.abs(np.diff(c, axis=0)) < 1e-300).all(axis=1).any():
            errors.append("duplicate consecutive vertices")
        return errors
    if t == gwkb.POLYGON:
        for ri, r in enumerate(g["rings"]):
            tag = "exterior" if ri == 0 else f"hole {ri}"
            if len(r) < 4:
                errors.append(f"{tag}: ring with < 4 points")
                continue
            if (r[0] != r[-1]).any():
                errors.append(f"{tag}: ring not closed")
            rr = r[:-1] if (r[0] == r[-1]).all() else r
            d = np.abs(np.diff(rr, axis=0))
            if (d < 1e-300).all(axis=1).any():
                errors.append(f"{tag}: duplicate consecutive vertices")
            if _self_intersections(rr):
                errors.append(f"{tag}: self-intersection")
            a = ring_area(np.vstack([rr, rr[:1]]))
            if a == 0:
                errors.append(f"{tag}: zero area")
            elif ri > 0 and a > 0 and ring_area(
                np.vstack([g["rings"][0][:-1], g["rings"][0][:1]])
            ) > 0:
                errors.append(f"{tag}: hole has exterior orientation")
        return errors
    if t in (gwkb.MULTIPOINT, gwkb.MULTILINESTRING, gwkb.MULTIPOLYGON,
             gwkb.GEOMETRYCOLLECTION):
        for pi, part in enumerate(g["parts"]):
            sub = _part_wkb(part)
            for e in check_geometry(sub):
                errors.append(f"part {pi}: {e}")
        return errors
    return [f"unsupported geometry type {t}"]


def _part_wkb(parsed: dict) -> bytes:
    from gdal_ray.geom import wkb as gwkb

    if parsed["type"] == gwkb.POINT:
        return gwkb.point_wkb(*parsed["coords"][0])
    if parsed["type"] == gwkb.LINESTRING:
        return gwkb.linestring_wkb(parsed["coords"])
    return gwkb.polygon_wkb(parsed["rings"][0], parsed["rings"][1:])


def check_coverage(
    rings: list[np.ndarray], gap_tolerance: float = 1e-9
) -> list[dict]:
    """`gdal vector check-coverage` (GEOS CoverageValidator role):
    report coverage defects between the polygons of a would-be
    coverage — (a) interior overlaps between ring pairs, (b)
    misaligned borders: an edge of one ring whose endpoints both lie
    within ``gap_tolerance`` of another ring's boundary without the
    edge being exactly shared (T-nodes / sliver gaps).
    → list of {kind, rings: (i, j)} findings (empty = clean)."""
    from gdal_ray.geom.clip import polygon_intersection
    from gdal_ray.geom.ops import ring_area
    from gdal_ray.geom.scalars import _seg_point_dist

    findings = []
    n = len(rings)
    envs = [
        (r[:, 0].min(), r[:, 1].min(), r[:, 0].max(), r[:, 1].max())
        for r in rings
    ]
    # exact shared-edge census
    shared: set = set()
    owner: dict = {}
    for i, r in enumerate(rings):
        rr = r[:-1] if (r[0] == r[-1]).all() else r
        for k in range(len(rr)):
            e = _ekey(rr[k], rr[(k + 1) % len(rr)])
            if e in owner and owner[e] != i:
                shared.add(e)
            owner[e] = i
    for i in range(n):
        for j in range(i + 1, n):
            a, b = envs[i], envs[j]
            if a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]:
                continue
            inter = polygon_intersection(rings[i], rings[j])
            area = sum(abs(ring_area(rg)) for rg in inter)
            if area > gap_tolerance:
                findings.append({"kind": "overlap", "rings": (i, j),
                                 "area": float(area)})
                continue
            # misaligned borders: i's non-shared edges whose endpoints
            # hug j's boundary
            ri = rings[i][:-1] if (rings[i][0] == rings[i][-1]).all() else rings[i]
            rj = rings[j]
            b0 = rj[:-1]
            b1 = rj[1:]
            for k in range(len(ri)):
                p0 = ri[k]
                p1 = ri[(k + 1) % len(ri)]
                e = _ekey(p0, p1)
                if e in shared:
                    continue
                d = _seg_point_dist(
                    np.array([p0[0], p1[0]]), np.array([p0[1], p1[1]]),
                    b0[:, 0], b0[:, 1], b1[:, 0], b1[:, 1],
                )
                if (d < gap_tolerance).all() and d.size:
                    findings.append(
                        {"kind": "misaligned_edge", "rings": (i, j),
                         "edge": (k, (k + 1) % len(ri))}
                    )
                    break
    return findings


def clean_coverage(
    rings: list[np.ndarray], snap_tolerance: float
) -> list[np.ndarray]:
    """`gdal vector clean-coverage`: snap near-coincident vertices of
    neighboring rings onto shared canonical positions (grid-free
    cluster snapping: the lowest-(x, y) vertex of each tolerance
    cluster wins), so nearly-shared borders become exactly shared and
    check_coverage's misalignments disappear. Collapsed (duplicate)
    consecutive vertices are removed."""
    all_pts = np.vstack([
        (r[:-1] if (r[0] == r[-1]).all() else r) for r in rings
    ])
    # tolerance clustering via sorted sweep on x then refine by dist
    order = np.lexsort((all_pts[:, 1], all_pts[:, 0]))
    canon = {}
    reps: list[np.ndarray] = []
    for oi in order:
        p = all_pts[oi]
        snapped = None
        for rp in reps[::-1]:
            if rp[0] < p[0] - snap_tolerance:
                break
            if abs(rp[1] - p[1]) <= snap_tolerance and (
                (rp[0] - p[0]) ** 2 + (rp[1] - p[1]) ** 2
            ) <= snap_tolerance**2:
                snapped = rp
                break
        if snapped is None:
            reps.append(p)
            snapped = p
        canon[(float(p[0]), float(p[1]))] = (float(snapped[0]), float(snapped[1]))
    out = []
    for r in rings:
        rr = r[:-1] if (r[0] == r[-1]).all() else r
        newpts = np.array([canon[(float(p[0]), float(p[1]))] for p in rr])
        keep = np.ones(len(newpts), dtype=bool)
        keep[1:] = (np.abs(np.diff(newpts, axis=0)) > 0).any(axis=1)
        newpts = newpts[keep]
        if len(newpts) > 1 and (newpts[0] == newpts[-1]).all():
            newpts = newpts[:-1]
        out.append(np.vstack([newpts, newpts[:1]]))
    return out
