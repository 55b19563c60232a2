"""Aperture-7 hierarchical hexagon index on the WebMercator plane.

The north-star pipeline indexes pages into "H3 res 7-9" cells
(BASELINE.json north_rule). True H3 ids require the icosahedral base-
cell tables of the H3 library, which is unavailable here (no h3
package, no network) — so this module provides an **H3-style** index
with the properties the engine actually relies on:

- hexagonal cells (minimal-perimeter partition, uniform 6-neighbor
  topology for halo reads),
- aperture 7: each resolution has 7× the cell count, rotated by
  ``atan(√3/5) ≈ 19.1066°`` exactly like H3's Class II/III alternation,
- deterministic int64 ids encoding ``(res, q, r)`` axial coordinates,
- approximate hierarchy (hex grids never nest exactly — same caveat as
  real H3): ``parent(cell)`` = the res-1 cell containing this cell's
  center.

Resolution scale is chosen so res 7 ≈ H3 res 7 edge length (~1.2 km):
res 0 hexagons have circumradius ``R0 = ORIGIN_SHIFT / 4`` and each
finer res shrinks by √7.

All kernels are vectorized (axial cube-rounding in numpy).
"""

from __future__ import annotations

import numpy as np

from gdal_ray import tiles

R0 = tiles.ORIGIN_SHIFT / 4.0  # res-0 hex circumradius in mercator meters
ROT = np.arctan2(np.sqrt(3.0), 5.0)  # aperture-7 inter-res rotation
SQRT3 = np.sqrt(3.0)
MAX_RES = 15
_Q_BITS = 28
_OFF = 1 << (_Q_BITS - 1)


def _res_params(res: int):
    size = R0 / (7.0 ** (res / 2.0))
    theta = res * ROT
    return size, np.cos(theta), np.sin(theta)


def _axial_round(qf: np.ndarray, rf: np.ndarray):
    """Cube-round fractional axial coords to the nearest hex center."""
    sf = -qf - rf
    q = np.round(qf)
    r = np.round(rf)
    s = np.round(sf)
    dq = np.abs(q - qf)
    dr = np.abs(r - rf)
    ds = np.abs(s - sf)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    q = np.where(fix_q, -r - s, q)
    r = np.where(fix_r, -q - s, r)
    return q.astype(np.int64), r.astype(np.int64)


def xy_to_cell(mx, my, res: int):
    """WebMercator meters → hex cell id at a resolution (int64).

    Pointy-top axial: q = (√3/3·x − 1/3·y)/size, r = 2/3·y/size,
    after rotating the plane by −res·ROT.
    """
    mx = np.asarray(mx, dtype=np.float64)
    my = np.asarray(my, dtype=np.float64)
    size, c, s = _res_params(res)
    x = c * mx + s * my
    y = -s * mx + c * my
    qf = (SQRT3 / 3.0 * x - y / 3.0) / size
    rf = (2.0 / 3.0 * y) / size
    q, r = _axial_round(qf, rf)
    return pack(res, q, r)


def cell_to_xy(cell):
    """Hex cell id → center WebMercator meters."""
    res, q, r = unpack(cell)
    out_x = np.empty(len(np.atleast_1d(q)), dtype=np.float64)
    out_y = np.empty_like(out_x)
    qa = np.atleast_1d(q).astype(np.float64)
    ra = np.atleast_1d(r).astype(np.float64)
    resa = np.atleast_1d(res)
    for rv in np.unique(resa):
        m = resa == rv
        size, c, s = _res_params(int(rv))
        x = size * (SQRT3 * qa[m] + SQRT3 / 2.0 * ra[m])
        y = size * (1.5 * ra[m])
        # rotate back by +res·ROT
        out_x[m] = c * x - s * y
        out_y[m] = s * x + c * y
    return out_x, out_y


def lonlat_to_cell(lon, lat, res: int):
    mx, my = tiles.lonlat_to_meters(lon, lat)
    return xy_to_cell(mx, my, res)


def cell_to_lonlat(cell):
    mx, my = cell_to_xy(cell)
    return tiles.meters_to_lonlat(mx, my)


def pack(res, q, r) -> np.ndarray:
    q = np.asarray(q, dtype=np.int64)
    r = np.asarray(r, dtype=np.int64)
    res = np.asarray(res, dtype=np.int64)
    if ((q + _OFF < 0) | (q + _OFF >= (1 << _Q_BITS))).any() or (
        (r + _OFF < 0) | (r + _OFF >= (1 << _Q_BITS))
    ).any():
        raise ValueError("axial coordinate out of packable range")
    return (res << (2 * _Q_BITS)) | ((q + _OFF) << _Q_BITS) | (r + _OFF)


def unpack(cell):
    cell = np.asarray(cell, dtype=np.int64)
    res = cell >> (2 * _Q_BITS)
    q = ((cell >> _Q_BITS) & ((1 << _Q_BITS) - 1)) - _OFF
    r = (cell & ((1 << _Q_BITS) - 1)) - _OFF
    return res, q, r


def resolution(cell):
    return unpack(cell)[0]


def parent(cell, res: int):
    """Containing cell at a coarser resolution (approximate hierarchy:
    the coarser cell containing this cell's center — H3 has the same
    non-exact-nesting caveat)."""
    mx, my = cell_to_xy(cell)
    return xy_to_cell(mx, my, res)


def neighbors(cell):
    """The 6 adjacent cells (same res) — halo-read key set."""
    res, q, r = unpack(cell)
    res = int(np.atleast_1d(res)[0])
    q = np.atleast_1d(q)
    r = np.atleast_1d(r)
    offs = np.array([(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)])
    out = []
    for dq, dr in offs:
        out.append(pack(res, q + dq, r + dr))
    return np.stack(out, axis=-1)


def polyfill(ring_lonlat: np.ndarray, res: int) -> np.ndarray:
    """Hex cells whose CENTER lies inside the polygon — the
    h3.polygon_to_cells analogue (center-containment mode), the
    replicate-polygon-to-cells primitive of the PIP shuffle fallback
    (SURVEY.md §7.4).

    Candidates come from the polygon bbox in mercator axial space;
    the exact test is the engine's even-odd PIP."""
    from gdal_ray.geom.predicates import PolygonEdges

    ring = np.asarray(ring_lonlat, dtype=np.float64)
    mx, my = tiles.lonlat_to_meters(ring[:, 0], ring[:, 1])
    mring = np.column_stack([mx, my])
    size, c, s = _res_params(res)
    # candidate axial range from the rotated bbox (pad by one hex)
    x = c * mx + s * my
    y = -s * mx + c * my
    qf = (SQRT3 / 3.0 * x - y / 3.0) / size
    rf = (2.0 / 3.0 * y) / size
    q0, q1 = int(np.floor(qf.min())) - 1, int(np.ceil(qf.max())) + 1
    r0, r1 = int(np.floor(rf.min())) - 1, int(np.ceil(rf.max())) + 1
    qq, rr = np.meshgrid(np.arange(q0, q1 + 1), np.arange(r0, r1 + 1))
    cand = pack(res, qq.ravel(), rr.ravel())
    cx, cy = cell_to_xy(cand)
    edges = PolygonEdges([mring])
    inside = edges.contains_points(cx, cy)
    return np.unique(cand[inside])
