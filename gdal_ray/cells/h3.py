"""Genuine H3 cell indexing (latLngToCell), resolutions 0-15.

A from-scratch numpy implementation of the *public H3 spec*
(h3geo.org; reference C implementation uber/h3: faceijk.c,
coordijk.c, h3Index.c). Nothing here is a code port — the algorithm
is re-derived vectorized over numpy arrays — but the two irreducible
spec *data* tables (icosahedron orientation + base-cell numbering)
are reproduced, because H3 id parity is impossible without them:

- ``FACE_CENTER_GEO`` / ``FACE_AX_AZ`` — the H3 icosahedron
  orientation (Dymaxion-like, all 12 vertices in ocean) and the
  azimuth of each face's Class-II i-axis.  Validated at import-test
  time: the 20 centers must form a *regular* icosahedron to 1e-9 and
  every i-axis azimuth must point exactly at an icosahedron vertex.
- ``BASE_CELL_DATA`` — home (face, i, j, k) for each of the 122
  res-0 cells, the 12 pentagon flags, and the pentagon cw-offset
  faces.  Validated structurally: the derived 122 cell centers must
  be pairwise distinct, cover every face-grid position (no orphans /
  collisions), put pentagons exactly on icosahedron vertices, and
  agree with frozen golden H3 ids.

The per-face 3x3x3 base-cell lookup (faceIjkBaseCells in the C
library) is NOT tabulated — it is derived numerically at first use
from ``BASE_CELL_DATA`` + the projection (position matching for the
cell, azimuth comparison for the ccw-60-degree rotation count),
which gives an independent cross-check of the tables.

Reference-parity role: SURVEY.md section 2 cell-index row; the
north-star rule names "H3 (res 7-9)" explicitly.  The reference
repo's analogue is the DGGS cell-id role in gdal2tiles-style tiling
(reference: swig/python/gdal-utils/osgeo_utils/gdal2tiles.py tile
keys); H3 ids here serve as shuffle keys exactly like tile ids.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------- constants
M_SQRT7 = 2.6457513110645905905016157536392604257102
M_SIN60 = 0.8660254037844386467637231707529361834714
# gnomonic unit scale of the res-0 hex grid (H3 spec constant; equals
# (3 - sqrt 5)/2 to within 1 double ulp)
RES0_U_GNOMONIC = 0.38196601125010500003
# rotation between Class II and Class III resolutions: asin(sqrt(3/28))
M_AP7_ROT_RADS = 0.333473172251832115336090755351601070065900389

# H3 icosahedron face centers, (lat, lng) radians — spec table
# (reference C library faceijk.c faceCenterGeo).
FACE_CENTER_GEO = np.array([
    (0.803582649718989942, 1.248397419617396099),
    (1.307747883455638156, 2.536945009877921159),
    (1.054751253523952054, -1.347517358900396623),
    (0.600191595538186799, -0.450603909469755746),
    (0.491715428198773866, 0.401988202911306943),
    (0.172745327415618701, 1.678146885280433686),
    (0.605929321571350690, 2.953923329812411617),
    (0.427370518328979641, -1.888876200336285401),
    (-0.079066118549212831, -0.733429513380867741),
    (-0.230961644455383637, 0.506495587332349035),
    (0.079066118549212831, 2.408163140208925497),
    (0.230961644455383637, -2.635097066257444203),
    (-0.172745327415618701, -1.463445768309359553),
    (-0.605929321571350690, -0.187669323777381622),
    (-0.427370518328979641, 1.252716453253507838),
    (-0.600191595538186799, 2.690988744120037492),
    (-0.491715428198773866, -2.739604450678486295),
    (-0.803582649718989942, -1.893195233972397139),
    (-1.307747883455638156, -0.604647643711872080),
    (-1.054751253523952054, 1.794075294689396615),
], dtype=np.float64)

# azimuth (radians, geographic) from each face center to the face's
# Class-II i-axis — spec table (faceijk.c faceAxesAzRadsCII column 0;
# columns 1-2 are only needed for cell boundaries, not indexing).
FACE_AX_AZ = np.array([
    5.619958268523939882,
    5.760339081714187279,
    0.780213654393430055,
    0.430469363979999913,
    6.130269123335111400,
    2.692877706530642877,
    2.982963003477243874,
    3.532912002790141181,
    3.494305004259568154,
    3.003214169499538391,
    5.930472956509811562,
    0.138378484090254847,
    0.448714947059150361,
    0.158629650112549365,
    5.891865957979238535,
    2.711123289609793325,
    3.294508837434268316,
    3.804819692245439833,
    3.664438879055192436,
    2.361378999196363184,
], dtype=np.float64)

# Base cell data — spec table (baseCells.c baseCellData): for each of
# the 122 res-0 cells: home face, home (i, j, k), pentagon flag, and
# for pentagons the two clockwise-offset faces (-1 = none).
# fmt: off
BASE_CELL_DATA = [
    # (face, i, j, k, pent, cw0, cw1)
    (1, 1, 0, 0, 0, -1, -1),   # 0
    (2, 1, 1, 0, 0, -1, -1),   # 1
    (1, 0, 0, 0, 0, -1, -1),   # 2
    (2, 1, 0, 0, 0, -1, -1),   # 3
    (0, 2, 0, 0, 1, -1, -1),   # 4 (pentagon)
    (1, 1, 1, 0, 0, -1, -1),   # 5
    (1, 0, 0, 1, 0, -1, -1),   # 6
    (2, 0, 0, 0, 0, -1, -1),   # 7
    (0, 1, 0, 0, 0, -1, -1),   # 8
    (2, 0, 1, 0, 0, -1, -1),   # 9
    (1, 0, 1, 0, 0, -1, -1),   # 10
    (1, 0, 1, 1, 0, -1, -1),   # 11
    (3, 1, 0, 0, 0, -1, -1),   # 12
    (3, 1, 1, 0, 0, -1, -1),   # 13
    (11, 2, 0, 0, 1, 2, 6),    # 14 (pentagon)
    (4, 1, 0, 0, 0, -1, -1),   # 15
    (0, 0, 0, 0, 0, -1, -1),   # 16
    (6, 0, 1, 0, 0, -1, -1),   # 17
    (0, 0, 0, 1, 0, -1, -1),   # 18
    (2, 0, 1, 1, 0, -1, -1),   # 19
    (7, 0, 0, 1, 0, -1, -1),   # 20
    (2, 0, 0, 1, 0, -1, -1),   # 21
    (0, 1, 1, 0, 0, -1, -1),   # 22
    (6, 0, 0, 1, 0, -1, -1),   # 23
    (10, 2, 0, 0, 1, 1, 5),    # 24 (pentagon)
    (6, 0, 0, 0, 0, -1, -1),   # 25
    (3, 0, 0, 0, 0, -1, -1),   # 26
    (11, 1, 0, 0, 0, -1, -1),  # 27
    (4, 1, 1, 0, 0, -1, -1),   # 28
    (3, 0, 1, 0, 0, -1, -1),   # 29
    (0, 0, 1, 1, 0, -1, -1),   # 30
    (4, 0, 0, 0, 0, -1, -1),   # 31
    (5, 0, 1, 0, 0, -1, -1),   # 32
    (0, 0, 1, 0, 0, -1, -1),   # 33
    (7, 0, 1, 0, 0, -1, -1),   # 34
    (11, 1, 1, 0, 0, -1, -1),  # 35
    (7, 0, 0, 0, 0, -1, -1),   # 36
    (10, 1, 0, 0, 0, -1, -1),  # 37
    (12, 2, 0, 0, 1, 3, 7),    # 38 (pentagon)
    (6, 1, 0, 1, 0, -1, -1),   # 39
    (7, 1, 0, 1, 0, -1, -1),   # 40
    (4, 0, 0, 1, 0, -1, -1),   # 41
    (3, 0, 0, 1, 0, -1, -1),   # 42
    (3, 0, 1, 1, 0, -1, -1),   # 43
    (4, 0, 1, 0, 0, -1, -1),   # 44
    (6, 1, 0, 0, 0, -1, -1),   # 45
    (11, 0, 0, 0, 0, -1, -1),  # 46
    (8, 0, 0, 1, 0, -1, -1),   # 47
    (5, 0, 0, 1, 0, -1, -1),   # 48
    (14, 2, 0, 0, 1, 0, 9),    # 49 (pentagon)
    (5, 0, 0, 0, 0, -1, -1),   # 50
    (12, 1, 0, 0, 0, -1, -1),  # 51
    (10, 1, 1, 0, 0, -1, -1),  # 52
    (4, 0, 1, 1, 0, -1, -1),   # 53
    (12, 1, 1, 0, 0, -1, -1),  # 54
    (7, 1, 0, 0, 0, -1, -1),   # 55
    (11, 0, 1, 0, 0, -1, -1),  # 56
    (10, 0, 0, 0, 0, -1, -1),  # 57
    (13, 2, 0, 0, 1, 4, 8),    # 58 (pentagon)
    (10, 0, 0, 1, 0, -1, -1),  # 59
    (11, 0, 0, 1, 0, -1, -1),  # 60
    (9, 0, 1, 0, 0, -1, -1),   # 61
    (8, 0, 1, 0, 0, -1, -1),   # 62
    (6, 2, 0, 0, 1, 11, 15),   # 63 (pentagon)
    (8, 0, 0, 0, 0, -1, -1),   # 64
    (9, 0, 0, 1, 0, -1, -1),   # 65
    (14, 1, 0, 0, 0, -1, -1),  # 66
    (5, 1, 0, 1, 0, -1, -1),   # 67
    (16, 0, 1, 1, 0, -1, -1),  # 68
    (8, 1, 0, 1, 0, -1, -1),   # 69
    (5, 1, 0, 0, 0, -1, -1),   # 70
    (12, 0, 0, 0, 0, -1, -1),  # 71
    (7, 2, 0, 0, 1, 12, 16),   # 72 (pentagon)
    (12, 0, 1, 0, 0, -1, -1),  # 73
    (10, 0, 1, 0, 0, -1, -1),  # 74
    (9, 0, 0, 0, 0, -1, -1),   # 75
    (13, 1, 0, 0, 0, -1, -1),  # 76
    (16, 0, 0, 1, 0, -1, -1),  # 77
    (15, 0, 1, 1, 0, -1, -1),  # 78
    (15, 0, 1, 0, 0, -1, -1),  # 79
    (16, 0, 1, 0, 0, -1, -1),  # 80
    (14, 1, 1, 0, 0, -1, -1),  # 81
    (13, 1, 1, 0, 0, -1, -1),  # 82
    (5, 2, 0, 0, 1, 10, 19),   # 83 (pentagon)
    (8, 1, 0, 0, 0, -1, -1),   # 84
    (14, 0, 0, 0, 0, -1, -1),  # 85
    (9, 1, 0, 1, 0, -1, -1),   # 86
    (14, 0, 0, 1, 0, -1, -1),  # 87
    (17, 0, 0, 1, 0, -1, -1),  # 88
    (12, 0, 0, 1, 0, -1, -1),  # 89
    (16, 0, 0, 0, 0, -1, -1),  # 90
    (17, 0, 1, 1, 0, -1, -1),  # 91
    (15, 0, 0, 1, 0, -1, -1),  # 92
    (16, 1, 0, 1, 0, -1, -1),  # 93
    (9, 1, 0, 0, 0, -1, -1),   # 94
    (15, 0, 0, 0, 0, -1, -1),  # 95
    (13, 0, 0, 0, 0, -1, -1),  # 96
    (8, 2, 0, 0, 1, 13, 17),   # 97 (pentagon)
    (13, 0, 1, 0, 0, -1, -1),  # 98
    (17, 1, 0, 1, 0, -1, -1),  # 99
    (19, 0, 1, 0, 0, -1, -1),  # 100
    (14, 0, 1, 0, 0, -1, -1),  # 101
    (19, 0, 1, 1, 0, -1, -1),  # 102
    (17, 0, 1, 0, 0, -1, -1),  # 103
    (13, 0, 0, 1, 0, -1, -1),  # 104
    (17, 0, 0, 0, 0, -1, -1),  # 105
    (16, 1, 0, 0, 0, -1, -1),  # 106
    (9, 2, 0, 0, 1, 14, 18),   # 107 (pentagon)
    (15, 1, 0, 1, 0, -1, -1),  # 108
    (15, 1, 0, 0, 0, -1, -1),  # 109
    (18, 0, 1, 1, 0, -1, -1),  # 110
    (18, 0, 0, 1, 0, -1, -1),  # 111
    (19, 0, 0, 1, 0, -1, -1),  # 112
    (17, 1, 0, 0, 0, -1, -1),  # 113
    (19, 0, 0, 0, 0, -1, -1),  # 114
    (18, 0, 1, 0, 0, -1, -1),  # 115
    (18, 1, 0, 1, 0, -1, -1),  # 116
    (19, 2, 0, 0, 1, -1, -1),  # 117 (pentagon)
    (19, 1, 0, 0, 0, -1, -1),  # 118
    (18, 0, 0, 0, 0, -1, -1),  # 119
    (19, 1, 0, 1, 0, -1, -1),  # 120
    (18, 1, 0, 0, 0, -1, -1),  # 121
]
# fmt: on

PENTAGON_BASE_CELLS = frozenset(
    b for b, d in enumerate(BASE_CELL_DATA) if d[4]
)

_K_DIGIT = 1

# digit rotation maps (CENTER K J JK I IK IJ = 0..6)
_ROT_CCW = np.array([0, 5, 3, 1, 6, 4, 2], dtype=np.int64)
_ROT_CW = np.array([0, 3, 6, 2, 5, 1, 4], dtype=np.int64)

# axial diff (da+1)*3 + (db+1) -> digit; 7 marks impossible offsets
_AXIAL_DIGIT = np.array([1, 3, 7, 5, 0, 2, 7, 4, 6], dtype=np.int64)

# k-fold ccw digit rotations as one lookup: _ROT_POW[k, d]
_ROT_POW = np.empty((6, 7), dtype=np.int64)
_ROT_POW[0] = np.arange(7)
for _k in range(1, 6):
    _ROT_POW[_k] = _ROT_CCW[_ROT_POW[_k - 1]]


def _check_rot_tables() -> None:
    # ccw cycle K->IK->I->IJ->J->JK->K; cw is its inverse
    ccw = {0: 0, 1: 5, 5: 4, 4: 6, 6: 2, 2: 3, 3: 1}
    for d in range(7):
        assert _ROT_CCW[d] == ccw[d]
        assert _ROT_CW[ccw[d]] == d


_check_rot_tables()


# ------------------------------------------------------------ sphere helpers
def _geo_to_xyz(lat: np.ndarray, lng: np.ndarray) -> np.ndarray:
    cl = np.cos(lat)
    return np.stack([cl * np.cos(lng), cl * np.sin(lng), np.sin(lat)], axis=-1)


_FACE_XYZ = _geo_to_xyz(FACE_CENTER_GEO[:, 0], FACE_CENTER_GEO[:, 1])


def _pos_angle(a: np.ndarray) -> np.ndarray:
    tau = 2.0 * np.pi
    return np.where(a < 0.0, a + tau, np.where(a >= tau, a - tau, a))


def _azimuth(lat1, lng1, lat2, lng2):
    """Geographic azimuth (radians east of north-ish H3 convention)
    from point 1 to point 2 on the unit sphere."""
    dl = lng2 - lng1
    return np.arctan2(
        np.cos(lat2) * np.sin(dl),
        np.cos(lat1) * np.sin(lat2)
        - np.sin(lat1) * np.cos(lat2) * np.cos(dl),
    )


def _az_destination(lat1, lng1, az, dist):
    """Destination point: start, azimuth, angular distance (radians)."""
    sl = np.sin(lat1) * np.cos(dist) + np.cos(lat1) * np.sin(dist) * np.cos(az)
    lat2 = np.arcsin(np.clip(sl, -1.0, 1.0))
    lng2 = lng1 + np.arctan2(
        np.sin(az) * np.sin(dist) * np.cos(lat1),
        np.cos(dist) - np.sin(lat1) * np.sin(lat2),
    )
    return lat2, lng2


# ------------------------------------------------------------- IJK helpers
def _ijk_normalize(i, j, k):
    m = np.minimum(np.minimum(i, j), k)
    return i - m, j - m, k - m


def _lround(x: np.ndarray) -> np.ndarray:
    """C lround: round half away from zero (numpy rounds half-even)."""
    return np.trunc(x + np.copysign(0.5, x)).astype(np.int64)


def _up_ap7(i, j, k):
    """Parent coords, Class III -> Class II (ccw aperture 7)."""
    ci = i - k
    cj = j - k
    ni = _lround((3 * ci - cj) / 7.0)
    nj = _lround((ci + 2 * cj) / 7.0)
    return _ijk_normalize(ni, nj, np.zeros_like(ni))


def _up_ap7r(i, j, k):
    """Parent coords, Class II -> Class III (cw aperture 7)."""
    ci = i - k
    cj = j - k
    ni = _lround((2 * ci + cj) / 7.0)
    nj = _lround((3 * cj - ci) / 7.0)
    return _ijk_normalize(ni, nj, np.zeros_like(ni))


def _down_ap7(i, j, k):
    ni = 3 * i + 1 * j + 0 * k
    nj = 0 * i + 3 * j + 1 * k
    nk = 1 * i + 0 * j + 3 * k
    return _ijk_normalize(ni, nj, nk)


def _down_ap7r(i, j, k):
    ni = 3 * i + 0 * j + 1 * k
    nj = 1 * i + 3 * j + 0 * k
    nk = 0 * i + 1 * j + 3 * k
    return _ijk_normalize(ni, nj, nk)


def _ijk_to_hex2d(i, j, k):
    ci = i - k
    cj = j - k
    return ci - 0.5 * cj, cj * M_SIN60


def _hex2d_to_ijk(x: np.ndarray, y: np.ndarray):
    """Nearest hex-center quantization of planar coords into IJK+
    (vectorized transcription of the published H3 quantizer;
    reference: uber/h3 coordijk.c _hex2dToCoordIJK)."""
    a1 = np.abs(x)
    a2 = np.abs(y)
    x2 = a2 / M_SIN60
    x1 = a1 + x2 / 2.0
    m1 = np.floor(x1).astype(np.int64)
    m2 = np.floor(x2).astype(np.int64)
    r1 = x1 - m1
    r2 = x2 - m2

    # (x1, x2) are exact axial (i, j) coordinates; the nearest hex
    # center is one of the four corners of the fundamental unit cell
    # under the axial metric q(a, b) = a^2 - a*b + b^2.  Candidate
    # cost DIFFERENCES against corner (0,0) are linear in (r1, r2):
    #   q10-q00 = 1 - 2 r1 + r2,  q01-q00 = 1 + r1 - 2 r2,
    #   q11-q00 = 1 - r1 - r2
    # so the argmin needs no squares; first-wins tie order (00,10,01,11).
    a = 1.0 - 2.0 * r1 + r2
    b = 1.0 + r1 - 2.0 * r2
    c = 1.0 - r1 - r2
    best = np.zeros_like(r1)
    sel = np.zeros(r1.shape, dtype=np.int8)
    for code, val in ((1, a), (2, b), (3, c)):
        take = val < best
        best = np.where(take, val, best)
        sel = np.where(take, np.int8(code), sel)
    i = m1 + ((sel == 1) | (sel == 3))
    j = m2 + ((sel == 2) | (sel == 3))

    # fold across axes for negative planar coords
    neg_x = x < 0.0
    j_even = (j % 2) == 0
    axisi = np.where(j_even, j // 2, (j + 1) // 2)
    diff = i - axisi
    i = np.where(
        neg_x, np.where(j_even, i - 2 * diff, i - (2 * diff + 1)), i
    )
    neg_y = y < 0.0
    i = np.where(neg_y, i - (2 * j + 1) // 2, i)
    j = np.where(neg_y, -j, j)
    return _ijk_normalize(i, j, np.zeros_like(i))


# ---------------------------------------------- base-cell lookup derivation
_BC_LUT = None  # (20,3,3,3) int16 base cell; -1 invalid
_BC_ROT = None  # (20,3,3,3) int8 ccw 60deg rotations
_BC_IS_PENT = np.array([d[4] for d in BASE_CELL_DATA], dtype=bool)
_BC_CW0 = np.array([d[5] for d in BASE_CELL_DATA], dtype=np.int64)
_BC_CW1 = np.array([d[6] for d in BASE_CELL_DATA], dtype=np.int64)


def _res0_center_geo(face: int, i: int, j: int, k: int):
    """Geographic center of the res-0 cell at normalized ijk on a face
    (inverse gnomonic of the Class II hex grid)."""
    x, y = _ijk_to_hex2d(
        np.asarray([i], np.int64), np.asarray([j], np.int64),
        np.asarray([k], np.int64),
    )
    r = np.hypot(x, y)[0]
    clat, clng = FACE_CENTER_GEO[face]
    if r < 1e-12:
        return float(clat), float(clng)
    theta = np.arctan2(y, x)[0]
    az = FACE_AX_AZ[face] - theta
    dist = np.arctan(r * RES0_U_GNOMONIC)
    lat, lng = _az_destination(clat, clng, az, dist)
    return float(lat), float(lng)


def _plane_to_geo(face: int, x: float, y: float):
    """Inverse gnomonic of a res-0 Class-II plane point on a face."""
    r = float(np.hypot(x, y))
    clat, clng = FACE_CENTER_GEO[face]
    if r < 1e-15:
        return float(clat), float(clng)
    theta = float(np.arctan2(y, x))
    az = FACE_AX_AZ[face] - theta
    dist = float(np.arctan(r * RES0_U_GNOMONIC))
    lat, lng = _az_destination(clat, clng, az, dist)
    return float(lat), float(lng)


def _ijk_rot60ccw(p):
    i, j, k = p
    # unit axes map ccw: i->i+j ({1,1,0}), j->j+k ({0,1,1}), k->k+i ({1,0,1})
    ni = i * 1 + j * 0 + k * 1
    nj = i * 1 + j * 1 + k * 0
    nk = i * 0 + j * 1 + k * 1
    m = min(ni, nj, nk)
    return (ni - m, nj - m, nk - m)


def _ijk_rotn(p, n):
    for _ in range(n % 6):
        p = _ijk_rot60ccw(p)
    return p


def _ijk_add(a, b):
    m = min(a[0] + b[0], a[1] + b[1], a[2] + b[2])
    return (a[0] + b[0] - m, a[1] + b[1] - m, a[2] + b[2] - m)


def _ijk_sub(a, b):
    m = min(a[0] - b[0], a[1] - b[1], a[2] - b[2])
    return (a[0] - b[0] - m, a[1] - b[1] - m, a[2] - b[2] - m)


_VERTEX_SLOTS = ((2, 0, 0), (0, 2, 0), (0, 0, 2))


def _build_bc_lut():
    """Derive the per-face 3x3x3 base-cell lookup (faceIjkBaseCells in
    the C library) from BASE_CELL_DATA, combinatorially.

    Adjacent faces' res-0 lattices are related by an exact lattice
    isometry (rotation by k*60 degrees + translation) pinned by the
    two shared icosahedron vertices, whose ijk labels in each face are
    known ({2,0,0}/{0,2,0}/{0,0,2}) and whose identities are matched
    through the pentagon centers.  Each non-home grid position is
    unfolded (BFS, shortest path; unique in the 5-cycle around a
    vertex) into the owning cell's home face, accumulating the
    rotation count.  A metric nearest-center pass cross-checks every
    cell assignment."""
    global _BC_LUT, _BC_ROT
    if _BC_LUT is not None:
        return

    # base cell centers (sphere) and home positions
    centers = np.empty((122, 3))
    for b, (f, i, j, k, _p, _c0, _c1) in enumerate(BASE_CELL_DATA):
        lat, lng = _res0_center_geo(f, i, j, k)
        centers[b] = _geo_to_xyz(np.float64(lat), np.float64(lng))
    home_pos = {
        (f, (i, j, k)): b
        for b, (f, i, j, k, _p, _c0, _c1) in enumerate(BASE_CELL_DATA)
    }
    pents = sorted(PENTAGON_BASE_CELLS)
    pent_xyz = centers[pents]

    # vertex identity of each (face, slot): nearest pentagon center
    slot_vertex = {}
    for f in range(20):
        for s in _VERTEX_SLOTS:
            x, y = _ijk_to_hex2d(
                np.asarray([s[0]], np.int64), np.asarray([s[1]], np.int64),
                np.asarray([s[2]], np.int64),
            )
            lat, lng = _plane_to_geo(f, float(x[0]), float(y[0]))
            v = _geo_to_xyz(np.float64(lat), np.float64(lng))
            d = pent_xyz @ v
            w = int(np.argmax(d))
            if d[w] < 1.0 - 1e-9:
                raise AssertionError(f"face {f} slot {s} not on a vertex")
            slot_vertex[(f, s)] = pents[w]

    # unfold transforms between adjacent faces (shared-edge pairs)
    transforms = {}  # (F, G) -> (rot_ccw60, translation ijk)
    for f in range(20):
        for g in range(20):
            if f == g:
                continue
            shared = [
                (sf, sg)
                for sf in _VERTEX_SLOTS
                for sg in _VERTEX_SLOTS
                if slot_vertex[(f, sf)] == slot_vertex[(g, sg)]
            ]
            if len(shared) != 2:
                continue
            (a_f, a_g), (b_f, b_g) = shared
            vec_f = _ijk_sub(b_f, a_f)
            vec_g = _ijk_sub(b_g, a_g)
            sol = None
            for rr in range(6):
                if _ijk_rotn(vec_f, rr) == vec_g:
                    t = _ijk_sub(a_g, _ijk_rotn(a_f, rr))
                    sol = (rr, t)
                    break
            if sol is None:
                raise AssertionError(f"no lattice unfold {f}->{g}")
            transforms[(f, g)] = sol

    def unfold(face, pos, g):
        rr, t = transforms[(face, g)]
        return _ijk_add(_ijk_rotn(pos, rr), t), rr

    # resolve a (face, position) to (base cell, ccw rotations).
    # Pentagon (vertex) positions: walk around the vertex in the fixed
    # rotational direction that matches the spec tables (positive
    # triple product (cF x cG) . v) — the 60-degree angular deficit at
    # a vertex makes the accumulated rotation path-dependent, and the
    # H3 convention is this direction (calibrated against the spec's
    # own faceIjkBaseCells pentagon entries).  Hexagon positions:
    # BFS shortest unfold path (unique; no deficit enclosed).
    from collections import deque

    def pent_resolve(face, slot):
        vtx = slot_vertex[(face, slot)]
        vxyz = centers[vtx]
        cur_f, cur_p, rr_tot = face, slot, 0
        for _ in range(6):
            if (cur_f, cur_p) in home_pos:
                return home_pos[(cur_f, cur_p)], rr_tot % 6
            cands = []
            for g in range(20):
                if (cur_f, g) in transforms and any(
                    slot_vertex[(g, s)] == vtx for s in _VERTEX_SLOTS
                ):
                    sgn = float(
                        np.dot(np.cross(_FACE_XYZ[cur_f], _FACE_XYZ[g]),
                               vxyz)
                    )
                    cands.append((g, sgn))
            g = max(cands, key=lambda t: t[1])[0]
            cur_p, rr = unfold(cur_f, cur_p, g)
            rr_tot += rr
            cur_f = g
        raise AssertionError(f"pentagon walk failed {face} {slot}")

    def resolve(face, pos):
        if (face, pos) in home_pos:
            return home_pos[(face, pos)], 0
        if pos in _VERTEX_SLOTS:
            return pent_resolve(face, pos)
        seen = {(face, pos)}
        q = deque([(face, pos, 0)])
        while q:
            cf, cp, crot = q.popleft()
            for g in range(20):
                if (cf, g) not in transforms:
                    continue
                np_, rr = unfold(cf, cp, g)
                tot = (crot + rr) % 6
                if (g, np_) in home_pos:
                    return home_pos[(g, np_)], tot
                if (g, np_) not in seen:
                    seen.add((g, np_))
                    q.append((g, np_, tot))
        raise AssertionError(f"unresolvable position {face} {pos}")

    lut = np.full((20, 3, 3, 3), -1, dtype=np.int16)
    rot = np.zeros((20, 3, 3, 3), dtype=np.int8)
    for f in range(20):
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    m = min(i, j, k)
                    pos = (i - m, j - m, k - m)
                    b, rr = resolve(f, pos)
                    lut[f, i, j, k] = b
                    rot[f, i, j, k] = rr
                    # metric cross-check of the cell assignment
                    x, y = _ijk_to_hex2d(
                        np.asarray([pos[0]], np.int64),
                        np.asarray([pos[1]], np.int64),
                        np.asarray([pos[2]], np.int64),
                    )
                    lat, lng = _plane_to_geo(f, float(x[0]), float(y[0]))
                    v = _geo_to_xyz(np.float64(lat), np.float64(lng))
                    d = np.arccos(np.clip(centers @ v, -1.0, 1.0))
                    bm = int(np.argmin(d))
                    if bm != b:
                        raise AssertionError(
                            f"unfold/metric disagree at face {f} {pos}: "
                            f"{b} vs {bm}"
                        )
    # --- pentagon rotation calibration: boundary single-valuedness ---
    # The vertex-walk rotation counts above are path-convention-
    # dependent (60-degree angular deficit at icosahedron vertices).
    # The property that pins each pentagon entry's rotation uniquely
    # is that latLngToCell is a FUNCTION: approaching a point on the
    # Voronoi boundary between adjacent faces F and G from either side
    # must give the same index, i.e. rot^{r_F}(kfix_F(chain_F(q))) ==
    # rot^{r_G}(kfix_G(chain_G(q))) for boundary samples q near the
    # vertex (where the two gnomonic lattices coincide along the
    # shared edge). Anchored at each pentagon's home face (r = 0 by
    # definition), the constraint propagates around the vertex's
    # 5-cycle and determines every other face's rotation.
    res_cal = 6

    def digits_on_face(f, lat_d, lng_d):
        lat = np.radians(np.asarray([lat_d]))
        lng = np.radians(np.asarray([lng_d]))
        p = _geo_to_xyz(lat, lng)
        dot = np.clip(p @ _FACE_XYZ[f], -1.0, 1.0)
        ang = np.arccos(dot)
        az = _azimuth(FACE_CENTER_GEO[f, 0], FACE_CENTER_GEO[f, 1], lat, lng)
        theta0 = _pos_angle(FACE_AX_AZ[f] - az)
        r0 = np.where(ang < 1e-16, 0.0, np.tan(ang) / RES0_U_GNOMONIC)
        theta = theta0
        if res_cal % 2 == 1:
            theta = _pos_angle(theta0 - M_AP7_ROT_RADS)
        rr0 = r0 * (M_SQRT7 ** res_cal)
        x = rr0 * np.cos(theta)
        y = rr0 * np.sin(theta)
        i, j, k = _hex2d_to_ijk(x, y)
        dig = np.zeros(res_cal, dtype=np.int64)
        a = float(i[0] - k[0])
        b = float(j[0] - k[0])
        for rr in range(res_cal, 0, -1):
            if rr % 2 == 1:
                pa = round((3 * a - b) / 7.0)
                pb = round((a + 2 * b) / 7.0)
                ca, cb = 2 * pa + pb, 3 * pb - pa
            else:
                pa = round((2 * a + b) / 7.0)
                pb = round((3 * b - a) / 7.0)
                ca, cb = 3 * pa - pb, pa + 2 * pb
            dig[rr - 1] = _AXIAL_DIGIT[(int(a - ca) + 1) * 3 + int(b - cb) + 1]
            a, b = pa, pb
        m = min(int(a), int(b), 0)
        return dig, (int(a) - m, int(b) - m, -m)

    def apply_kfix(dig, bcell, f):
        d = dig.copy()
        nz = d[d != 0]
        if len(nz) and nz[0] == _K_DIGIT:
            table = (
                _ROT_CW
                if (_BC_CW0[bcell] == f or _BC_CW1[bcell] == f)
                else _ROT_CCW
            )
            d = table[d]
        return d

    def pent_rot_once(dig):
        d = _ROT_CCW[dig]
        nz = d[d != 0]
        if len(nz) and nz[0] == _K_DIGIT:
            d = _ROT_CCW[d]
        return d

    def canon(dig, bcell, f, r):
        d = apply_kfix(dig, bcell, f)
        for _ in range(r):
            d = pent_rot_once(d)
        return d

    home_face = {b: BASE_CELL_DATA[b][0] for b in pents}
    for b in pents:
        hf = home_face[b]
        vlat, vlng = _res0_center_geo(*BASE_CELL_DATA[b][:4])
        vxyz = _geo_to_xyz(np.float64(vlat), np.float64(vlng))
        slot_of = {}
        for f in range(20):
            for s in _VERTEX_SLOTS:
                if lut[f, s[0], s[1], s[2]] == b:
                    slot_of[f] = s
        known = {hf: 0}
        # propagate around the vertex 5-cycle via edge-sharing pairs
        for _ in range(5):
            for f_known, r_known in list(known.items()):
                for g in slot_of:
                    if g in known or (f_known, g) not in transforms:
                        continue
                    # the shared edge must be incident to THIS vertex
                    shared_v = {
                        slot_vertex[(f_known, s)] for s in _VERTEX_SLOTS
                    } & {slot_vertex[(g, s)] for s in _VERTEX_SLOTS}
                    if b not in shared_v:
                        continue
                    mid = _FACE_XYZ[f_known] + _FACE_XYZ[g]
                    mid /= np.linalg.norm(mid)
                    tvec = mid - vxyz * float(vxyz @ mid)
                    tvec /= np.linalg.norm(tvec)
                    votes = {}
                    for frac in np.linspace(0.008, 0.06, 8):
                        q = vxyz * np.cos(frac) + tvec * np.sin(frac)
                        qla, qlo = _xyz_to_latlng(q[None, :])
                        qla = np.degrees(float(qla[0]))
                        qlo = np.degrees(float(qlo[0]))
                        dF, pF = digits_on_face(f_known, qla, qlo)
                        dG, pG = digits_on_face(g, qla, qlo)
                        if pF != slot_of[f_known] or pG != slot_of[g]:
                            continue
                        target = canon(dF, b, f_known, r_known)
                        d = apply_kfix(dG, b, g)
                        for r in range(6):
                            if np.array_equal(d, target):
                                votes[r] = votes.get(r, 0) + 1
                                break
                            d = pent_rot_once(d)
                    if not votes:
                        continue  # no boundary sample matched; retry later
                    if len(votes) > 1:
                        raise AssertionError(
                            f"pentagon boundary votes conflict bc={b} "
                            f"{f_known}->{g}: {votes}"
                        )
                    known[g] = next(iter(votes))
        if set(known) != set(slot_of):
            raise AssertionError(
                f"pentagon calibration incomplete bc={b}: "
                f"{sorted(known)} vs {sorted(slot_of)}"
            )
        for f, r_found in known.items():
            slot = slot_of[f]
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        m = min(i, j, k)
                        if (i - m, j - m, k - m) == slot:
                            rot[f, i, j, k] = r_found

    _BC_LUT = lut
    _BC_ROT = rot


# ----------------------------------------------------------- index rotation
def _leading_nonzero_digit(digits: np.ndarray, res: int) -> np.ndarray:
    """digits: (N, res) array of digits r=1..res. Returns first
    non-zero digit (0 if all zero)."""
    if res == 0:
        return np.zeros(digits.shape[0], dtype=np.int64)
    nz = digits != 0
    first = np.argmax(nz, axis=1)
    any_nz = nz.any(axis=1)
    return np.where(any_nz, digits[np.arange(len(digits)), first], 0)


def _rotate_digits(digits, mask, table):
    digits[mask] = table[digits[mask]]


def _rotate_pent60ccw(digits: np.ndarray, mask: np.ndarray, res: int):
    """_h3RotatePent60ccw over digit arrays: rotate all digits ccw,
    skipping the deleted K subsequence (extra ccw rotation if the
    leading digit lands on K)."""
    sel = np.where(mask)[0]
    if len(sel) == 0:
        return
    d = digits[sel]
    found = np.zeros(len(sel), dtype=bool)
    for r in range(res):
        d[:, r] = _ROT_CCW[d[:, r]]
        newly = (~found) & (d[:, r] != 0)
        if newly.any():
            kmask = newly & (d[:, r] == _K_DIGIT)
            if kmask.any():
                d[kmask] = _ROT_CCW[d[kmask]]
            found |= newly
    digits[sel] = d


# ------------------------------------------------------------------ public
def _front_end(lat_deg, lng_deg):
    """Shared projection front-end: closest face + polar gnomonic
    coords (res-independent part of latLngToCell)."""
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lng = np.radians(np.asarray(lng_deg, dtype=np.float64))
    lat = np.atleast_1d(lat)
    lng = np.atleast_1d(lng)
    # closest face (first-wins on exact ties, like the C scan)
    p = _geo_to_xyz(lat, lng)
    dots = p @ _FACE_XYZ.T
    face = np.argmax(dots, axis=1)
    dot = np.clip(dots[np.arange(len(lat)), face], -1.0, 1.0)
    ang = np.arccos(dot)
    clat = FACE_CENTER_GEO[face, 0]
    clng = FACE_CENTER_GEO[face, 1]
    az = _azimuth(clat, clng, lat, lng)
    theta0 = _pos_angle(FACE_AX_AZ[face] - az)
    r0 = np.tan(ang) / RES0_U_GNOMONIC
    near0 = ang < 1e-16
    r0 = np.where(near0, 0.0, r0)
    return face, r0, theta0


_CHUNK = 65536  # bounds temp-array size (allocator stays warm; this
# container pays ~10x for first-touch of fresh large pages)


def latlng_to_cell(
    lat_deg: np.ndarray, lng_deg: np.ndarray, res: int
) -> np.ndarray:
    """H3 latLngToCell, vectorized. Returns uint64 H3 indexes."""
    scalar = np.asarray(lat_deg).ndim == 0
    lat = np.atleast_1d(np.asarray(lat_deg, dtype=np.float64))
    lng = np.atleast_1d(np.asarray(lng_deg, dtype=np.float64))
    n = len(lat)
    out = np.empty(n, dtype=np.uint64)
    bad = ~(np.isfinite(lat) & np.isfinite(lng))
    if bad.any():  # non-finite coords -> 0 (no-cell sentinel)
        lat = np.where(bad, 0.0, lat)
        lng = np.where(bad, 0.0, lng)
    for s in range(0, max(n, 1), _CHUNK):
        e = min(s + _CHUNK, n)
        face, r0, theta0 = _front_end(lat[s:e], lng[s:e])
        out[s:e] = _finish(face, r0, theta0, res)
    if bad.any():
        out[bad] = 0
    return out[0] if scalar else out


def latlng_to_cells_multi(lat_deg, lng_deg, resolutions=(7, 8, 9)):
    """latLngToCell at several resolutions, sharing the projection
    front-end (one trig pass instead of one per resolution)."""
    lat = np.atleast_1d(np.asarray(lat_deg, dtype=np.float64))
    lng = np.atleast_1d(np.asarray(lng_deg, dtype=np.float64))
    n = len(lat)
    outs = {res: np.empty(n, dtype=np.uint64) for res in resolutions}
    bad = ~(np.isfinite(lat) & np.isfinite(lng))
    if bad.any():  # non-finite coords -> 0 (no-cell sentinel)
        lat = np.where(bad, 0.0, lat)
        lng = np.where(bad, 0.0, lng)
    for s in range(0, max(n, 1), _CHUNK):
        e = min(s + _CHUNK, n)
        face, r0, theta0 = _front_end(lat[s:e], lng[s:e])
        for res in resolutions:
            outs[res][s:e] = _finish(face, r0, theta0, res)
    if bad.any():
        for res in resolutions:
            outs[res][bad] = 0
    return outs


def _finish(face, r0, theta0, res):
    if not (0 <= res <= 15):
        raise ValueError("res must be 0..15")
    _build_bc_lut()
    n = len(face)
    theta = theta0
    if res % 2 == 1:  # Class III
        theta = _pos_angle(theta0 - M_AP7_ROT_RADS)
    r = r0 * (M_SQRT7 ** res)
    x = r * np.cos(theta)
    y = r * np.sin(theta)

    i, j, k = _hex2d_to_ijk(x, y)

    # digits res..1 via aperture-7 parents, in axial coords (a, b) =
    # (i - k, j - k): gauge-free, so no per-step normalization, and the
    # whole chain is 6 elementwise ops per level on reused buffers.
    digits = np.zeros((n, res), dtype=np.int64)  # column r-1 = digit r
    a = (i - k).astype(np.float64)
    b = (j - k).astype(np.float64)
    pa = np.empty(n)
    pb = np.empty(n)
    t = np.empty(n)
    for rr in range(res, 0, -1):
        if rr % 2 == 1:  # Class III: up is ccw aperture 7
            # parent = lround((3a - b)/7), lround((a + 2b)/7)
            np.multiply(a, 3.0, out=t)
            np.subtract(t, b, out=t)
            np.divide(t, 7.0, out=t)
            np.rint(t, out=pa)
            np.multiply(b, 2.0, out=t)
            np.add(t, a, out=t)
            np.divide(t, 7.0, out=t)
            np.rint(t, out=pb)
            # center = down(parent) = (2p_a + p_b, 3p_b - p_a)
            ca = 2.0 * pa + pb
            cb = 3.0 * pb - pa
        else:  # Class II: up is cw aperture 7
            np.multiply(a, 2.0, out=t)
            np.add(t, b, out=t)
            np.divide(t, 7.0, out=t)
            np.rint(t, out=pa)
            np.multiply(b, 3.0, out=t)
            np.subtract(t, a, out=t)
            np.divide(t, 7.0, out=t)
            np.rint(t, out=pb)
            # center = down_r(parent) = (3p_a - p_b, p_a + 2p_b)
            ca = 3.0 * pa - pb
            cb = pa + 2.0 * pb
        da = (a - ca).astype(np.int64) + 1
        db = (b - cb).astype(np.int64) + 1
        digits[:, rr - 1] = _AXIAL_DIGIT[da * 3 + db]
        a, pa = pa, a
        b, pb = pb, b

    ai = a.astype(np.int64)
    bi = b.astype(np.int64)
    m = np.minimum(np.minimum(ai, bi), 0)
    i = ai - m
    j = bi - m
    k = -m
    if (i > 2).any() or (j > 2).any() or (k > 2).any():
        raise AssertionError("res-0 ijk out of base-cell grid range")
    bc = _BC_LUT[face, i, j, k].astype(np.int64)
    if (bc < 0).any():
        raise AssertionError("no base cell at derived res-0 position")
    nrot = _BC_ROT[face, i, j, k].astype(np.int64)

    is_pent = _BC_IS_PENT[bc]
    # pentagon: rotate out of the deleted K subsequence first
    if res > 0 and is_pent.any():
        lead = _leading_nonzero_digit(digits, res)
        kfix = is_pent & (lead == _K_DIGIT)
        if kfix.any():
            cw = kfix & (
                (_BC_CW0[bc] == face) | (_BC_CW1[bc] == face)
            )
            ccw = kfix & ~cw
            _rotate_digits(digits, ccw, _ROT_CCW)
            _rotate_digits(digits, cw, _ROT_CW)
    # apply the ccw rotations from the face-to-home transform:
    # hexagons in ONE power-table gather; pentagon rows (rare) keep
    # the stepwise deleted-K-aware loop
    if res > 0 and n:
        hex_rot = nrot.copy()
        hex_rot[is_pent] = 0
        if hex_rot.any():
            digits = _ROT_POW[hex_rot[:, None], digits]
        if is_pent.any():
            maxr = int(nrot[is_pent].max())
            for step in range(1, maxr + 1):
                pm = is_pent & (nrot >= step)
                if pm.any():
                    _rotate_pent60ccw(digits, pm, res)

    # pack bits: reserved(1)=0 mode(4)=1 reserved(3)=0 res(4) bc(7) digits
    idx = np.full(n, np.uint64(1) << np.uint64(59), dtype=np.uint64)
    idx |= np.uint64(res) << np.uint64(52)
    idx |= bc.astype(np.uint64) << np.uint64(45)
    if res:
        dig_u = digits.astype(np.uint64)
        for rr in range(1, res + 1):
            idx |= dig_u[:, rr - 1] << np.uint64((15 - rr) * 3)
    if res < 15:
        fill = np.uint64(0)
        for rr in range(res + 1, 16):
            fill |= np.uint64(7) << np.uint64((15 - rr) * 3)
        idx |= fill
    return idx


def cell_to_parent(cell: np.ndarray, parent_res: int) -> np.ndarray:
    """H3 cellToParent via bit ops (no tables needed)."""
    cell = np.asarray(cell, dtype=np.uint64)
    res = ((cell >> np.uint64(52)) & np.uint64(0xF)).astype(np.int64)
    if (res < parent_res).any():
        raise ValueError("parent_res coarser than cell res required")
    out = (cell & ~(np.uint64(0xF) << np.uint64(52))) | (
        np.uint64(parent_res) << np.uint64(52)
    )
    fill = np.uint64(0)
    for rr in range(parent_res + 1, 16):
        fill |= np.uint64(7) << np.uint64((15 - rr) * 3)
    return out | fill


def get_resolution(cell: np.ndarray) -> np.ndarray:
    return (np.asarray(cell, np.uint64) >> np.uint64(52)) & np.uint64(0xF)


def get_base_cell(cell: np.ndarray) -> np.ndarray:
    return (np.asarray(cell, np.uint64) >> np.uint64(45)) & np.uint64(0x7F)


def is_pentagon(cell: np.ndarray) -> np.ndarray:
    """True if the cell is a pentagon (base cell pentagon and all
    digits are CENTER)."""
    cell = np.asarray(cell, np.uint64)
    bc = get_base_cell(cell).astype(np.int64)
    res = get_resolution(cell).astype(np.int64)
    pent = _BC_IS_PENT[bc].copy()
    for rr in range(1, 16):
        shift = np.uint64((15 - rr) * 3)
        digit = (cell >> shift) & np.uint64(7)
        pent &= (rr > res) | (digit == 0)
    return pent


def cell_to_string(cell) -> np.ndarray:
    """Hex-string form matching h3's h3ToString (no 0x, lowercase)."""
    arr = np.atleast_1d(np.asarray(cell, np.uint64))
    return np.array([format(int(c), "x") for c in arr])


def string_to_cell(s) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(s))
    return np.array([int(x, 16) for x in arr], dtype=np.uint64)


# digit -> axial offset (inverse of _AXIAL_DIGIT)
_DIGIT_AXIAL = np.array(
    [[0, 0], [-1, -1], [0, 1], [-1, 0], [1, 0], [0, -1], [1, 1]],
    dtype=np.float64,
)

_UNFOLD = None  # (face, face) -> (rot, axial translation) at res 0


def _build_unfolds():
    global _UNFOLD
    if _UNFOLD is not None:
        return
    _build_bc_lut()
    # re-derive the adjacency transforms (same construction as the LUT)
    centers = np.empty((122, 3))
    for b, (f, i, j, k, _p, _c0, _c1) in enumerate(BASE_CELL_DATA):
        lat, lng = _res0_center_geo(f, i, j, k)
        centers[b] = _geo_to_xyz(np.float64(lat), np.float64(lng))
    pents = sorted(PENTAGON_BASE_CELLS)
    pent_xyz = centers[pents]
    slot_vertex = {}
    for f in range(20):
        for s in _VERTEX_SLOTS:
            x, y = _ijk_to_hex2d(
                np.asarray([s[0]]), np.asarray([s[1]]), np.asarray([s[2]])
            )
            lat, lng = _plane_to_geo(f, float(x[0]), float(y[0]))
            v = _geo_to_xyz(np.float64(lat), np.float64(lng))
            slot_vertex[(f, s)] = pents[int(np.argmax(pent_xyz @ v))]
    out = {}
    for f in range(20):
        for g in range(20):
            if f == g:
                continue
            shared = [
                (sf, sg)
                for sf in _VERTEX_SLOTS
                for sg in _VERTEX_SLOTS
                if slot_vertex[(f, sf)] == slot_vertex[(g, sg)]
            ]
            if len(shared) != 2:
                continue
            (af, ag), (bf, bg) = shared
            vf = _ijk_sub(bf, af)
            vg = _ijk_sub(bg, ag)
            for rr in range(6):
                if _ijk_rotn(vf, rr) == vg:
                    t = _ijk_sub(ag, _ijk_rotn(af, rr))
                    out[(f, g)] = (rr, t)
                    break
    _UNFOLD = out


def _axial_on_home(cells: np.ndarray, res: int):
    """Rebuild each cell's res-scale axial lattice position (a, b) on
    its base cell's home face (shared by cellToLatLng and gridDisk).
    Returns (home_face, a, b, is_pentagon)."""
    n = len(cells)
    bc = get_base_cell(cells).astype(np.int64)
    digits = np.zeros((n, res), dtype=np.int64)
    for rr in range(1, res + 1):
        digits[:, rr - 1] = (
            (cells >> np.uint64((15 - rr) * 3)) & np.uint64(7)
        ).astype(np.int64)
    # pentagon leading-digit-5 deleted-subsequence adjustment (cw)
    is_pent = _BC_IS_PENT[bc]
    if res and is_pent.any():
        lead = _leading_nonzero_digit(digits, res)
        fix = is_pent & (lead == 5)
        if fix.any():
            digits[fix] = _ROT_CW[digits[fix]]
    home = np.array([BASE_CELL_DATA[b][0] for b in bc], dtype=np.int64)
    a = np.array(
        [BASE_CELL_DATA[b][1] - BASE_CELL_DATA[b][3] for b in bc],
        dtype=np.float64,
    )
    b_ax = np.array(
        [BASE_CELL_DATA[b][2] - BASE_CELL_DATA[b][3] for b in bc],
        dtype=np.float64,
    )
    for rr in range(1, res + 1):
        if rr % 2 == 1:  # Class III: down is ccw aperture 7
            a, b_ax = 2.0 * a + b_ax, 3.0 * b_ax - a
        else:
            a, b_ax = 3.0 * a - b_ax, a + 2.0 * b_ax
        off = _DIGIT_AXIAL[digits[:, rr - 1]]
        a = a + off[:, 0]
        b_ax = b_ax + off[:, 1]
    return home, a, b_ax, is_pent


def cell_to_latlng(cells) -> tuple[np.ndarray, np.ndarray]:
    """H3 cellToLatLng: cell center in degrees (vectorized).

    Digits rebuild the res-r lattice position on the base cell's home
    face (deleted-subsequence rotation applied for pentagon leading-5
    cells); centers whose closest face differs are re-expressed in the
    owning face through the exact res-scaled unfold transform before
    inverse projection, matching the C library's overage adjustment."""
    _build_unfolds()
    cells = np.atleast_1d(np.asarray(cells, np.uint64))
    n = len(cells)
    res_arr = get_resolution(cells).astype(np.int64)
    if len(np.unique(res_arr)) > 1:
        # process per resolution group
        lat = np.empty(n)
        lng = np.empty(n)
        for r in np.unique(res_arr):
            m = res_arr == r
            la, lo = cell_to_latlng(cells[m])
            lat[m] = la
            lng[m] = lo
        return lat, lng
    res = int(res_arr[0]) if n else 0
    home, a, b_ax, is_pent = _axial_on_home(cells, res)

    lat, lng = _project_axial(home, a, b_ax, res)
    # pentagon base cells: the home-frame digit rebuild does not model
    # the deleted-K-axis wedges across the 5 surrounding faces — use
    # the per-view reversal validated by re-encode
    if is_pent.any():
        for i in np.flatnonzero(is_pent):
            got = _pentagon_center(int(cells[i]))
            if got is not None:
                lat[i], lng[i] = got
    lat, lng = _resolve_overage(home, a, b_ax, res, lat, lng, skip=is_pent)
    return np.degrees(lat), np.degrees(lng)


def _project_axial(face_arr, aa, bb, res: int):
    """Inverse projection: res-scale axial lattice coords on a face →
    geo radians (the face-local half of cellToLatLng)."""
    scale = M_SQRT7 ** res
    x = (aa - 0.5 * bb) / scale
    y = (bb * M_SIN60) / scale
    rp = np.hypot(x, y)
    theta_used = np.arctan2(y, x)
    if res % 2 == 1:
        theta_used = theta_used + M_AP7_ROT_RADS
    az = FACE_AX_AZ[face_arr] - theta_used
    dist = np.arctan(rp * RES0_U_GNOMONIC)
    clat = FACE_CENTER_GEO[face_arr, 0]
    clng = FACE_CENTER_GEO[face_arr, 1]
    lat, lng = _az_destination(clat, clng, az, dist)
    zero = rp < 1e-15
    lat = np.where(zero, clat, lat)
    lng = np.where(zero, clng, lng)
    return lat, lng


def _resolve_overage(home, a, b_ax, res, lat, lng, skip=None):
    """Overage resolution: the true position of a lattice point is the
    one whose projection is self-consistent (its closest face is the
    face it was projected on — the C library reaches the same fixed
    point through coordinate-range adjustment). Rows whose home-face
    projection is not self-consistent are re-expressed through the
    exact res-scaled 1- and 2-step unfold transforms.  ``skip`` masks
    rows already resolved (pentagon centers)."""
    p = _geo_to_xyz(lat, lng)
    owner = np.argmax(p @ _FACE_XYZ.T, axis=1)
    move = owner != home
    if skip is not None:
        move &= ~skip
    if move.any():
        adj = {}
        for (f, g), tr in _UNFOLD.items():
            adj.setdefault(f, []).append((g, tr))

        def candidates(h):
            """[(face, k60, (ta0, tb0))] composed transforms from h."""
            out = [(h, 0, (0.0, 0.0))]
            seen = {h}
            for g, (k1, t1) in adj.get(h, []):
                t1a = float(t1[0] - t1[2])
                t1b = float(t1[1] - t1[2])
                out.append((g, k1, (t1a, t1b)))
                seen.add(g)
            for g, (k1, t1) in adj.get(h, []):
                t1a = float(t1[0] - t1[2])
                t1b = float(t1[1] - t1[2])
                for g2, (k2, t2) in adj.get(g, []):
                    if g2 in seen:
                        continue
                    # compose: p -> R2 (R1 p + t1) + t2
                    t2a = float(t2[0] - t2[2])
                    t2b = float(t2[1] - t2[2])
                    ra, rb = t1a, t1b
                    for _ in range(k2):
                        ra, rb = ra - rb, ra
                    out.append((g2, (k1 + k2) % 6, (ra + t2a, rb + t2b)))
                    seen.add(g2)
            return out

        def scale_translation(ta, tb):
            for rr in range(1, res + 1):
                if rr % 2 == 1:
                    ta, tb = 2.0 * ta + tb, 3.0 * tb - ta
                else:
                    ta, tb = 3.0 * ta - tb, ta + 2.0 * tb
            return ta, tb

        cand_cache: dict = {}
        for i in np.flatnonzero(move):
            h = int(home[i])
            if h not in cand_cache:
                cand_cache[h] = [
                    (g, k60, scale_translation(ta, tb))
                    for g, k60, (ta, tb) in candidates(h)
                ]
            best = None
            for g, k60, (ta, tb) in cand_cache[h]:
                ca, cb = float(a[i]), float(b_ax[i])
                for _ in range(k60):
                    ca, cb = ca - cb, ca  # axial ccw 60-degree rotation
                la, lo = _project_axial(
                    np.array([g]), np.array([ca + ta]), np.array([cb + tb]),
                    res,
                )
                v = _geo_to_xyz(la, lo)[0]
                own = int(np.argmax(_FACE_XYZ @ v))
                if own == g:
                    best = (la[0], lo[0])
                    break
            if best is not None:
                lat[i] = best[0]
                lng[i] = best[1]
    return lat, lng


def _rotate_digits_pent60cw_row(d: np.ndarray, res: int) -> np.ndarray:
    """Inverse of the pentagon ccw digit rotation for one digit row
    (_h3RotatePent60cw): rotate all digits cw, with the extra cw
    rotation when the leading digit lands on K."""
    out = d.copy()
    found = False
    for r in range(res):
        out[r] = _ROT_CW[out[r]]
        if not found and out[r] != 0:
            found = True
            if out[r] == _K_DIGIT:
                out = _ROT_CW[out]
    return out


def _pentagon_center(cell: int) -> tuple[float, float] | None:
    """Center of a cell in a pentagon base cell: reverse the encoder's
    face-frame transform for each of the 5 surrounding faces and keep
    the candidate whose re-encode round-trips (the encoder is the
    validated parity surface, so a round-tripping candidate is the
    true center).  Returns radians (lat, lng) or None."""
    cell_u = np.uint64(cell)
    res = int(get_resolution(np.array([cell_u]))[0])
    bc = int(get_base_cell(np.array([cell_u]))[0])
    digits_home = np.array(
        [
            int((int(cell_u) >> ((15 - rr) * 3)) & 7)
            for rr in range(1, res + 1)
        ],
        dtype=np.int64,
    )
    _build_bc_lut()
    # faces + slots + rots where this pentagon appears
    views = []
    for f in range(20):
        for slot in _VERTEX_SLOTS:
            if int(_BC_LUT[f][slot]) == bc:
                views.append((f, slot, int(_BC_ROT[f][slot])))
    for f, slot, nrot in views:
        dF = digits_home.copy()
        for _ in range(nrot):
            dF = _rotate_digits_pent60cw_row(dF, res)
        for unfix in ("none", "ccw", "cw"):
            d2 = dF.copy()
            if unfix == "ccw":
                d2 = _ROT_CCW[d2]
            elif unfix == "cw":
                d2 = _ROT_CW[d2]
            # rebuild position in F's frame from the slot coords
            a = float(slot[0] - slot[2])
            b = float(slot[1] - slot[2])
            for rr in range(1, res + 1):
                if rr % 2 == 1:
                    a, b = 2.0 * a + b, 3.0 * b - a
                else:
                    a, b = 3.0 * a - b, a + 2.0 * b
                off = _DIGIT_AXIAL[d2[rr - 1]]
                a += off[0]
                b += off[1]
            scale = M_SQRT7 ** res
            x = (a - 0.5 * b) / scale
            y = (b * M_SIN60) / scale
            rp = float(np.hypot(x, y))
            theta_used = float(np.arctan2(y, x))
            if res % 2 == 1:
                theta_used += M_AP7_ROT_RADS
            az = FACE_AX_AZ[f] - theta_used
            dist = float(np.arctan(rp * RES0_U_GNOMONIC))
            clat, clng = FACE_CENTER_GEO[f]
            if rp < 1e-15:
                lat, lng = float(clat), float(clng)
            else:
                lat_a, lng_a = _az_destination(
                    np.float64(clat), np.float64(clng), np.float64(az),
                    np.float64(dist),
                )
                lat, lng = float(lat_a), float(lng_a)
            enc = latlng_to_cell(np.degrees(lat), np.degrees(lng), res)
            if int(enc) == int(cell_u):
                return lat, lng
    return None


def _disk_offsets(k: int) -> list[tuple[int, int]]:
    """Axial offsets within hex grid distance k, sorted by distance
    (axial basis (a, b) = (i−k, j−k): dist = (|da|+|db|+|da−db|)/2)."""
    offs = [
        (da, db)
        for da in range(-k, k + 1)
        for db in range(-k, k + 1)
        if (abs(da) + abs(db) + abs(da - db)) // 2 <= k
    ]
    offs.sort(key=lambda t: (abs(t[0]) + abs(t[1]) + abs(t[0] - t[1])) // 2)
    return offs


def grid_disk(cells, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """H3 gridDisk (kRing): every cell within grid distance ≤ k of
    each origin (h3lib gridDisk role; the neighbor-join primitive for
    cell-partitioned spatial smoothing).

    Exact lattice stepping on each origin's home face: rebuild the
    res-scale axial position (`_axial_on_home`), add each disk offset,
    refold cross-face positions through the exact unfold transforms
    (`_resolve_overage`), re-encode with the validated encoder.
    Around pentagon base cells the deleted-wedge steps collapse onto
    real neighbors on re-encode and are deduplicated (a pentagon
    origin yields its 5 true neighbors + itself at k=1).

    Returns ``(origin_idx, neighbor_cell)`` flat arrays — one row per
    (origin, member) pair, origin included at distance 0, deduplicated
    per origin.
    """
    _build_unfolds()
    cells = np.atleast_1d(np.asarray(cells, np.uint64))
    n = len(cells)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    res_arr = get_resolution(cells).astype(np.int64)
    if len(np.unique(res_arr)) > 1:
        oi, nb = [], []
        for r in np.unique(res_arr):
            m = np.flatnonzero(res_arr == r)
            ai, bi = grid_disk(cells[m], k)
            oi.append(m[ai])
            nb.append(bi)
        return np.concatenate(oi), np.concatenate(nb)
    res = int(res_arr[0])
    home, a, b_ax, is_pent = _axial_on_home(cells, res)
    rows = []
    ids = []
    for da, db in _disk_offsets(k):
        aa = a + float(da)
        bb = b_ax + float(db)
        lat, lng = _project_axial(home, aa, bb, res)
        lat, lng = _resolve_overage(home, aa, bb, res, lat, lng)
        ids.append(latlng_to_cell(np.degrees(lat), np.degrees(lng), res))
        rows.append(np.arange(n, dtype=np.int64))
    rows_c = np.concatenate(rows)
    ids_c = np.concatenate(ids)
    # pentagon contamination: the home-frame lattice does not model the
    # deleted wedge — any origin in a pentagon base cell, or whose
    # stepped members land in one, is recomputed through the sampled
    # safe path (gridDiskDistancesSafe role)
    bad = is_pent.copy()
    member_pent = _BC_IS_PENT[get_base_cell(ids_c).astype(np.int64)]
    np.logical_or.at(bad, rows_c, member_pent)
    if bad.any():
        keep = ~bad[rows_c]
        rows_l = [rows_c[keep]]
        ids_l = [ids_c[keep]]
        for i in np.flatnonzero(bad):
            m = _disk_safe(int(cells[i]), k)
            rows_l.append(np.full(len(m), i, np.int64))
            ids_l.append(m)
        rows_c = np.concatenate(rows_l)
        ids_c = np.concatenate(ids_l)
    pairs = np.stack([rows_c, ids_c.view(np.int64)], axis=1)
    uniq = np.unique(pairs, axis=0)  # H3 ids have bit 63 = 0: int64-safe
    return uniq[:, 0], uniq[:, 1].astype(np.uint64)


def _xyz_to_latlng(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit xyz (n,3) → (lat, lng) radians."""
    lat = np.arcsin(np.clip(p[:, 2], -1.0, 1.0))
    lng = np.arctan2(p[:, 1], p[:, 0])
    return lat, lng


def _disc_points(p: np.ndarray, radius: float, n: int) -> np.ndarray:
    """n points on the circle of angular ``radius`` around unit vector
    p (3,) — tangent-plane great-circle rotation."""
    ref = np.array([0.0, 0.0, 1.0]) if abs(p[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = np.cross(p, ref)
    u /= np.linalg.norm(u)
    v = np.cross(p, u)
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return (
        np.cos(radius) * p[None, :]
        + np.sin(radius) * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * v)
    )


def _edge_adjacent(c: int, m: int, spacing: float, res: int) -> bool:
    """Adjacency test by geodesic traversal: sample the segment
    between the two centers.  In a hex grid (and around pentagons)
    two cells share an edge iff the center-to-center geodesic crosses
    directly from one to the other; any distance-2 pair has a third
    cell owning a contiguous middle stretch of the path.  Tolerates
    ≤2 stray samples for paths grazing a 3-cell vertex."""
    la, lo = cell_to_latlng(np.array([c, m], np.uint64))
    p = _geo_to_xyz(np.radians(la), np.radians(lo))
    dot = float(np.clip(p[0] @ p[1], -1.0, 1.0))
    omega = np.arccos(dot)
    if omega < 1e-12 or omega > np.pi - 1e-6:
        return False
    t = np.linspace(0.04, 0.96, 33)
    so = np.sin(omega)
    pts = (
        np.sin((1.0 - t) * omega)[:, None] * p[0][None, :]
        + np.sin(t * omega)[:, None] * p[1][None, :]
    ) / so
    lat, lng = _xyz_to_latlng(pts)
    ids = latlng_to_cell(np.degrees(lat), np.degrees(lng), res)
    in_pair = (ids == np.uint64(c)) | (ids == np.uint64(m))
    return (
        bool((ids == np.uint64(c)).any())
        and bool((ids == np.uint64(m)).any())
        and int((~in_pair).sum()) <= 2
    )


def _local_spacing(cell: int, res: int) -> float:
    """Angular center spacing near a cell (home-frame lattice step —
    magnitude is accurate even where the direction distorts)."""
    cells = np.array([cell], np.uint64)
    home, a, b_ax, _ = _axial_on_home(cells, res)
    la0, lo0 = _project_axial(home, a, b_ax, res)
    la1, lo1 = _project_axial(home, a + 1.0, b_ax, res)
    p0 = _geo_to_xyz(la0, lo0)[0]
    p1 = _geo_to_xyz(la1, lo1)[0]
    return float(np.arccos(np.clip(p0 @ p1, -1.0, 1.0)))


def _disk1_safe(cell: int) -> np.ndarray:
    """k=1 disk of one cell, robust to pentagon wedge distortion:
    discover candidates by encoding rings of sample points around the
    center, then keep only midpoint-verified edge neighbors
    (gridDiskDistancesSafe role)."""
    res = int(get_resolution(np.array([cell], np.uint64))[0])
    s = _local_spacing(cell, res)
    la, lo = cell_to_latlng(np.array([cell], np.uint64))
    p = _geo_to_xyz(np.radians(la), np.radians(lo))[0]
    pts = np.concatenate(
        [_disc_points(p, r * s, 64) for r in (0.55, 0.8, 1.0, 1.25)]
    )
    lat, lng = _xyz_to_latlng(pts)
    cand = np.unique(latlng_to_cell(np.degrees(lat), np.degrees(lng), res))
    out = [np.uint64(cell)]
    for m in cand:
        if m != np.uint64(cell) and _edge_adjacent(cell, int(m), s, res):
            out.append(m)
    return np.array(sorted(int(x) for x in out), np.uint64)


def _disk_safe(cell: int, k: int) -> np.ndarray:
    """BFS k-disk built from per-cell safe 1-disks."""
    members = {int(cell)}
    frontier = {int(cell)}
    for _ in range(k):
        new: set[int] = set()
        for f in frontier:
            new.update(int(x) for x in _disk1_safe(f))
        frontier = new - members
        members |= new
    return np.array(sorted(members), np.uint64)


# ---------------------------------------------------------------------------
# compact / uncompact / polygonToCells (H3 lib API roles; the reference
# GDAL repo has no H3 — these complete the north-rule cell toolkit)
# ---------------------------------------------------------------------------


def cell_to_children(cells, child_res: int) -> np.ndarray:
    """H3 cellToChildren: all children at ``child_res``. Pentagons skip
    the deleted K (digit 1) subsequence — only the CENTER child stays a
    pentagon, so the skip applies per-level to center-lineage cells."""
    out = np.atleast_1d(np.asarray(cells, np.uint64))
    res = get_resolution(out)
    if (res > child_res).any():
        raise ValueError("child_res finer than cell res required")
    while True:
        res = get_resolution(out)
        todo = res < child_res
        if not todo.any():
            return out
        done = out[~todo]
        cur = out[todo]
        r = get_resolution(cur).astype(np.int64)
        pent = is_pentagon(cur)
        shift = ((14 - r) * 3).astype(np.uint64)
        # clear the child digit (7 -> d) and bump resolution
        base = (cur & ~(np.uint64(0xF) << np.uint64(52))) | (
            (r + 1).astype(np.uint64) << np.uint64(52)
        )
        base &= ~(np.uint64(7) << shift)
        kids = []
        for d in range(7):
            keep = ~(pent & (d == 1))
            if not keep.any():
                continue
            kids.append(base[keep] | (np.uint64(d) << shift[keep]))
        out = np.concatenate([done] + kids)


def compact_cells(cells) -> np.ndarray:
    """H3 compactCells: recursively replace every complete child set
    (7 for hexagon parents, 6 for pentagon parents) by the parent.

    Cells at the finest level whose sibling set is incomplete can never
    compact — they retire to a done accumulator and the loop continues
    over the coarser levels (an early return here would skip compaction
    of coarser complete sets when the finest level has none)."""
    cur = np.unique(np.atleast_1d(np.asarray(cells, np.uint64)))
    done: list[np.ndarray] = []
    while True:
        res = get_resolution(cur).astype(np.int64)
        if len(cur) == 0 or (res == 0).all():
            break
        finest = int(res.max())
        at = cur[res == finest]
        rest = cur[res != finest]
        parents = cell_to_parent(at, finest - 1)
        uniq, inv, counts = np.unique(
            parents, return_inverse=True, return_counts=True
        )
        need = np.where(is_pentagon(uniq), 6, 7)
        complete = counts == need
        done.append(at[~complete[inv]])
        cur = np.unique(np.concatenate([rest, uniq[complete]]))
    if done:
        return np.unique(np.concatenate(done + [cur]))
    return cur


def uncompact_cells(cells, res: int) -> np.ndarray:
    return cell_to_children(cells, res)


def polygon_to_cells(
    exterior: np.ndarray,
    res: int,
    holes: list[np.ndarray] | None = None,
) -> np.ndarray:
    """H3 polygonToCells (center containment, the lib default): every
    res-``res`` cell whose CENTER lies inside the lat/lng polygon.

    Method: sample the polygon bbox on a grid finer than half the
    local cell inradius (every cell overlapping the bbox then receives
    ≥1 sample → no candidate is missed), encode samples, dedupe, and
    keep cells whose exact center passes the even-odd test. Fully
    vectorized; exact for center containment because the final filter
    uses true cell centers."""
    from gdal_ray.geom.predicates import PolygonEdges

    ext = np.asarray(exterior, dtype=np.float64)  # (n, 2) lon/lat
    if ext.ndim != 2 or ext.shape[1] != 2:
        raise ValueError("exterior must be (n, 2) lon/lat")
    lon0, lat0 = ext[:, 0].min(), ext[:, 1].min()
    lon1, lat1 = ext[:, 0].max(), ext[:, 1].max()
    if abs(lat0) > 89.5 or abs(lat1) > 89.5 or (lon1 - lon0) > 180:
        raise ValueError(
            "polygon_to_cells: polar / antimeridian-crossing polygons "
            "need splitting first"
        )
    # local spacing probe at the bbox corners + center
    probes_lat = np.array([lat0, lat1, (lat0 + lat1) / 2])
    probes_lon = np.array([lon0, lon1, (lon0 + lon1) / 2])
    probe_cells = latlng_to_cell(probes_lat, probes_lon, res)
    spacing = min(_local_spacing(int(c), res) for c in probe_cells)
    step_deg = np.degrees(spacing) * 0.35  # < inradius/sqrt(2) margin
    lat_step = step_deg
    lon_step = step_deg / max(np.cos(np.radians(max(abs(lat0), abs(lat1)))), 1e-6)
    lats = np.arange(lat0 - lat_step, lat1 + 2 * lat_step, lat_step)
    lons = np.arange(lon0 - lon_step, lon1 + 2 * lon_step, lon_step)
    glat, glon = np.meshgrid(lats, lons, indexing="ij")
    cand = np.unique(latlng_to_cell(glat.ravel(), glon.ravel(), res))
    clat, clon = cell_to_latlng(cand)
    rings = [ext] + [np.asarray(h, dtype=np.float64) for h in (holes or [])]
    inside = PolygonEdges(rings).contains_points(clon, clat)  # even-odd
    return cand[inside]
