"""GlobalMercator parity tests.

Golden values below were produced by a scalar, line-by-line
transcription of the reference formulas
(gdal2tiles.py GlobalMercator :315-533) executed independently of the
vectorized implementation under test (FIXTURES.md §6 pattern: compute
once with the oracle, freeze).
"""

import math

import numpy as np
import pytest

from gdal_ray import tiles


def _oracle_lonlat_to_tms(lon, lat, z, tile_size=256):
    """Scalar transcription of LatLonToMeters→MetersToPixels→PixelsToTile."""
    origin_shift = 2 * math.pi * 6378137 / 2.0
    mx = lon * origin_shift / 180.0
    my = math.log(math.tan((90 + lat) * math.pi / 360.0)) / (math.pi / 180.0)
    my = my * origin_shift / 180.0
    initial_resolution = 2 * math.pi * 6378137 / tile_size
    res = initial_resolution / (2**z)
    px = (mx + origin_shift) / res
    py = (my + origin_shift) / res
    tx = int(math.ceil(px / float(tile_size)) - 1)
    ty = int(math.ceil(py / float(tile_size)) - 1)
    return tx, ty


def test_constants():
    assert tiles.ORIGIN_SHIFT == pytest.approx(20037508.342789244, abs=1e-6)
    assert tiles.INITIAL_RESOLUTION == pytest.approx(156543.03392804062, abs=1e-8)


def test_lonlat_to_meters_known_values():
    mx, my = tiles.lonlat_to_meters(0.0, 0.0)
    assert mx == pytest.approx(0.0, abs=1e-9)
    assert my == pytest.approx(0.0, abs=1e-6)
    mx, my = tiles.lonlat_to_meters(180.0, 0.0)
    assert mx == pytest.approx(20037508.342789244, abs=1e-6)
    # spherical formula: my(85.05112877980659) == ORIGIN_SHIFT
    mx, my = tiles.lonlat_to_meters(0.0, tiles.MAX_LAT)
    assert my == pytest.approx(20037508.342789244, rel=1e-12)


def test_roundtrip_meters():
    rng = np.random.default_rng(42)
    lon = rng.uniform(-180, 180, 1000)
    lat = rng.uniform(tiles.MIN_LAT, tiles.MAX_LAT, 1000)
    mx, my = tiles.lonlat_to_meters(lon, lat)
    lon2, lat2 = tiles.meters_to_lonlat(mx, my)
    np.testing.assert_allclose(lon2, lon, atol=1e-9)
    np.testing.assert_allclose(lat2, lat, atol=1e-9)


def test_tile_assignment_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    lon = rng.uniform(-179.999, 179.999, 500)
    lat = rng.uniform(-84.9, 84.9, 500)
    for z in (0, 1, 7, 9, 12, 18):
        tx, ty = tiles.lonlat_to_tile(lon, lat, z)
        expected = [_oracle_lonlat_to_tms(lo, la, z) for lo, la in zip(lon, lat)]
        np.testing.assert_array_equal(tx, [e[0] for e in expected])
        np.testing.assert_array_equal(ty, [e[1] for e in expected])


def test_boundary_ceil_rule():
    # the reference tile rule is ceil(p/256)-1: a point exactly on a tile
    # edge belongs to the lower/left tile (px=0 → tile -1, as in gdal2tiles)
    tx, ty = tiles.pixels_to_tile(np.array([0.0, 256.0, 256.5, 512.0]),
                                  np.array([0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(tx, [-1, 0, 1, 1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_coordinates_get_tile_minus_one():
    nan, inf = float("nan"), float("inf")
    tx, ty = tiles.lonlat_to_tile(np.array([nan, 10.0, inf, 10.0]),
                                  np.array([10.0, nan, 10.0, 10.0]), 5)
    ox, oy = _oracle_lonlat_to_tms(10.0, 10.0, 5)
    np.testing.assert_array_equal(tx, [-1, ox, -1, ox])
    np.testing.assert_array_equal(ty, [oy, -1, oy, oy])


def test_xyz_flip():
    # golden: lon=0+eps,lat=0+eps at z=1 → TMS (1,1) → XYZ y = 2^1-1-1 = 0
    tx, ty = tiles.lonlat_to_tile(0.001, 0.001, 1)
    assert (tx, ty) == (1, 1)
    assert tiles.tms_to_xyz(ty, 1) == 0
    # involution
    z = 12
    ys = np.arange(0, 2**z, 97)
    np.testing.assert_array_equal(tiles.xyz_to_tms(tiles.tms_to_xyz(ys, z), z), ys)


def test_known_city_tiles_xyz():
    # frozen goldens from the scalar oracle + flip (FIXTURES.md §6 style)
    cases = [
        # (lon, lat, z) -> (x, y_xyz)
        (-0.1276, 51.5074, 12),  # London
        (139.6917, 35.6895, 12),  # Tokyo
        (-74.0060, 40.7128, 7),  # NYC
    ]
    for lon, lat, z in cases:
        tx, ty = _oracle_lonlat_to_tms(lon, lat, z)
        gx, gy = tiles.lonlat_to_xyz_tile(lon, lat, z)
        assert gx == tx
        assert gy == (2**z - 1 - ty)
    # spot value: London z12 XYZ must be the well-known (2046, 1362)
    gx, gy = tiles.lonlat_to_xyz_tile(-0.1276, 51.5074, 12)
    assert (int(gx), int(gy)) == (2046, 1362)


def test_tile_bounds_roundtrip():
    z = 9
    tx, ty = tiles.lonlat_to_tile(12.5, 41.9, z)  # Rome
    minx, miny, maxx, maxy = tiles.tile_bounds(tx, ty, z)
    mx, my = tiles.lonlat_to_meters(12.5, 41.9)
    assert minx <= mx <= maxx
    assert miny <= my <= maxy
    # bounds width == 256 * resolution
    assert (maxx - minx) == pytest.approx(256 * tiles.resolution(z), rel=1e-12)


def test_parent_tile():
    tx, ty, pz = tiles.parent_tile(np.array([4, 5]), np.array([6, 7]), 9)
    np.testing.assert_array_equal(tx, [2, 2])
    np.testing.assert_array_equal(ty, [3, 3])
    assert int(pz) == 8


def test_tile_id_pack_unpack():
    z = np.array([0, 7, 12, 29])
    x = np.array([0, 100, 4000, (1 << 29) - 1])
    y = np.array([0, 55, 1362, (1 << 29) - 1])
    tid = tiles.tile_id(z, x, y)
    z2, x2, y2 = tiles.tile_id_unpack(tid)
    np.testing.assert_array_equal(z2, z)
    np.testing.assert_array_equal(x2, x)
    np.testing.assert_array_equal(y2, y)


def test_quadkey():
    # quadkey of XYZ tile (x=3, y=5, z=3): digits from bits
    # TMS ty for google y=5 at z=3 is 2^3-1-5=2 → quadkey computed on google y
    qk = tiles.quadkey(np.array([3]), np.array([2]), 3)
    # google y = 5 → bits: z=3: mask4: x0,y1→2 ; mask2: x1,y0→1; mask1: x1,y1→3
    assert qk[0] == "213"


def test_global_geodetic():
    gg = tiles.GlobalGeodetic()
    # at z=0 resolution=180/256 → world is 2x1 tiles of 256px
    tx, ty = gg.lonlat_to_tile(0.001, 0.001, 0)
    assert (int(tx), int(ty)) == (1, 0)
    tx, ty = gg.lonlat_to_tile(-179.9, -89.9, 0)
    assert (int(tx), int(ty)) == (0, 0)
    b = gg.tile_bounds(0, 0, 0)
    assert b[0] == pytest.approx(-180.0)
    assert b[1] == pytest.approx(-90.0)
    assert b[2] == pytest.approx(0.0)
    assert b[3] == pytest.approx(90.0)


def test_polar_tiles_clamp_to_distinct_ids():
    # past the Web Mercator limit the TMS y overshoots the pyramid; an
    # unclamped negative XYZ y set every high bit of the packed key
    lon = np.array([0.0, 120.0, -45.0])
    x, y = tiles.lonlat_to_xyz_tile(lon, np.full(3, 89.9), 12)
    np.testing.assert_array_equal(x, [2047, 3413, 1535])
    np.testing.assert_array_equal(y, [0, 0, 0])
    tid = tiles.tile_id(12, x, y)
    assert len(set(tid.tolist())) == 3
    z2, x2, y2 = tiles.tile_id_unpack(tid)
    np.testing.assert_array_equal(z2, [12] * 3)
    np.testing.assert_array_equal(x2, x)
    np.testing.assert_array_equal(y2, y)
    # the south edge, lon -180 and latitudes past the pole (where the
    # Mercator formula is NaN) clamp into the pyramid too
    x, y = tiles.lonlat_to_xyz_tile(np.array([-180.0, 10.0, 10.0, 10.0]),
                                    np.array([0.0, -89.9, 99.9, -99.9]), 3)
    np.testing.assert_array_equal(x, [0, 4, 4, 4])
    np.testing.assert_array_equal(y, [4, 7, 0, 7])
    # a missing coordinate keeps the marker, outside the pyramid
    x, y = tiles.lonlat_to_xyz_tile(np.array([np.nan, 10.0]),
                                    np.array([np.nan, np.nan]), 3)
    np.testing.assert_array_equal(x, [-1, 4])
    np.testing.assert_array_equal(y, [8, 8])


@pytest.mark.parametrize("z, x, y", [(12, -1, 0), (12, 0, -2544),
                                     (12, 1 << 29, 0), (30, 0, 0), (-1, 0, 0)])
def test_tile_id_rejects_unpackable_input(z, x, y):
    with pytest.raises(ValueError, match="tile_id"):
        tiles.tile_id(z, np.array([0, x]), np.array([0, y]))
