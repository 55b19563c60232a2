"""GTX vertical-datum grid tests — reference-fixture pins
(autotest/gdrivers/gtx.py test_gtx_1: hydroc1.gtx checksum 64183,
geotransform (276.725, 0.05, 0, 42.775, 0, -0.05), WGS84) plus
roundtrip and the PROJ-role bilinear interpolation.

Reference role: frmts/raw/gtxdataset.cpp.
"""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.gtx import (
    NODATA,
    decode_gtx,
    encode_gtx,
    gtx_interpolate,
    read_gtx,
)

HYDROC1 = "/root/reference/autotest/gdrivers/data/gtx/hydroc1.gtx"
EGM96 = "/root/reference/autotest/proj_grids/egm96_15_extract.gtx"


def test_hydroc1_pin():
    r = read_gtx(HYDROC1)
    assert checksum_array(r["bands"][0]) == 64183
    assert r["geotransform"] == (276.725, 0.05, 0.0, 42.775, 0.0, -0.05)
    assert r["crs"] == "EPSG:4326"
    assert r["bands"][0].shape == (11, 21)
    assert r["nodata"] == pytest.approx(-88.8888, abs=1e-3)


def test_load_raster_dispatch():
    from gdal_ray.drivers import load_raster

    r = load_raster(HYDROC1)
    assert checksum_array(r["bands"][0]) == 64183


def test_egm96_extract_reads():
    # PROJ's own vertical grid extract: 3x3, all values finite
    r = read_gtx(EGM96)
    assert r["bands"][0].shape == (3, 3)
    assert np.isfinite(r["bands"][0]).all()


def test_roundtrip_bytes():
    raw = open(HYDROC1, "rb").read()
    r = decode_gtx(raw)
    assert encode_gtx(r["bands"][0], r["geotransform"]) == raw


def test_roundtrip_synthetic(tmp_path):
    rng = np.random.default_rng(7)
    arr = rng.normal(0, 30, (5, 8)).astype(np.float32)
    gt = (10.0, 0.25, 0.0, 47.0, 0.0, -0.25)
    from gdal_ray.raster.gtx import write_gtx

    p = str(tmp_path / "t.gtx")
    write_gtx(p, arr, gt)
    r = read_gtx(p)
    assert np.array_equal(r["bands"][0], arr)
    assert r["geotransform"] == gt


def test_interpolate_bilinear():
    # exact at cell centers; linear midway
    arr = np.array([[0.0, 10.0], [20.0, 30.0]], np.float32)
    gt = (0.0, 1.0, 0.0, 2.0, 0.0, -1.0)  # centers (.5,1.5) x (.5,1.5)
    g = {"bands": [arr], "geotransform": gt}
    assert gtx_interpolate(g, 0.5, 1.5) == pytest.approx(0.0)
    assert gtx_interpolate(g, 1.5, 0.5) == pytest.approx(30.0)
    assert gtx_interpolate(g, 1.0, 1.0) == pytest.approx(15.0)
    v = gtx_interpolate(g, [0.5, 1.5], [1.5, 1.0])
    assert v == pytest.approx([0.0, (10 + 30) / 2])


def test_interpolate_nodata_and_oob():
    arr = np.array([[NODATA, 10.0], [20.0, 30.0]], np.float32)
    gt = (0.0, 1.0, 0.0, 2.0, 0.0, -1.0)
    g = {"bands": [arr], "geotransform": gt}
    assert np.isnan(gtx_interpolate(g, 0.6, 1.4))  # window poisoned
    assert np.isnan(gtx_interpolate(g, 5.0, 1.0))  # out of grid
    # 0..360 fold: hydroc1 spans lon 276.7..277.8, query at -83 ≡ 277
    r = read_gtx(HYDROC1)
    a = gtx_interpolate(r, -83.0, 42.5)
    b = gtx_interpolate(r, 277.0, 42.5)
    assert a == pytest.approx(b, nan_ok=True)


def test_hydroc1_interior_value():
    # value at the exact center of an interior cell equals the cell
    r = read_gtx(HYDROC1)
    band = r["bands"][0]
    gt = r["geotransform"]
    iy, ix = 5, 10
    lon = gt[0] + (ix + 0.5) * gt[1]
    lat = gt[3] + (iy + 0.5) * gt[5]
    got = gtx_interpolate(r, lon, lat)
    want = float(band[iy, ix])
    if np.isclose(want, NODATA, atol=1e-3):
        assert np.isnan(got)
    else:
        assert got == pytest.approx(want, abs=1e-5)


def test_vertical_shift_stage(ray_session, tmp_path):
    # forward then inverse through a synthetic geoid == identity;
    # off-grid points go null
    import ray.data as rd

    from gdal_ray.raster.gtx import apply_vertical_shift, write_gtx

    rng = np.random.default_rng(3)
    grid = rng.normal(20, 5, (6, 9)).astype(np.float32)
    gt = (0.0, 1.0, 0.0, 6.0, 0.0, -1.0)
    p = str(tmp_path / "geoid.gtx")
    write_gtx(p, grid, gt)
    pts = [{"lon": float(rng.uniform(0.6, 8.4)),
            "lat": float(rng.uniform(0.6, 5.4)),
            "z": float(rng.uniform(0, 100))} for _ in range(200)]
    pts.append({"lon": 50.0, "lat": 3.0, "z": 7.0})  # off-grid
    ds = rd.from_items(pts)
    up = apply_vertical_shift(ds, p, out_col="h")
    back = apply_vertical_shift(up, p, z_col="h", direction=-1.0,
                                out_col="z2")
    rows = back.take_all()
    assert len(rows) == 201
    for r in rows:
        if r["lon"] == 50.0:
            assert r["z2"] is None or np.isnan(r["z2"])
        else:
            assert r["z2"] == pytest.approx(r["z"], abs=1e-9)
            assert r["h"] != pytest.approx(r["z"])  # shift happened
