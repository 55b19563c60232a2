"""SRTMHGT tests — the reference autotest's own recipe reproduced
(gdrivers/srtmhgt.py: n43.dt0 → 1201×1201 nearest upsample →
CreateCopy N43W080.hgt → checksum 60918, geotransform literals) plus
size-table and filename-corner cases.  Reference role:
frmts/srtmhgt/srtmhgtdataset.cpp."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.srtmhgt import (
    NODATA,
    decode_srtmhgt,
    encode_srtmhgt,
    parse_hgt_name,
    read_srtmhgt,
    write_srtmhgt,
)


def _n43_upsampled() -> np.ndarray:
    from gdal_ray.raster.dted import read_dted

    a = read_dted("/root/reference/autotest/gdrivers/data/n43.dt0")[
        "bands"][0].astype(np.int16)
    # GDAL ReadRaster nearest rule: floor((i + 0.5) * src / dst)
    idx = ((np.arange(1201) + 0.5) * 121 / 1201).astype(int)
    return a[np.ix_(idx, idx)]


def test_autotest_recipe_pin(tmp_path):
    up = _n43_upsampled()
    p = str(tmp_path / "N43W080.hgt")
    write_srtmhgt(p, up)
    r = read_srtmhgt(p)
    assert checksum_array(r["bands"][0]) == 60918
    # the autotest's literal geotransform
    want = (-80.0004166666666663, 0.0008333333333333, 0.0,
            44.0004166666666670, 0.0, -0.0008333333333333)
    assert r["geotransform"] == pytest.approx(want, abs=1e-12)
    assert r["crs"] == "EPSG:4326"
    assert r["nodata"] == NODATA
    assert np.array_equal(r["bands"][0], up)


def test_filename_corners():
    assert parse_hgt_name("N43W080.hgt") == (43, -80)
    assert parse_hgt_name("/x/y/S09E141.SRTMGL1.hgt") == (-9, 141)
    assert parse_hgt_name("n00e000.hgt") == (0, 0)
    with pytest.raises(ValueError, match="corner"):
        parse_hgt_name("foo.hgt")


def test_size_table():
    lat, lon = 10, 20
    # SRTM1 3601^2 int16
    a = np.zeros((3601, 3601), np.int16)
    r = decode_srtmhgt(a.astype(">i2").tobytes(), "N10E020.hgt")
    assert r["bands"][0].shape == (3601, 3601)
    assert r["geotransform"][1] == pytest.approx(1 / 3600)
    # half-degree 1801x3601
    b = np.zeros((3601, 1801), np.int16)
    r = decode_srtmhgt(b.astype(">i2").tobytes(), "N10E020.hgt")
    assert r["bands"][0].shape == (3601, 1801)
    assert r["geotransform"][1] == pytest.approx(1 / 1800)
    assert r["geotransform"][5] == pytest.approx(-1 / 3600)
    # .hgts float32 variant
    c = np.zeros((3601, 3601), ">f4")
    r = decode_srtmhgt(c.tobytes(), "N10E020.hgts")
    assert r["bands"][0].dtype == np.float32
    # sidecar single-byte
    d = np.zeros((3601, 3601), np.uint8)
    r = decode_srtmhgt(d.tobytes(), "N10E020.num")
    assert r["bands"][0].dtype == np.uint8 and r["nodata"] is None
    with pytest.raises(ValueError, match="tile size"):
        decode_srtmhgt(b"\x00" * 100, "N10E020.hgt")
    with pytest.raises(ValueError, match="legal SRTM grid"):
        encode_srtmhgt(np.zeros((10, 10), np.int16))


def test_load_raster_dispatch(tmp_path):
    from gdal_ray.drivers import load_raster

    p = str(tmp_path / "N43W080.hgt")
    write_srtmhgt(p, _n43_upsampled())
    assert checksum_array(load_raster(p)["bands"][0]) == 60918
