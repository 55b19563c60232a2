"""netCDF classic driver tests — reference-fixture parity pins
(autotest/gdrivers/netcdf.py expectations) + golden write
byte-identity + distributed read parity.

Reference roles: frmts/netcdf/netcdfdataset.cpp;
autotest/gdrivers/netcdf.py test_netcdf_1 (bug636.nc tas 31621),
test_netcdf_11 (cf_geog.nc geotransform), test_netcdf_41
(byte_no_cf.nc GDAL-attr georeferencing),
test_netcdf_write_check_golden_file (byte_nc3_golden.nc
byte-identity from byte.tif).
"""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.netcdf import (
    NCFile,
    open_netcdf,
    read_netcdf,
    read_netcdf_array,
    write_netcdf,
)

D = "/root/reference/autotest/gdrivers/data/netcdf/"
BYTE_TIF = "/root/reference/autotest/gcore/data/byte.tif"


# ---------------------------------------------------------------------------
# read pins


def test_byte_nc():
    r = read_netcdf_array(D + "byte.nc")
    assert checksum_array(r["bands"][0]) == 4672
    assert r["geotransform"] == (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0)
    assert r["crs"] == "EPSG:26711"
    assert r["bands"][0].dtype == np.uint8  # _Unsigned=true applied


def test_bug636_tas():
    # autotest test_netcdf_1: NETCDF:"bug636.nc":tas checksum 31621
    r = read_netcdf_array(D + "bug636.nc", var="tas")
    assert checksum_array(r["bands"][0]) == 31621
    assert r["bands"][0].dtype == np.float32
    assert r["nodata"] == pytest.approx(1e20)


def test_cf_geog_geotransform():
    # autotest test_netcdf_11
    r = read_netcdf_array(D + "cf_geog.nc")
    assert r["geotransform"] == (-0.5, 1.0, 0.0, 10.5, 0.0, -1.0)
    assert r["crs"] == "EPSG:4326"


def test_byte_no_cf():
    # autotest test_netcdf_41: GDAL spatial_ref/GeoTransform attrs on a
    # non-CF grid-mapping variable; no y coordinate var -> the
    # reference's bottom-up default applies (its writer stores
    # bottom-up, so the flip recovers byte.tif's 4672)
    r = read_netcdf_array(D + "byte_no_cf.nc")
    assert r["geotransform"] == (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0)
    assert r["crs"] == "EPSG:26711"
    assert checksum_array(r["bands"][0]) == 4672


def test_glmelt_latlon():
    r = read_netcdf_array(D + "GLMELT_4X5.OCN.nc")
    assert r["bands"][0].shape == (46, 72)
    assert r["crs"] == "EPSG:4326"
    assert r["geotransform"][1] == 5.0


def test_netcdf4_is_boundary():
    with pytest.raises(NotImplementedError):
        NCFile(D + "alldatatypes.nc")  # \x89HDF magic


def test_header_parse():
    nc = open_netcdf(D + "byte.nc")
    assert nc.version == 1
    assert nc.dims == [("x", 20), ("y", 20)]
    assert nc.gatts["Conventions"] == "CF-1.5"
    v = nc.vars["Band1"]
    assert v.shape == (20, 20)
    assert v.attrs["grid_mapping"] == "transverse_mercator"
    # row-slab read == whole read
    whole = nc.read_var("Band1")
    rows = np.vstack([nc.read_rows("Band1", 0, 7),
                      nc.read_rows("Band1", 7, 20)])
    assert np.array_equal(whole, rows)


# ---------------------------------------------------------------------------
# golden write byte-identity (autotest test_netcdf_write_check_golden_file)


def test_write_golden_byte_identical(tmp_path):
    from gdal_ray.raster.gtiff import decode_geotiff

    g = decode_geotiff(open(BYTE_TIF, "rb").read())
    # CRS WKT text serialization is the reference SRS exporter's role
    # (out of scope); the string is carried from the sibling fixture
    # byte.nc — produced by the same reference version as the golden —
    # while every numeric CF attribute is derived from the engine's
    # own EPSG registry and pinned byte-for-byte here.
    wkt = NCFile(D + "byte.nc").vars["transverse_mercator"].attrs["crs_wkt"]
    out = str(tmp_path / "out.nc")
    write_netcdf(out, g["bands"], g["geotransform"], crs=g["crs"], wkt=wkt)
    assert (open(out, "rb").read()
            == open(D + "byte_nc3_golden.nc", "rb").read())


# ---------------------------------------------------------------------------
# writer <-> reader roundtrips


def test_roundtrip_multiband_float(tmp_path):
    a1 = np.arange(12, dtype=np.float32).reshape(3, 4)
    a2 = a1 * 2 + 1
    p = str(tmp_path / "mb.nc")
    write_netcdf(p, [a1, a2], (10, 1, 0, 20, 0, -1), crs="EPSG:4326")
    r = read_netcdf_array(p)
    assert len(r["bands"]) == 2
    assert np.array_equal(r["bands"][0], a1)
    assert np.array_equal(r["bands"][1], a2)
    assert r["geotransform"] == (10.0, 1.0, 0.0, 20.0, 0.0, -1.0)
    assert r["crs"] == "EPSG:4326"


def test_roundtrip_int16_nodata(tmp_path):
    a = (np.arange(20, dtype=np.int16) - 7).reshape(4, 5)
    p = str(tmp_path / "i16.nc")
    write_netcdf(p, [a], (0, 2, 0, 8, 0, -2), crs="EPSG:4326", nodata=-7)
    r = read_netcdf_array(p)
    assert np.array_equal(r["bands"][0], a)
    assert r["nodata"] == -7.0


def test_roundtrip_float64(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 9))
    p = str(tmp_path / "f64.nc")
    write_netcdf(p, [a], (0, 1, 0, 5, 0, -1), crs="EPSG:4326")
    r = read_netcdf_array(p)
    assert np.array_equal(r["bands"][0], a)


def test_load_raster_dispatch(tmp_path):
    from gdal_ray.drivers import load_raster

    r = load_raster(D + "byte.nc")
    assert checksum_array(r["bands"][0]) == 4672


# ---------------------------------------------------------------------------
# record variables (numrecs > 0): synthesize a file by patching the
# writer's fixed layout is not possible, so build a minimal classic
# file by hand and check read_var / read_rows agree


def _record_file(tmp_path) -> str:
    import struct

    h = bytearray()
    h += b"CDF\x01"
    h += struct.pack(">i", 3)                      # numrecs
    h += struct.pack(">ii", 0x0A, 2)
    h += struct.pack(">i", 4) + b"time" + struct.pack(">i", 0)  # record dim
    h += struct.pack(">i", 1) + b"x\x00\x00\x00" + struct.pack(">i", 5)
    h += struct.pack(">ii", 0, 0)                  # no gatts
    h += struct.pack(">ii", 0x0B, 1)
    h += struct.pack(">i", 1) + b"v\x00\x00\x00"
    h += struct.pack(">i", 2) + struct.pack(">ii", 0, 1)
    h += struct.pack(">ii", 0, 0)                  # no vatts
    begin = len(h) + 12
    h += struct.pack(">iii", 3, 12, begin)         # NC_SHORT vsize begin
    data = np.arange(15, dtype=">i2").reshape(3, 5)
    # single record var: stride = unpadded record (10 bytes)
    body = data.tobytes()
    p = str(tmp_path / "rec.nc")
    open(p, "wb").write(bytes(h) + body)
    return p


def test_record_variable(tmp_path):
    p = _record_file(tmp_path)
    nc = NCFile(p)
    assert nc.numrecs == 3
    assert nc.vars["v"].isrec
    assert nc.recsize == 10                        # unpadded single recvar
    arr = nc.read_var("v")
    assert np.array_equal(arr, np.arange(15).reshape(3, 5))
    assert np.array_equal(nc.read_rows("v", 1, 3),
                          np.arange(5, 15).reshape(2, 5))


# ---------------------------------------------------------------------------
# distributed read parity (ray fixture from conftest)


def test_read_netcdf_distributed(ray_session):
    from gdal_ray.raster import model

    ds = read_netcdf(D + "byte.nc", slab_rows=7)
    t = ds.take_all()
    import pyarrow as pa

    table = pa.Table.from_pylist(t)
    arr = model.to_array(table)
    ref = read_netcdf_array(D + "byte.nc")["bands"][0]
    assert np.array_equal(arr, ref)
    assert checksum_array(arr) == 4672


def test_read_netcdf_distributed_float(ray_session, tmp_path):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(37, 11)).astype(np.float32)
    p = str(tmp_path / "big.nc")
    write_netcdf(p, [a], (0, 1, 0, 37, 0, -1), crs="EPSG:4326")
    ds = read_netcdf(p, slab_rows=8)
    import pyarrow as pa

    from gdal_ray.raster import model

    arr = model.to_array(pa.Table.from_pylist(ds.take_all()))
    assert np.array_equal(arr, a)
