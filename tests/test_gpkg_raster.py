"""GeoPackage raster-tile tests — reference-fixture pins
(autotest/gdrivers/gpkg.py roles: test_gpkg_1 PNG CreateCopy round
trip) + distributed read parity.

Reference role: ogr/ogrsf_frmts/gpkg/gdalgeopackagedataset.cpp.
"""

import numpy as np
import pytest

from conftest import ref_path
from gdal_ray.gpkg_raster import (
    read_gpkg_raster,
    read_gpkg_raster_array,
    tile_tables,
    write_gpkg_raster,
)
from gdal_ray.raster.checksum import checksum_array

D = "autotest/gdrivers/data/gpkg/"
BYTE_TIF = "autotest/gcore/data/byte.tif"


def test_byte_gpkg_pin():
    # the reference's byte.gpkg: one grey+alpha PNG tile, 20x20 window
    # cut from the 256x256 grid; band 1 == byte.tif (checksum 4672)
    r = read_gpkg_raster_array(ref_path(D + "byte.gpkg"))
    assert checksum_array(r["bands"][0]) == 4672
    assert r["geotransform"] == (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0)
    assert r["crs"] == "EPSG:26711"
    # padding alpha never leaks into the contents window
    assert len(r["bands"]) == 2
    assert np.all(r["bands"][1] == 255)


def test_raster_and_vector_gpkg():
    # mixed-content file: the tiles table reads the same raster
    assert tile_tables(ref_path(D + "raster_and_vector.gpkg"))
    r = read_gpkg_raster_array(ref_path(D + "raster_and_vector.gpkg"))
    assert checksum_array(r["bands"][0]) == 4672
    # ...and the vector side still reads through the feature path
    from gdal_ray.gpkg import feature_layers, read_gpkg_local

    layers = feature_layers(ref_path(D + "raster_and_vector.gpkg"))
    assert layers
    t = read_gpkg_local(ref_path(D + "raster_and_vector.gpkg"), layers[0])
    assert t.num_rows > 0


def test_createcopy_roundtrip(tmp_path):
    # autotest test_gpkg_1 role: byte.tif -> TILE_FORMAT=PNG gpkg ->
    # read back, checksum + gt + srs preserved
    from gdal_ray.raster.gtiff import decode_geotiff

    g = decode_geotiff(open(ref_path(BYTE_TIF), "rb").read())
    p = str(tmp_path / "out.gpkg")
    write_gpkg_raster(p, g["bands"], g["geotransform"], crs=g["crs"])
    r = read_gpkg_raster_array(p)
    assert np.array_equal(r["bands"][0], g["bands"][0])
    assert checksum_array(r["bands"][0]) == 4672
    assert r["geotransform"] == tuple(g["geotransform"])
    assert r["crs"] == "EPSG:26711"


def test_multiband_multitile_roundtrip(tmp_path):
    # 3-band raster spanning a 2x2 tile grid with ragged edges:
    # interior tile stays RGB, edge tiles pad through RGBA
    rng = np.random.default_rng(5)
    bands = [rng.integers(0, 256, (300, 420), dtype=np.uint8)
             for _ in range(3)]
    gt = (1000.0, 2.0, 0.0, 5000.0, 0.0, -2.0)
    p = str(tmp_path / "mb.gpkg")
    write_gpkg_raster(p, bands, gt, crs="EPSG:3857")
    r = read_gpkg_raster_array(p)
    for i in range(3):
        assert np.array_equal(r["bands"][i], bands[i])
    assert r["geotransform"] == gt


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ValueError, match="8-bit"):
        write_gpkg_raster(str(tmp_path / "x.gpkg"),
                          [np.zeros((4, 4), np.uint16)],
                          (0, 1, 0, 4, 0, -1))


def test_load_raster_dispatch():
    # the CLI loader reaches .gpkg tiles and .zarr stores by extension
    from gdal_ray.drivers import load_raster

    r = load_raster(ref_path(D + "byte.gpkg"))
    assert checksum_array(r["bands"][0]) == 4672
    z = load_raster(ref_path("autotest/gdrivers/data/zarr/byte_cf1.zarr"))
    assert checksum_array(z["bands"][0]) == 4672
    assert z["crs"] == "EPSG:26711"
    assert z["geotransform"] == (440720.0, 60.0, 0.0,
                                 3751320.0, 0.0, -60.0)


def test_read_gpkg_raster_distributed(ray_session):
    import pyarrow as pa

    from gdal_ray.raster import model

    ds = read_gpkg_raster(ref_path(D + "byte.gpkg"))
    t = pa.Table.from_pylist(ds.take_all())
    arr = model.to_array(t, band=1)
    ref = read_gpkg_raster_array(ref_path(D + "byte.gpkg"))["bands"][0]
    assert np.array_equal(arr, ref)
    assert checksum_array(arr) == 4672


def test_write_dataset_sink(ray_session, tmp_path):
    # distributed encode -> driver insert -> read back equal
    import pyarrow as pa

    from gdal_ray.gpkg_raster import write_gpkg_raster_dataset
    from gdal_ray.raster import model

    rng = np.random.default_rng(11)
    arr = rng.integers(0, 256, (512, 256), dtype=np.uint8)
    gt = (0.0, 1.0, 0.0, 512.0, 0.0, -1.0)
    import ray.data as rd

    tiles = model.from_array(arr, "EPSG:3857", gt, tile_size=256)
    ds = rd.from_arrow(tiles)
    p = str(tmp_path / "sink.gpkg")
    write_gpkg_raster_dataset(ds, p)
    r = read_gpkg_raster_array(p)
    assert np.array_equal(r["bands"][0], arr)
