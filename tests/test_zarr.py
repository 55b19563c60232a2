"""Zarr v2/v3 read driver tests (reference role: frmts/zarr +
autotest/gdrivers/zarr_driver.py as the parity model). Every decode
case pins against the reference's own fixtures under
autotest/gdrivers/data/zarr (read-only); the flagship pin is
byte_cf1.zarr == byte.tif bit-for-bit (checksum 4672) including the
CF-derived geotransform and EPSG code."""

import numpy as np
import pytest

from conftest import ref_path
from gdal_ray.raster import gtiff
from gdal_ray.raster import zarr as Z
from gdal_ray.raster.checksum import checksum_array

BASE = "autotest/gdrivers/data/zarr/"
BYTE_TIF = "autotest/gcore/data/byte.tif"


def _one(name):
    arrs = Z.open_zarr(ref_path(BASE + name))
    assert len(arrs) == 1, list(arrs)
    return next(iter(arrs.values()))


class TestCompressors:
    """zarr_driver.py::test_zarr_read_compression_methods — every
    chunk decodes to [1, 2]."""

    @pytest.mark.parametrize("name", [
        "zlib.zarr", "gzip.zarr", "blosc.zarr", "lz4.zarr",
        "lzma.zarr", "lzma_with_filters.zarr",
    ])
    def test_reads_one_two(self, name):
        assert _one(name).read().tolist() == [1, 2]

    def test_zstd(self):
        # from-scratch RFC 8878 decoder (raster/zstd.py)
        assert _one("zstd.zarr").read().tolist() == [1, 2]


class TestFilters:
    def test_shuffle(self):
        a = _one("shuffle.zarr")
        assert a.dtype == np.uint16
        assert a.read().tolist() == [1, 2]

    def test_delta(self):
        assert _one("delta_filter_i4.zarr").read().tolist() == list(range(10))

    def test_quantize_casts_astype_back(self):
        a = _one("quantize.zarr")
        v = a.read()
        assert v.dtype == np.float64 and v.shape == (10, 10)

    @pytest.mark.parametrize("name", [
        "fixedscaleoffset_dtype_f4_astype_u1",
        "fixedscaleoffset_dtype_f8_astype_u1",
        "fixedscaleoffset_dtype_f8_astype_u2",
        "fixedscaleoffset_dtype_f8_astype_u4",
        "fixedscaleoffset_dtype_f8_astype_f4",
    ])
    def test_fixedscaleoffset(self, name):
        # zarr_driver.py::test_zarr_read_fixedscaleoffset expectations
        want = [1000.0, 1000.1, 1000.2, 1000.3, 1000.4,
                1000.6, 1000.7, 1000.8, 1000.9, 1001.0]
        got = _one(name + ".zarr").read().tolist()
        assert np.allclose(got, want, atol=1e-4), got


class TestLayout:
    @pytest.mark.parametrize("name,shape", [
        ("order_f_u1.zarr", (4, 4)),
        ("order_f_u2.zarr", (4, 4)),
        ("order_f_u1_3d.zarr", (2, 3, 4)),
    ])
    def test_fortran_order(self, name, shape):
        v = _one(name).read()
        assert v.shape == shape
        assert v.ravel().tolist() == list(range(v.size))

    def test_byte_orders(self):
        le = _one("f2_le.zarr").read()
        be = _one("f2_be.zarr").read()
        assert le[0] == be[0] == 1.5
        assert np.isnan(le[1]) and np.isnan(be[1])

    def test_zero_dim_array(self):
        assert int(_one("empty.zarr").read()) == 120

    def test_missing_chunks_fill(self, tmp_path):
        import json
        d = tmp_path / "fill.zarr"
        d.mkdir()
        (d / ".zarray").write_text(json.dumps({
            "chunks": [2], "compressor": None, "dtype": "<i4",
            "fill_value": 7, "filters": None, "order": "C",
            "shape": [4], "zarr_format": 2}))
        a = Z.ZarrArray(str(d))
        assert a.read().tolist() == [7, 7, 7, 7]


class TestGroups:
    def test_nested_groups(self):
        arrs = Z.open_zarr(ref_path(BASE + "group.zarr"))
        assert list(arrs) == ["foo/bar/baz"]
        assert arrs["foo/bar/baz"].read().tolist() == [1]

    def test_consolidated_zmetadata(self):
        arrs = Z.open_zarr(ref_path(BASE + "group_with_zmetadata.zarr"))
        assert list(arrs) == ["foo/bar/baz"]
        assert arrs["foo/bar/baz"].read().tolist() == [1]

    def test_nczarr_layout(self):
        arrs = Z.open_zarr(ref_path(BASE + "nczarr_v2.zarr"))
        assert "MyGroup/dset1" in arrs
        assert arrs["MyGroup/Group_A/dset3"].read().shape == (2, 2)


class TestV3:
    def test_gzip(self):
        a = _one("v3/gzip.zarr")
        assert a.version == 3
        assert a.read().ravel().tolist() == [1, 2]

    def test_byte_cf1_zr3_pixels(self):
        arrs = Z.open_zarr(ref_path(BASE + "byte_cf1.zr3"))
        v2 = Z.open_zarr(ref_path(BASE + "byte_cf1.zarr"))
        assert np.array_equal(arrs["Band1"].read(), v2["Band1"].read())


class TestGeoreference:
    """The flagship pin: byte_cf1.zarr is GDAL's own CF translation of
    byte.tif — pixels, geotransform and CRS must all round-trip."""

    def test_byte_cf1_full_parity(self):
        byte = gtiff.decode_geotiff(
            open(ref_path(BYTE_TIF), "rb").read())
        arrs = Z.open_zarr(ref_path(BASE + "byte_cf1.zarr"))
        gt, crs, flip = Z.georeference(arrs, "Band1")
        band = arrs["Band1"].read()
        if flip:
            band = band[::-1]
        assert np.array_equal(band, byte["bands"][0])
        assert checksum_array(band) == 4672
        assert gt == byte["geotransform"]
        assert crs == byte["crs"] == "EPSG:26711"


class TestRayRead:
    def test_read_zarr_tile_table(self, ray_session):
        ds = Z.read_zarr(ref_path(BASE + "byte_cf1.zarr"))
        rows = ds.take_all()
        assert len(rows) == 1
        r = rows[0]
        arr = np.frombuffer(r["data"], r["dtype"]).reshape(
            r["height"], r["width"])
        assert checksum_array(arr) == 4672
        assert r["crs"] == "EPSG:26711"
        assert list(r["geotransform"]) == [440720.0, 60.0, 0.0,
                                           3751320.0, 0.0, -60.0]

    def test_read_zarr_3d_bands(self, ray_session):
        ds = Z.read_zarr(ref_path(BASE + "order_f_u1_3d.zarr"))
        rows = sorted(ds.take_all(), key=lambda r: r["band"])
        assert [r["band"] for r in rows] == [1, 2]
        full = _one("order_f_u1_3d.zarr").read()
        for r in rows:
            arr = np.frombuffer(r["data"], r["dtype"]).reshape(
                r["height"], r["width"])
            assert np.array_equal(arr, full[r["band"] - 1])


class TestV3Sharding:
    """sharding_indexed codec (zarr_driver.py::
    test_zarr_read_simple_sharding expectations) — exercises the
    from-scratch zstd decoder (raster/zstd.py), crc32c-verified shard
    indexes, nesting, transposition and missing-inner-chunk fill."""

    def test_simple_sharding_zstd(self):
        a = _one("v3/simple_sharding.zarr")
        v = a.read()
        assert v.dtype == np.float32 and v.shape == (24, 26)
        assert v.ravel().tolist() == list(range(24 * 26))

    def test_nested_sharding(self):
        v = _one("v3/nested_sharding.zarr").read()
        assert v.dtype == np.uint16 and v.shape == (5, 10)
        assert v.ravel().tolist() == list(range(50))

    def test_transposed_sharding(self):
        # zarr_driver.py::test_zarr_read_transposed_sharding first-14
        # expectation (the fixture's logical content is the transposed
        # arange pattern)
        v = _one("v3/transposed_sharding.zarr").read()
        assert v.shape == (24, 26)
        assert v.ravel().tolist()[:14] == [0, 24, 48, 72, 96, 120, 144,
                                           168, 192, 216, 240, 264, 10, 34]

    def test_big_endian_sharding(self):
        # zarr_driver.py::test_zarr_read_sharding_big_endian
        v = _one("v3/sharding_big_endian.zarr").read()
        assert v.shape == (2, 2)
        assert v.ravel().tolist() == [1, 2, 3, 4]

    def test_fill_value_for_missing_inner_chunks(self):
        v = _one("v3/sharding_fill_value.zarr").read()
        assert v.shape == (3, 3)

    @pytest.mark.parametrize("name", [
        "v3/sharding_with_crc32_then_byte_byte_codec.zarr",
        "v3/sharding_little_endian_then_byte_byte_codec.zarr",
    ])
    def test_outer_bytes_codecs(self, name):
        v = _one(name).read()
        assert v.ravel().tolist() == [1, 2, 3, 4]


class TestWrite:
    """Zarr v2 WRITE (round 5): the byte_cf1 fixture layout, verified
    by full roundtrip through the reader (pixels + geotransform +
    EPSG) and by structural parity of the metadata JSON with the
    reference's own fixture."""

    def test_write_roundtrip_byte_tif(self, tmp_path):
        import json
        byte = gtiff.decode_geotiff(
            open(ref_path(BYTE_TIF), "rb").read())
        p = str(tmp_path / "byte.zarr")
        Z.write_zarr(p, byte["bands"], crs=byte["crs"],
                     geotransform=byte["geotransform"], chunks=(20, 20))
        arrs = Z.open_zarr(p)
        gt, crs, flip = Z.georeference(arrs, "Band1")
        band = arrs["Band1"].read()
        if flip:
            band = band[::-1]
        assert np.array_equal(band, byte["bands"][0])
        assert checksum_array(band) == 4672
        assert gt == byte["geotransform"] and crs == "EPSG:26711"
        mine = json.load(open(tmp_path / "byte.zarr/Band1/.zarray"))
        ref = json.load(open(ref_path(BASE + "byte_cf1.zarr/Band1/.zarray")))
        assert sorted(mine) == sorted(ref)  # same metadata structure

    def test_write_multiband_edge_chunks(self, tmp_path):
        rng = np.random.default_rng(9)
        bands = [rng.integers(0, 1000, (37, 53)).astype(np.int32)
                 for _ in range(3)]
        p = str(tmp_path / "m.zarr")
        Z.write_zarr(p, bands, crs="EPSG:32633",
                     geotransform=(500000.0, 10.0, 0, 4649776.0, 0, -10.0),
                     chunks=(16, 16))
        arrs = Z.open_zarr(p)
        gt, crs, flip = Z.georeference(arrs, "Band2")
        assert crs == "EPSG:32633"
        for bi, want in enumerate(bands, start=1):
            got = arrs[f"Band{bi}"].read()
            if flip:
                got = got[::-1]
            assert np.array_equal(got, want)

    def test_distributed_sink_roundtrip(self, ray_session, tmp_path):
        """read_geotiff → write_zarr_dataset → read_zarr: the chunk
        files come from TASKS, the metadata from the driver; the
        re-read tile table reproduces the pixels and georeferencing."""
        src = ref_path(BYTE_TIF)
        ds = gtiff.read_geotiff([src], tile_size=20)
        p = str(tmp_path / "sink.zarr")
        n = Z.write_zarr_dataset(ds, p)
        assert n == 1
        rows = Z.read_zarr(p).take_all()
        assert len(rows) == 1
        r = rows[0]
        arr = np.frombuffer(r["data"], r["dtype"]).reshape(
            r["height"], r["width"])
        assert checksum_array(arr) == 4672
        assert r["crs"] == "EPSG:26711"
        assert list(r["geotransform"]) == [440720.0, 60.0, 0.0,
                                           3751320.0, 0.0, -60.0]
