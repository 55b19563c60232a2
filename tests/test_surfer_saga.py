"""Golden Software Surfer + SAGA grid drivers — autotest pins."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.saga import read_saga, write_saga
from gdal_ray.raster.surfer import (NODATA, decode_gs7bg, decode_gsbg,
                                    encode_gs7bg, encode_gsbg,
                                    read_surfer)

D = "/root/reference/autotest/gdrivers/data/"
GT = (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0)  # byte.tif's gt


class TestSurfer:
    @pytest.mark.parametrize("name", [
        "gsg/gsg_ascii.grd",     # gdrivers/gsg.py test_gsg_2 (GSAG)
        "gsg/gsg_binary.grd",    # test_gsg_1 (GSBG, Surfer 6)
        "gsg/gsg_7binary.grd",   # test_gsg_3 (GS7BG, Surfer 7)
    ])
    def test_reference_pins(self, name):
        d = read_surfer(D + name)
        assert d["bands"][0].shape == (20, 20)
        assert checksum_array(d["bands"][0]) == 4672
        assert d["geotransform"] == pytest.approx(GT)

    def test_three_forms_value_equal(self):
        a = read_surfer(D + "gsg/gsg_ascii.grd")["bands"][0]
        b = read_surfer(D + "gsg/gsg_binary.grd")["bands"][0]
        c = read_surfer(D + "gsg/gsg_7binary.grd")["bands"][0]
        assert np.array_equal(a.astype(np.float64), b.astype(np.float64))
        assert np.array_equal(b.astype(np.float64), c.astype(np.float64))

    def test_roundtrip_v6_and_v7(self):
        rng = np.random.default_rng(4)
        arr = rng.normal(50, 20, (9, 7)).astype(np.float32)
        arr[0, 0] = np.float32(NODATA)
        gt = (100.0, 5.0, 0.0, 400.0, 0.0, -5.0)
        d6 = decode_gsbg(encode_gsbg(arr, gt))
        assert np.array_equal(d6["bands"][0], arr)
        assert d6["geotransform"] == pytest.approx(gt)
        d7 = decode_gs7bg(encode_gs7bg(arr.astype(np.float64), gt))
        assert np.allclose(d7["bands"][0], arr.astype(np.float64))
        assert d7["geotransform"] == pytest.approx(gt)


class TestSAGA:
    def test_reference_pin(self):
        # gdrivers/saga.py test_saga_1: checksum 108
        d = read_saga(D + "saga/4byteFloat.sdat")
        assert d["bands"][0].shape == (10, 10)
        assert checksum_array(d["bands"][0]) == 108
        assert d["nodata"] == -99999.0

    def test_zipped_variant(self):
        # test_saga_12: .sg-grd-z reads identically through /vsizip/
        d = read_saga(D + "saga/4byteFloat.sg-grd-z")
        assert checksum_array(d["bands"][0]) == 108
        base = read_saga(D + "saga/4byteFloat.sdat")
        assert np.array_equal(d["bands"][0], base["bands"][0])

    @pytest.mark.parametrize("dtype", ["u1", "i2", "u4", "i4", "f4",
                                       "f8"])
    def test_roundtrip_dtypes(self, dtype, tmp_path):
        rng = np.random.default_rng(8)
        arr = rng.integers(0, 100, (6, 11)).astype(dtype)
        gt = (10.0, 2.5, 0.0, 90.0, 0.0, -2.5)
        p = str(tmp_path / "g.sdat")
        write_saga(p, arr, gt)
        d = read_saga(p)
        assert np.array_equal(d["bands"][0], arr)
        assert d["geotransform"] == pytest.approx(gt)
        assert d["bands"][0].dtype.kind == np.dtype(dtype).kind

    def test_loader_dispatch(self):
        from gdal_ray.drivers import load_raster

        assert checksum_array(
            load_raster(D + "gsg/gsg_binary.grd")["bands"][0]) == 4672
        assert checksum_array(
            load_raster(D + "saga/4byteFloat.sg-grd-z")["bands"][0]) == 108
        # AAIGrid .grd files still reach the AAIGrid reader
        import glob

        for f in glob.glob(D + "aaigrid/*.grd")[:1]:
            out = load_raster(f)
            assert len(out["bands"]) >= 1
