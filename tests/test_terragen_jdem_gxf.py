"""Terragen, JDEM and GXF drivers — reference-autotest pins."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.gxf import read_gxf
from gdal_ray.raster.jdem import read_jdem
from gdal_ray.raster.terragen import (decode_terragen, encode_terragen,
                                      read_terragen)

D = "/root/reference/autotest/gdrivers/data/"


class TestTerragen:
    def test_reference_pin(self):
        # gdrivers/terragen.py test_terragen_1: checksum 1128
        d = read_terragen(D + "terragen/float32.ter")
        assert d["bands"][0].shape == (20, 20)
        assert d["bands"][0].dtype == np.int16
        assert checksum_array(d["bands"][0]) == 1128
        # physical = stored·SCAL·hs/65536 + SCAL·bh
        assert d["scale"] == pytest.approx(0.0054931640625)
        assert d["offset"] == pytest.approx(120.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        g = rng.integers(-500, 500, (6, 9)).astype(np.int16)
        d = decode_terragen(encode_terragen(g, scal=15.0,
                                            height_scale=3,
                                            base_height=2))
        assert np.array_equal(d["bands"][0], g)
        assert d["scale"] == pytest.approx(15.0 / 65536 * 3)
        assert d["offset"] == pytest.approx(30.0)


class TestJDEM:
    def test_reference_pin(self):
        # gdrivers/jdem.py test_jdem_1: checksum 15, 0.1 m scaling
        d = read_jdem(D + "jdem/fakejdem.mem")
        assert d["bands"][0].shape == (2, 2)
        assert d["bands"][0].dtype == np.float32
        assert checksum_array(d["bands"][0]) == 15

    def test_ddmmss_angles(self):
        d = read_jdem(D + "jdem/fakejdem.mem")
        gt = d["geotransform"]
        # fixture: LL 49°/1°, UR 50°/2° over a 2×2 grid
        assert gt == pytest.approx((1.0, 0.5, 0.0, 50.0, 0.0, -0.5))


class TestGXF:
    def test_plain_ascii_pin(self):
        # gdrivers/gxf.py test_gxf_1: checksum 90 (GTYPE 0)
        d = read_gxf(D + "gxf/small.gxf")
        assert d["bands"][0].shape == (3, 4)
        assert checksum_array(d["bands"][0]) == 90

    def test_base90_compressed_pin(self):
        # test_gxf_2: checksum 65042 (GTYPE 3 base-90 with runs and
        # dummies), Lambert header with #TRANSFORM scaling
        d = read_gxf(D + "gxf/small2.gxf")
        assert d["bands"][0].shape == (8, 10)
        assert checksum_array(d["bands"][0]) == 65042
        assert d["geotransform"] == pytest.approx(
            (1749993.75, 12.5, 0.0, 4343.75, 0.0, -12.5))

    def test_loader_dispatch(self):
        from gdal_ray.drivers import load_raster

        assert checksum_array(
            load_raster(D + "gxf/small.gxf")["bands"][0]) == 90
        assert checksum_array(
            load_raster(D + "terragen/float32.ter")["bands"][0]) == 1128
        assert checksum_array(
            load_raster(D + "jdem/fakejdem.mem")["bands"][0]) == 15
