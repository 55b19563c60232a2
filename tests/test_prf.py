"""Racurs PHOTOMOD PRF / x-dem driver — pinned to the reference
autotest (gdrivers/prf.py): ph.prf checksum 43190 + literal gt +
EPSG:32601; dem.x-dem size/dtype/units/nodata, pyramid overview
1082x1165, node-registered gt (1.5,1,0,9329,0,-2)."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.prf import read_prf

P = "/root/reference/autotest/gdrivers/data/PRF"


class TestPRF:
    def test_ph_prf(self):
        d = read_prf(f"{P}/ph.prf")
        assert d["bands"][0].shape == (268, 201)
        assert d["bands"][0].dtype == np.uint16
        assert checksum_array(d["bands"][0]) == 43190
        assert d["geotransform"] == (1.0, 2.0, 3.0, -7.0, 5.0, 6.0)
        assert d["crs"] == "EPSG:32601"
        assert d["levels"] == 1  # no pyramid

    def test_dem_xdem(self):
        d = read_prf(f"{P}/dem.x-dem")
        assert d["bands"][0].shape == (4663, 4330)
        assert d["bands"][0].dtype == np.float32
        assert d["units"] == "m"
        assert d["levels"] == 2
        assert d["geotransform"] == pytest.approx(
            (1.5, 1.0, 0.0, 9329.0, 0.0, -2.0))
        assert checksum_array(d["bands"][0]) == 0

    def test_dem_overview(self):
        ov = read_prf(f"{P}/dem.x-dem", level=1)
        assert ov["bands"][0].shape == (1165, 1082)

    def test_dispatch(self):
        from gdal_ray.drivers import load_raster

        assert load_raster(f"{P}/ph.prf")["bands"][0].shape == (268, 201)
