"""Northwood / Vertical Mapper GRD + GRC drivers — autotest pins."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.nwtgrd import read_nwt_grc, read_nwt_grd

D = "/root/reference/autotest/gdrivers/data/"


class TestNWTGRD:
    def test_all_four_band_pins(self):
        # gdrivers/nwt_grd.py test_nwt_grd_1: bands 1-3 = color-ramp
        # RGB, band 4 = the Float32 surface
        d = read_nwt_grd(D + "nwt_grd/nwt_grd.grd")
        want = [28093, 33690, 20365, 25856]
        assert [checksum_array(b) for b in d["bands"]] == want

    def test_surface_semantics(self):
        d = read_nwt_grd(D + "nwt_grd/nwt_grd.grd")
        z = d["bands"][3]
        assert z.dtype == np.float32
        # 0 raw = nodata sentinel; valid range within zmin..zmax
        valid = z[z != np.float32(-1.0e37)]
        assert valid.size > 0
        assert d["geotransform"][1] == pytest.approx(0.5)

    def test_rgb_from_ramp_are_uint8(self):
        d = read_nwt_grd(D + "nwt_grd/nwt_grd.grd")
        for b in d["bands"][:3]:
            assert b.dtype == np.uint8


class TestNWTGRC:
    def test_reference_pin(self):
        # gdrivers/nwt_grc.py test_nwt_grc_1: checksum 46760
        d = read_nwt_grc(D + "nwt_grc/nwt_grc.grc")
        assert d["bands"][0].shape == (181, 265)
        assert checksum_array(d["bands"][0]) == 46760

    def test_class_dictionary(self):
        d = read_nwt_grc(D + "nwt_grc/nwt_grc.grc")
        # the fixture's third usLen is 4: both this reader and the
        # reference's C-string read yield "thre"
        assert [c["name"] for c in d["classes"]] == ["one", "two",
                                                     "thre"]
        assert d["classes"][0]["rgb"] == (255, 0, 0)

    def test_loader_dispatch(self):
        from gdal_ray.drivers import load_raster

        d = load_raster(D + "nwt_grd/nwt_grd.grd")  # HGPC magic
        assert checksum_array(d["bands"][0]) == 28093
        g = load_raster(D + "nwt_grc/nwt_grc.grc")
        assert checksum_array(g["bands"][0]) == 46760
