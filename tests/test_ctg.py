"""USGS LULC CTG driver — reference-autotest pin."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.ctg import read_ctg

D = "/root/reference/autotest/gdrivers/data/"


class TestCTG:
    def test_reference_pin(self):
        # gdrivers/ctg.py test_ctg_1: band 1 checksum 21
        d = read_ctg(D + "ctg/fake_grid_cell")
        assert len(d["bands"]) == 6
        assert d["bands"][0].dtype == np.int32
        assert checksum_array(d["bands"][0]) == 21

    def test_georeference(self):
        d = read_ctg(D + "ctg/fake_grid_cell")
        # the header's NW cell centre shifted half a cell to the
        # corner, as the reference expects (gdrivers/ctg.py test_ctg_1)
        assert d["geotransform"] == (421000.0, 200.0, 0.0,
                                     5094400.0, 0.0, -200.0)
        assert d["crs"] == "EPSG:32614"
        assert d["title"] == "FAKE CITY"

    def test_overflow_values_become_zero(self):
        # theme values >= 2e9 read as 0 (the reference's cap)
        d = read_ctg(D + "ctg/fake_grid_cell")
        assert all(b.max() < 2000000000 for b in d["bands"])
