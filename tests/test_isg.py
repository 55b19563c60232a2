"""ISG geoid-grid reader — pinned to the reference autotest
(gdrivers/isg.py): test.isg checksum 159 + literal gt, the
0.0167-family rounding auto-correction, the 0.5% approximate-georef
warning path, the rejected inconsistent header, DMS coord units and
>1024-byte headers."""

import pytest

from gdal_ray.raster.aaigrid import read_isg
from gdal_ray.raster.checksum import checksum_array

I = "/root/reference/autotest/gdrivers/data/isg"


class TestISG:
    def test_basic(self):
        d = read_isg(f"{I}/test.isg")
        assert checksum_array(d["bands"][0]) == 159
        assert d["geotransform"] == (120.0, 0.25, 0.0, 41.0, 0.0, -0.25)
        assert d["nodata"] == pytest.approx(-9999.0)
        assert not d["approx_georef"]

    def test_rounding_auto_corrected(self):
        d = read_isg(f"{I}/approx_georeferencing_auto_corrected.isg")
        assert d["geotransform"] == pytest.approx(
            (-76.0098535, 0.016667, 0.0, -20.0087335, 0.0, -0.016667),
            rel=1e-8)
        assert not d["approx_georef"]

    def test_approx_with_warning(self):
        d = read_isg(f"{I}/approx_georeferencing_warning.isg")
        assert d["approx_georef"]
        assert d["geotransform"] == pytest.approx(
            (-76.0083, 0.01666694444444445, 0.0, -20.0083, 0.0,
             -0.016667027027027027), rel=1e-8)

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            read_isg(f"{I}/approx_georeferencing_rejected_by_default"
                     ".isg")

    def test_dms_units(self):
        d = read_isg(f"{I}/header_dms.isg")
        assert d["geotransform"] == pytest.approx(
            (119.9875, 0.025, 0.0, 50.0083333333, 0.0,
             -0.01666666666), rel=1e-8)

    def test_large_header(self):
        d = read_isg(f"{I}/header_larger_than_1024bytes.isg")
        assert d["geotransform"] == pytest.approx(
            (12.99375, 0.0125, 0.0, 47.00416666666666, 0.0,
             -0.008333333333333333), rel=1e-8)

    def test_dispatch(self):
        from gdal_ray.drivers import load_raster

        assert checksum_array(
            load_raster(f"{I}/test.isg")["bands"][0]) == 159
