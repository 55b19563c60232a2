"""ADRG reader over the generic ISO 8211 parser — pinned to the
reference autotest (gdrivers/adrg.py): checksum 62833 via the .GEN,
.THF and ADRG:gen,img forms; the ZNA 9/18 fixtures' literal
azimuthal-equidistant geotransforms."""

import pytest

from gdal_ray.raster.adrg import adrg_subdatasets, read_adrg
from gdal_ray.raster.checksum import checksum_array

A = "/root/reference/autotest/gdrivers/data/adrg"

ZNA9_GT = (-307675.73602473765, 100.09145391818853, 0.0,
           -179477.5051066006, 0.0, -100.09145391818853)
ZNA18_GT = (-307675.73602473765, 100.09145391818853, 0.0,
            179477.5051066006, 0.0, -100.09145391818853)


class TestADRG:
    def test_gen(self):
        d = read_adrg(f"{A}/SMALL_ADRG/ABCDEF01.GEN")
        assert len(d["bands"]) == 3
        assert d["bands"][0].shape == (128, 128)
        assert checksum_array(d["bands"][0]) == 62833
        assert d["crs"] == "EPSG:4326"
        assert d["metadata"]["ADRG_NAM"] == "ABCDEF01"
        # geographic gt: LSO/PSO at -0.5'' / +48°00'00.5''
        gt = d["geotransform"]
        assert gt[0] == pytest.approx(-0.5 / 3600)
        assert gt[3] == pytest.approx(48 + 0.5 / 3600)
        assert gt[1] == pytest.approx(360.0 / 46067)

    def test_thf(self):
        d = read_adrg(f"{A}/SMALL_ADRG/TRANSH01.THF")
        assert checksum_array(d["bands"][0]) == 62833

    def test_subdataset_form(self):
        subs = adrg_subdatasets(f"{A}/SMALL_ADRG/ABCDEF01.GEN")
        assert len(subs) == 1 and subs[0].startswith("ADRG:")
        d = read_adrg(subs[0])
        assert checksum_array(d["bands"][0]) == 62833

    @pytest.mark.parametrize("zone,gt_exp,crs", [
        (9, ZNA9_GT, "ARC_System_Zone_09"),
        (18, ZNA18_GT, "ARC_System_Zone_18"),
    ])
    def test_polar_zones(self, zone, gt_exp, crs):
        d = read_adrg(f"{A}/SMALL_ADRG_ZNA{zone}/ABCDEF01.GEN")
        assert max(abs(a - b) for a, b in
                   zip(d["geotransform"], gt_exp)) <= 1e-5
        assert d["crs"] == crs

    def test_dispatch(self):
        from gdal_ray.drivers import load_raster

        d = load_raster(f"{A}/SMALL_ADRG/ABCDEF01.GEN")
        assert checksum_array(d["bands"][0]) == 62833
