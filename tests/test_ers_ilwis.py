"""ER Mapper ERS + ILWIS drivers — reference-autotest pins."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.ers import parse_ers, read_ers
from gdal_ray.raster.ilwis import read_ilwis

D = "/root/reference/autotest/gdrivers/data/"


class TestERS:
    def test_reference_pin(self):
        # gdrivers/ers.py test_ers_1: checksum 64074 + the exact four
        # statistics strings from the RegionInfo "All" block
        d = read_ers(D + "ers/srtm.ers")
        assert d["bands"][0].dtype == np.dtype(">i2")
        assert checksum_array(d["bands"][0]) == 64074
        assert d["stats"] == {
            "STATISTICS_MINIMUM": "-4315",
            "STATISTICS_MAXIMUM": "-3744",
            "STATISTICS_MEAN": "-4020.25",
            "STATISTICS_MEDIAN": "-4000"}
        assert d["nodata"] == 9999.0

    def test_registration_cell_shift(self):
        # DMS registration at cell (1,1) → half the srtm grid's
        # origin shifts by exactly one cell
        d = read_ers(D + "ers/srtm.ers")
        gt = d["geotransform"]
        assert gt[0] == pytest.approx(-180.00833333)
        assert gt[3] == pytest.approx(-59.99166667)

    def test_comment_and_quote_grammar(self):
        # '#' inside quoted strings / brace groups is NOT a comment
        # (the fixture pins this deliberately)
        hdr = parse_ers(open(D + "ers/srtm.ers",
                             encoding="latin-1").read())
        assert hdr["bar"] == "# not a comment"
        assert "#also not a comment" in hdr["baz"]

    def test_case_insensitive_variant(self):
        # test_ers_7: all-lowercase grammar; the fixture's data file
        # is empty, so only the header is checked (band description)
        hdr = parse_ers(open(D + "ers/caseinsensitive.ers",
                             encoding="latin-1").read())
        assert hdr["rasterinfo.bandid.value"] == \
            "RTP 1st Vertical Derivative"
        assert hdr["rasterinfo.celltype"] == "ieee4bytereal"


class TestILWIS:
    def test_reference_pin(self):
        # gdrivers/ilwis.py test_ilwis_1: checksum 2351
        d = read_ilwis(D + "ilwis/LanduseSmall.mpr")
        assert d["bands"][0].shape == (75, 75)
        assert checksum_array(d["bands"][0]) == 2351

    def test_corners_of_corners_geotransform(self):
        # CornersOfCorners=Yes → bounds ARE the edges, no half shift
        d = read_ilwis(D + "ilwis/LanduseSmall.mpr")
        assert d["geotransform"] == pytest.approx(
            (795480.0, 20.0, 0.0, 8090520.0, 0.0, -20.0))

    def test_loader_dispatch(self):
        from gdal_ray.drivers import load_raster

        assert checksum_array(
            load_raster(D + "ers/srtm.ers")["bands"][0]) == 64074
        assert checksum_array(
            load_raster(D + "ilwis/LanduseSmall.mpr")["bands"][0]) \
            == 2351
