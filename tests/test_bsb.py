"""BSB / Maptech nautical chart read tests — ALL the reference
autotest pins (gdrivers/bsb.py): checksum 30321 on rgbsmall plus the
index-table and line-break variants, both truncated files raising,
the transverse_mercator geotransform/GCPs, the australia4c cutline
verbatim, and the errant-0x1A header (issue 8765).
Reference role: frmts/bsb/bsb_read.c, bsbdataset.cpp."""

import numpy as np
import pytest

from gdal_ray.raster.bsb import read_bsb
from gdal_ray.raster.checksum import checksum_array

D = "/root/reference/autotest/gdrivers/data/bsb/"


@pytest.mark.parametrize("name", [
    "rgbsmall.kap",            # test_bsb_1: plain sequential scan
    "rgbsmall_index.kap",      # test_bsb_3: tail index table (#2782)
    "rgbsmall_with_line_break.kap",  # test_bsb_4: 0 mid-line data
])
def test_checksum_pins(name):
    r = read_bsb(D + name)
    assert r["bands"][0].shape == (50, 50)
    assert checksum_array(r["bands"][0]) == 30321


def test_index_variant_uses_index_table():
    assert read_bsb(D + "rgbsmall_index.kap")["sequential"] is False
    assert read_bsb(D + "rgbsmall.kap")["sequential"] is True


@pytest.mark.parametrize("name", [
    "rgbsmall_truncated.kap",   # test_bsb_5: cut at a row marker
    "rgbsmall_truncated2.kap",  # test_bsb_6: cut mid row data
])
def test_truncated_raises(name):
    with pytest.raises(ValueError):
        read_bsb(D + name)


def test_transverse_mercator_georef():
    r = read_bsb(D + "transverse_mercator.kap")
    expected_gt = [28487.6637325402, 1.2711141208521637,
                   0.009061669923111566, 6539651.728646593,
                   0.015209115944776083, -1.267821834560455]
    gt = r["geotransform"]
    for i in range(6):
        assert gt[i] == pytest.approx(expected_gt[i],
                                      abs=1e-8 * abs(expected_gt[i]))
    assert "Transverse_Mercator" in r["crs"]
    assert "18.0582833333333" in r["crs"]
    assert len(r["gcps"]) == 3
    pix, line, x, y = r["gcps"][0]
    assert (pix, line) == (25, 577)
    assert x == pytest.approx(28524.670169107143, abs=1e-5)
    assert y == pytest.approx(6538920.57567595, abs=1e-5)


def test_cutline_verbatim():
    r = read_bsb(D + "australia4c.kap")
    assert r["cutline"] == (
        "POLYGON ((112.72859333333334 -8.25404666666667,"
        "156.57827333333333 -7.66159166666667,"
        "164.28394166666666 -40.89653000000000,"
        "106.53042166666667 -41.14970000000000))")


def test_errant_0x1a_in_header_opens():
    # issue 8765: a stray 0x1A inside the chart name record
    r = read_bsb(D + "NZ52201_truncated.KAP")
    assert r["bands"][0].shape == (1, 1)  # the fixture declares RA=1,1


def test_color_table_shifted_down():
    # reference band ctor drops PCT entry 0: exposed i <- RGB record i+1
    r = read_bsb(D + "rgbsmall.kap")
    img = r["bands"][0]
    ct = r["color_table"]
    assert img.max() < len(ct)
    assert all(len(c) == 4 and c[3] == 255 for c in ct)


def test_load_raster_dispatch():
    from gdal_ray.drivers import load_raster

    r = load_raster(D + "rgbsmall.kap")
    assert checksum_array(r["bands"][0]) == 30321
