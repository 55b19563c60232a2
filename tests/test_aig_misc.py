"""AIG / NGSGEOID / Leveller drivers, pinned against the reference
autotests (gdrivers/aigrid.py, ngsgeoid.py, leveller.py)."""

import numpy as np
import pytest

from conftest import ref_path
from gdal_ray.raster.aig import read_aig
from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.leveller import read_leveller
from gdal_ray.raster.ngsgeoid import read_ngsgeoid

AIG = "autotest/gdrivers/data/aigrid"
NGS = "autotest/gdrivers/data/ngsgeoid"
LEV = "autotest/gdrivers/data/leveller"


def test_aig_abc3x1():
    """test_aigrid_1/2/3: checksum 3, exact gt, GDA94 UTM PRJ, byte
    narrowing with nodata 255, colormap entries."""
    g = read_aig(ref_path(f"{AIG}/abc3x1"))
    assert checksum_array(g["bands"][0]) == 3
    assert g["bands"][0].dtype == np.uint8
    assert g["nodata"] == 255
    assert g["geotransform"] == (-0.5, 1.0, 0.0, 0.5, 0.0, -1.0)
    assert g["crs"].startswith(
        'PROJCS["unnamed",GEOGCS["GDA94",'
        'DATUM["Geocentric_Datum_of_Australia_1994"')
    assert len(g["color_table"]) == 256
    assert g["color_table"][0] == (95, 113, 150, 255)
    assert g["color_table"][1] == (95, 57, 29, 255)


def test_aig_uppercase():
    """test_aigrid_4/5: all-uppercase coverage + parent-dir .CLR."""
    g = read_aig(ref_path(f"{AIG}/ABC3X1UC"))
    assert checksum_array(g["bands"][0]) == 3
    assert g["nodata"] == 255
    assert g["color_table"][0] == (95, 113, 150, 255)
    assert g["color_table"][1] == (95, 57, 29, 255)


def test_aig_sta_24bytes():
    """test_aigrid_6: 24-byte LSB sta.adf (gdal #6633)."""
    g = read_aig(ref_path(f"{AIG}/aigrid_sta_24bytes/teststa"))
    assert g["min"] == 0.0
    assert g["max"] == 2.0


def test_aig_open_via_file():
    g = read_aig(ref_path(f"{AIG}/abc3x1/hdr.adf"))
    assert checksum_array(g["bands"][0]) == 3


@pytest.mark.parametrize("name", ["g2009u01_le_truncated.bin",
                                  "g2009u01_be_truncated.bin"])
def test_ngsgeoid(name):
    """test_ngsgeoid_1/2: checksum 65534 + exact geotransform for
    both byte orders."""
    g = read_ngsgeoid(ref_path(f"{NGS}/{name}"))
    assert checksum_array(g["bands"][0]) == 65534
    gt = g["geotransform"]
    assert gt[0] == pytest.approx(229.99166666666667, abs=1e-12)
    assert gt[1] == pytest.approx(0.016666666666670001, abs=1e-12)
    assert gt[3] == pytest.approx(40.00833333333334, abs=1e-11)
    assert gt[5] == pytest.approx(-0.016666666666670001, abs=1e-12)
    assert g["crs"] == "EPSG:4326"


def test_leveller():
    """test_leveller_1: ter6test.ter checksum 33441."""
    g = read_leveller(ref_path(f"{LEV}/ter6test.ter"))
    assert checksum_array(g["bands"][0]) == 33441
    assert g["bands"][0].dtype == np.float32
    assert g["version"] == 6
