"""Erdas Imagine HFA driver vs the reference autotest fixtures.

Checksum/metadata expectations are the literal values from
autotest/gcore/hfa_read.py and autotest/gdrivers/hfa.py.
"""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.hfa import hfa_file_list, read_hfa

GCORE = "/root/reference/autotest/gcore/data/"
DRV = "/root/reference/autotest/gdrivers/data/hfa/"


@pytest.mark.parametrize("name,cks", [
    ("byte.img", 4672),
    ("int16.img", 4672),
    ("uint16.img", 4672),
    ("int32.img", 4672),
    ("uint32.img", 4672),
    ("float32.img", 4672),
    ("float64.img", 4672),
    ("utmsmall.img", 50054),
    ("2bit_compressed.img", 11918),
])
def test_hfa_gcore_checksums(name, cks):
    r = read_hfa(GCORE + name)
    assert checksum_array(r["bands"][0]) == cks


def test_hfa_int_float_read():
    r = read_hfa(DRV + "int.img")
    assert checksum_array(r["bands"][0]) == 6691
    r = read_hfa(DRV + "float.img")
    assert checksum_array(r["bands"][0]) == 23529


def test_hfa_int_stats():
    md = read_hfa(DRV + "int.img")["metadata"]
    assert md["STATISTICS_MINIMUM"] == "40918"
    assert md["STATISTICS_MAXIMUM"] == "41134"
    assert md["STATISTICS_MEDIAN"] == "41017"
    assert md["STATISTICS_MODE"] == "41013"
    assert md["STATISTICS_HISTOMIN"] == "40918"
    assert md["STATISTICS_HISTOMAX"] == "41134"
    assert md["LAYER_TYPE"] == "athematic"


def test_hfa_float_stats():
    md = read_hfa(DRV + "float.img")["metadata"]
    assert float(md["STATISTICS_MINIMUM"]) == pytest.approx(
        40.91858291626, abs=1e-4)
    assert float(md["STATISTICS_MAXIMUM"]) == pytest.approx(
        41.134323120117, abs=1e-4)
    assert float(md["STATISTICS_MEDIAN"]) == pytest.approx(
        41.017182931304, abs=1e-4)
    assert float(md["STATISTICS_MODE"]) == pytest.approx(
        41.0104410499, abs=1e-4)
    assert float(md["STATISTICS_STDDEV"]) == pytest.approx(
        0.044636441749041, abs=1e-4)


def test_hfa_histread():
    md = read_hfa(GCORE + "utmsmall.img")["metadata"]
    assert md["STATISTICS_MINIMUM"] == "8"
    assert md["STATISTICS_MEDIAN"] == "148"
    assert md["STATISTICS_HISTOMAX"] == "255"
    assert md["STATISTICS_SKIPFACTORX"] == "1"
    assert md["STATISTICS_SKIPFACTORY"] == "1"
    assert md["STATISTICS_EXCLUDEDVALUES"] == "0"
    hb = md["STATISTICS_HISTOBINVALUES"]
    assert hb.startswith("0|0|0|0|0|0|0|0|8|0|0|0|0|0|0|0|23|")
    assert hb.endswith("|159|0|0|0|0|0|0|0|105|0|0|0|0|0|0|0|824|")
    assert hb.count("|") == 256


def test_hfa_rotated_read():
    gt = read_hfa(DRV + "fg118-91.aux")["geotransform"]
    exp = (11856857.07898215, 0.895867662235625, 0.02684252936279331,
           7041861.472946444, 0.01962103617166367, -0.9007880319529181)
    eps = (abs(exp[1]) + abs(exp[2])) / 100.0
    for a, b in zip(gt, exp):
        assert a == pytest.approx(b, abs=eps)


def test_hfa_mapinformation_units():
    crs = read_hfa(DRV + "fg118-91.aux")["crs"]
    assert crs.startswith(
        'PROJCS["NAD_1983_StatePlane_Virginia_North_FIPS_4501_Feet"')
    assert 'PROJECTION["Lambert_Conformal_Conic_2SP"]' in crs
    for frag, val in [("False_Easting", 11482916.66666666),
                      ("False_Northing", 6561666.666666666),
                      ("Central_Meridian", -78.5),
                      ("Standard_Parallel_1", 38.03333333333333),
                      ("Standard_Parallel_2", 39.2),
                      ("Latitude_Of_Origin", 37.66666666666666)]:
        i = crs.index(frag)
        got = float(crs[i:].split(",", 2)[1].rstrip("]"))
        assert got == pytest.approx(val, rel=1e-9), frag
    assert 'UNIT["Foot_US",0.30480060960122]' in crs


def test_hfa_spill_external():
    r = read_hfa(DRV + "spill.img")
    assert checksum_array(r["bands"][0]) == 1631
    assert checksum_array(r["overviews"][0][0]) == 340
    names = [p.rsplit("/", 1)[-1] for p in hfa_file_list(DRV + "spill.img")]
    assert names == ["spill.img", "spill.ige", "spill.rrd", "spill.rde"]


def test_hfa_bit2grayscale_overview():
    r = read_hfa(DRV + "small1bit.img")
    assert checksum_array(r["overviews"][0][0]) == 4247


def test_hfa_pe_read():
    crs = read_hfa(DRV + "87test.img")["crs"]
    assert crs.startswith('PROJCS["World_Cube"')
    assert 'PROJECTION["Cube"]' in crs
    assert 'PARAMETER["Option",1.0]' in crs


def test_hfa_corrupt_aux():
    r = read_hfa(DRV + "F0116231.aux")
    assert r["bands"][0].shape[1] == 1104
    assert r["metadata"].get("_corrupt_looping") == "true"


def test_hfa_unique_values_color_table():
    ct = read_hfa(DRV + "i8u_c_i.img")["color_table"]
    assert len(ct) == 256
    assert ct[253] == (0, 0, 0, 0)
    assert ct[254] == (255, 255, 170, 255)
    assert ct[255] == (255, 255, 255, 255)


def test_hfa_unique_values_hist():
    md = read_hfa(DRV + "i8u_c_i.img")["metadata"]
    hb = md["STATISTICS_HISTOBINVALUES"]
    assert hb.startswith("12603|1|0|0|45|1|0|0|0|0|656|177|0|0|5026|1062|")
    assert hb.endswith("|45|106|0|0|16|16517|")
    assert hb.count("|") == 256
    assert md["STATISTICS_HISTOMIN"] == "0"
    assert md["STATISTICS_HISTOMAX"] == "255"


def test_hfa_nodata_and_more_fixtures():
    assert checksum_array(read_hfa(DRV + "dem10.img")["bands"][0]) == 13692
    assert checksum_array(
        read_hfa(DRV + "bug_1109.img")["bands"][0]) == 61683
    assert checksum_array(
        read_hfa(DRV + "esri_54049_pe_string_only_broken.img")
        ["bands"][0]) == 4672


def test_hfa_utm_srs():
    crs = read_hfa(GCORE + "utmsmall.img")["crs"]
    assert 'PROJECTION["Transverse_Mercator"]' in crs
    assert 'PARAMETER["scale_factor",0.9996]' in crs
    assert 'PARAMETER["false_easting",500000]' in crs
    assert "NAD" in crs or "Clarke" in crs


def test_hfa_rat_columns():
    rat = read_hfa(GCORE + "rat.img")["rat"]
    assert rat is not None
    assert set(rat) >= {"Red", "Green", "Blue", "Opacity"}
    assert all(len(v) == len(rat["Red"]) for v in rat.values())
    assert rat["Opacity"].dtype == np.float64


def test_hfa_load_raster_dispatch():
    from gdal_ray.drivers import load_raster

    r = load_raster(GCORE + "byte.img")
    assert checksum_array(r["bands"][0]) == 4672
    r = load_raster(DRV + "fg118-91.aux")
    assert r["geotransform"][2] != 0.0
