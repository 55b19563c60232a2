"""ISIS3 + ISIS2 cube driver tests — the reference autotest read
pins (gdrivers/isis.py, isis2.py): detached/attached-tiled/GeoTIFF
checksums + SRS + gt, nsper/ob_tran proj strings, BandBin band
metadata rules, ISIS2 arvidson cube.  Reference role:
frmts/pds/isis3dataset.cpp, isis2dataset.cpp."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.isis import parse_pvl, read_isis2, read_isis3

D3 = "/root/reference/autotest/gdrivers/data/isis3/"
D2 = "/root/reference/autotest/gdrivers/data/isis2/"


@pytest.mark.parametrize("name,cks,fmt", [
    ("isis3_detached.lbl", 9978, "BandSequential"),
    ("isis3_unit_test.cub", 42403, "Tile"),
    ("isis3_geotiff.lbl", 9978, "GeoTIFF"),
])
def test_isis3_checksums(name, cks, fmt):
    r = read_isis3(D3 + name)
    assert r["format"] == fmt
    assert checksum_array(r["bands"][0]) == cks


def test_isis3_detached_georef():
    # test_isis_1 pins (gt tolerance = pixel/100, like gdaltest)
    r = read_isis3(D3 + "isis3_detached.lbl")
    exp = (-4766.96484375, 10.102499961853027, 0.0,
           -872623.625, 0.0, -10.102499961853027)
    eps = abs(exp[1]) / 100.0
    for a, b in zip(r["geotransform"], exp):
        assert a == pytest.approx(b, abs=eps)
    crs = r["crs"]
    assert crs.startswith('PROJCS["Equirectangular Mars"')
    assert 'DATUM["D_Mars"' in crs
    assert 'SPHEROID["Mars_localRadius",' in crs
    # ISIS3 simple-elliptical local radius, to the reference digit
    radius = float(crs.split('SPHEROID["Mars_localRadius",')[1]
                   .split(",")[0])
    assert radius == pytest.approx(3394813.857978216, abs=1e-6)
    assert 'PARAMETER["central_meridian",184.4129944]' in crs
    assert 'PARAMETER["standard_parallel_1",-15.1470003]' in crs


def test_isis3_unit_test_georef():
    r = read_isis3(D3 + "isis3_unit_test.cub")
    exp = (653.132641495800044, 0.38, 0, -2298409.710162799805403,
           0, -0.38)
    for a, b in zip(r["geotransform"], exp):
        assert a == pytest.approx(b, abs=0.0038)
    radius = float(r["crs"].split('SPHEROID["mars_localRadius",')[1]
                   .split(",")[0])
    assert radius == pytest.approx(3388271.702979241, abs=1e-6)
    assert 'PARAMETER["central_meridian",195.92]' in r["crs"]
    assert 'PARAMETER["standard_parallel_1",-38.88]' in r["crs"]


def test_isis3_point_perspective():
    r = read_isis3(D3 + "isis3_pointperspective.cub")
    assert r["crs"] == ("+proj=nsper +lat_0=-10 +lon_0=-90 "
                        "+h=31603810 +x_0=0 +y_0=0 +R=3396190 "
                        "+units=m +no_defs")


def test_isis3_oblique_cylindrical():
    r = read_isis3(D3 + "isis3_obliquecylindrical.cub")
    assert r["crs"] == ("+proj=ob_tran +o_proj=eqc +o_lon_p=-90 "
                        "+o_lat_p=180 +lon_0=0 +R=3396190 +units=m "
                        "+no_defs")


def test_isis3_bandbin_single(tmp_path):
    p = tmp_path / "t.lbl"
    p.write_text("""Object = IsisCube
  Object = Core
    Format = BandSequential
    Group = Dimensions
      Samples = 1
      Lines   = 1
      Bands   = 1
    End_Group
    Group = Pixels
      Type       = Real
      ByteOrder  = Lsb
      Base       = 0.0
      Multiplier = 1.0
    End_Group
  End_Object
  Group = BandBin
    FilterName   = "ignored"
    Name         = "My band name"
    Center       = 700 <NANOMETERS>
    Width        = 300 <NANOMETERS>
  End_Group
End_Object
End""")
    r = read_isis3(str(p))
    bi = r["band_info"][0]
    assert bi["name"] == "My band name"
    assert bi["md"] == {
        "BANDWIDTH": "300.000000", "BANDWIDTH_UNIT": "NANOMETERS",
        "WAVELENGTH": "700.000000", "WAVELENGTH_UNIT": "NANOMETERS"}


def test_isis3_bandbin_multiple(tmp_path):
    p = tmp_path / "t.lbl"
    p.write_text("""Object = IsisCube
  Object = Core
    Format = BandSequential
    Group = Dimensions
      Samples = 1
      Lines   = 1
      Bands   = 2
    End_Group
    Group = Pixels
      Type       = Real
      ByteOrder  = Lsb
      Base       = 0.0
      Multiplier = 1.0
    End_Group
  End_Object
  Group = BandBin
    BandSuffixName   = ("first band", "second band")
    BandSuffixUnit   = (DEGREE, DEGREE)
    BandBinCenter    = (1.0348, 1.3128)
    BandBinUnit      = MICROMETER
    Width            = (0.5, 0.6) <um>
  End_Group
End_Object
End""")
    r = read_isis3(str(p))
    b1, b2 = r["band_info"]
    assert b1["name"] == "first band"
    assert b1["unit"] == "DEGREE"
    assert b1["md"] == {
        "BANDWIDTH": "0.500000", "BANDWIDTH_UNIT": "um",
        "WAVELENGTH": "1.034800", "WAVELENGTH_UNIT": "MICROMETER"}
    assert b2["name"] == "second band"
    assert b2["md"]["WAVELENGTH"] == "1.312800"


def test_isis3_list_parse_and_name_priority():
    # FC2 truncated cub: Name wins over FilterName; quoted strings
    # in lists preserved (reference write test pins these tokens)
    r = read_isis3(
        D3 + "FC21B0037339_15142232818F1C_3bands_truncated.cub")
    assert [b["name"] for b in r["band_info"]] == [
        "band 1", "band 2", "band 3"]
    assert len(r["bands"]) == 3
    cube = r["label"]["IsisCube"]
    bb = cube["BandBin"]
    assert bb["FilterNumber"] == [1, 1, 1]
    assert bb["FilterName"] == ["Clear_F1", "Clear_F1", "Clear_F1"]


def test_isis2_arvidson():
    r = read_isis2(D2 + "arvidson_original_truncated.cub")
    assert checksum_array(r["bands"][0]) == 382
    exp = (10157400.403618813, 1200.0000476837158, 0.0,
           -585000.02324581146, 0.0, -1200.0000476837158)
    eps = abs(exp[1]) / 100.0
    for a, b in zip(r["geotransform"], exp):
        assert a == pytest.approx(b, abs=eps)
    crs = r["crs"]
    assert crs.startswith('PROJCS["SIMPLE_CYLINDRICAL VENUS"')
    assert 'SPHEROID["VENUS",6051000,0]' in crs
    assert 'PARAMETER["standard_parallel_1",-6.5]' in crs
    assert r["scale"] == 1.0
    assert r["offset"] == 0.0


def test_pvl_grammar():
    tree, flat = parse_pvl("""Object = Foo
  A = 700 <NANOMETERS>
  B = (1, 2.5, "x y")
  C = "multi
       word"
  Group = G
    D = 3
  End_Group
End_Object
End
Ignored = 1""")
    foo = tree["Foo"]
    assert foo["A"] == {"value": 700, "unit": "NANOMETERS"}
    assert foo["B"] == [1, 2.5, "x y"]
    assert foo["C"] == "multi word"
    assert foo["G"]["D"] == 3
    assert flat["Foo.G.D"] == "3"
    assert "Ignored" not in tree  # stops at End


def test_load_raster_dispatch():
    from gdal_ray.drivers import load_raster

    assert checksum_array(load_raster(
        D3 + "isis3_unit_test.cub")["bands"][0]) == 42403
    assert checksum_array(load_raster(
        D2 + "arvidson_original_truncated.cub")["bands"][0]) == 382
    # PDS3 .lbl still routes to the PDS driver (sniff, not suffix)
    r = load_raster("/root/reference/autotest/gdrivers/data/pds/"
                    "pds_3177.lbl")
    assert len(r["bands"]) >= 1
