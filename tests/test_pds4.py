"""PDS4 product reader — reference autotest pins (gdrivers/pds4.py):
all four cart-version labels at cs 4672 with the literal
geotransform, missing_constant 74, hexadecimal IEEE-754 special
constants, multi-array labels; and a synthetic label opened through
the driver registry."""

import numpy as np
import pytest
from conftest import ref_path

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.pds4 import _special_value, read_pds4

P = "autotest/gdrivers/data/pds4"


class TestPDS4:
    @pytest.mark.parametrize("f", [
        "byte_pds4_cart_1700.xml", "byte_pds4_cart_1b00.xml",
        "byte_pds4_cart_1d00_1933.xml",
        "byte_pds4_cart_1g00_1950.xml"])
    def test_cart_versions(self, f):
        d = read_pds4(ref_path(f"{P}/{f}"))
        assert checksum_array(d["bands"][0]) == 4672
        assert d["geotransform"] == (-59280.0, 60.0, 0.0,
                                     3751320.0, 0.0, -60.0)
        assert d["crs"] == "Transverse Mercator"

    def test_missing_constant(self):
        d = read_pds4(ref_path(f"{P}/byte_pds4_cart_1700.xml"))
        assert d["nodata"] == 74.0

    @pytest.mark.parametrize("f,val", [
        ("missing_constant_hexadecimal_float.xml",
         -3.4028226550889045e38),
        ("missing_constant_hexadecimal_double.xml",
         -1.7976931348623157e308)])
    def test_hexadecimal_constants(self, f, val):
        assert read_pds4(ref_path(f"{P}/{f}"))["nodata"] == val

    def test_special_value_forms(self):
        assert _special_value("74") == 74.0
        assert _special_value("16#FF7FFFFB#") == pytest.approx(
            -3.4028226550889045e38)

    def test_multi_array(self):
        d = read_pds4(ref_path(f"{P}/byte_pds4_cart_1700_multi_sds.xml"))
        assert d["arrays"] == 3
        d2 = read_pds4(ref_path(f"{P}/byte_pds4_cart_1700_multi_sds.xml"),
                       array_index=1)
        assert d2["bands"][0].shape[0] > 0

    def test_dispatch(self):
        # PDS4 labels share .xml with other drivers; the reader's
        # root-element guard rejects the other formats' labels
        with pytest.raises(ValueError):
            from gdal_ray.raster.pds4 import read_pds4 as r

            r(ref_path("autotest/gdrivers/data/dimap2/"
                       "single_component/VOL_PHR.XML"))


_LABEL = """<?xml version="1.0" encoding="UTF-8"?>
<Product_Observational xmlns="http://pds.nasa.gov/pds4/pds/v1"
    xmlns:cart="http://pds.nasa.gov/pds4/cart/v1">
  <Identification_Area><title>synthetic</title></Identification_Area>
  <Observation_Area><Discipline_Area><cart:Cartography>
    <cart:map_projection_name>Equirectangular</cart:map_projection_name>
    <cart:upperleft_corner_x unit="km">-2</cart:upperleft_corner_x>
    <cart:upperleft_corner_y unit="m">500</cart:upperleft_corner_y>
    <cart:pixel_resolution_x unit="m">10</cart:pixel_resolution_x>
    <cart:pixel_resolution_y unit="m">20</cart:pixel_resolution_y>
  </cart:Cartography></Discipline_Area></Observation_Area>
  <File_Area_Observational>
    <File><file_name>grid.img</file_name></File>
    <Array_2D_Image>
      <offset unit="byte">0</offset>
      <Element_Array><data_type>SignedMSB2</data_type></Element_Array>
      <Axis_Array><axis_name>Line</axis_name><elements>2</elements>
        <sequence_number>1</sequence_number></Axis_Array>
      <Axis_Array><axis_name>Sample</axis_name><elements>3</elements>
        <sequence_number>2</sequence_number></Axis_Array>
      <Special_Constants><missing_constant>-1</missing_constant>
      </Special_Constants>
    </Array_2D_Image>
  </File_Area_Observational>
</Product_Observational>
"""


def test_label_opens_through_the_registry(tmp_path):
    from gdal_ray.drivers import identify, load_raster

    grid = np.array([[1, -1, 3], [4, 5, 300]], ">i2")
    (tmp_path / "grid.img").write_bytes(grid.tobytes())
    p = str(tmp_path / "label.xml")
    with open(p, "w") as f:
        f.write(_LABEL)
    assert identify(p, "raster").name == "PDS4"
    d = load_raster(p)
    np.testing.assert_array_equal(d["bands"][0], grid)
    assert d["nodata"] == -1.0
    assert d["geotransform"] == (-2000.0, 10.0, 0.0, 500.0, 0.0, -20.0)
    assert d["crs"] == "Equirectangular"
