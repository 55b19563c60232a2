"""RADARSAT-2 reader — autotest pins (gdrivers/rs2.py): band cs
4672, BETA0 calibrated cs 4848, the verbatim rationalFunctions →
RPC name mapping, tie-point GCPs; and a synthetic product opened
through the driver registry."""

import numpy as np
from conftest import ref_path

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.rs2 import read_rs2

PRODUCT = "autotest/gdrivers/data/rs2/product.xml"

EXPECTED_RPC = {
    "ERR_BIAS": "biasError", "ERR_RAND": "randomError",
    "HEIGHT_OFF": "heightOffset", "HEIGHT_SCALE": "heightScale",
    "LAT_OFF": "latitudeOffset", "LAT_SCALE": "latitudeScale",
    "LINE_DEN_COEFF": "lineDenominatorCoefficients",
    "LINE_NUM_COEFF": "lineNumeratorCoefficients",
    "LINE_OFF": "lineOffset", "LINE_SCALE": "lineScale",
    "LONG_OFF": "longitudeOffset", "LONG_SCALE": "longitudeScale",
    "SAMP_DEN_COEFF": "pixelDenominatorCoefficients",
    "SAMP_NUM_COEFF": "pixelNumeratorCoefficients",
    "SAMP_OFF": "pixelOffset", "SAMP_SCALE": "pixelScale",
}


class TestRS2:
    def test_bands(self):
        d = read_rs2(ref_path(PRODUCT))
        assert len(d["bands"]) == 2  # HH + HV
        assert checksum_array(d["bands"][0]) == 4672
        assert d["band_metadata"][0]["POLARIMETRIC_INTERP"] == "HH"

    def test_beta0_calibration(self):
        c = read_rs2("RADARSAT_2_CALIB:BETA0:" + ref_path(PRODUCT))
        assert c["bands"][0].dtype.kind == "f"
        assert checksum_array(c["bands"][0]) == 4848

    def test_uncalib_prefix(self):
        c = read_rs2("RADARSAT_2_CALIB:UNCALIB:" + ref_path(PRODUCT))
        assert checksum_array(c["bands"][0]) == 4672

    def test_rpc_mapping(self):
        assert read_rs2(ref_path(PRODUCT))["rpc"] == EXPECTED_RPC

    def test_gcps(self):
        g = read_rs2(ref_path(PRODUCT))["gcps"]
        assert len(g) == 4
        assert g[0] == {"pixel": 0.0, "line": 0.0, "x": 2.0,
                        "y": 49.0, "z": 0.0}


_PRODUCT = """<?xml version="1.0" encoding="UTF-8"?>
<product xmlns="http://www.rsi.ca/rs2/prod/xml/schemas">
  <imageAttributes>
    <fullResolutionImageData pole="HH">imagery_HH.tif</fullResolutionImageData>
    <lookupTable incidenceAngleCorrection="Beta Nought">lutBeta.xml</lookupTable>
    <geographicInformation><geolocationGrid><imageTiePoint>
      <imageCoordinate><line>0</line><pixel>0</pixel></imageCoordinate>
      <geodeticCoordinate><latitude>49</latitude><longitude>2</longitude>
        <height>0</height></geodeticCoordinate>
    </imageTiePoint></geolocationGrid></geographicInformation>
  </imageAttributes>
</product>
"""


_LUT = """<?xml version="1.0" encoding="UTF-8"?>
<lut xmlns="http://www.rsi.ca/rs2/prod/xml/schemas">
  <offset>1.0</offset>
  <gains>2.0 4.0 8.0</gains>
</lut>
"""

_BAND = np.arange(6, dtype=np.uint16).reshape(2, 3)


def _write_product(tmp_path) -> str:
    from gdal_ray.raster.gtiff import write_geotiff

    write_geotiff(str(tmp_path / "imagery_HH.tif"), [_BAND])
    (tmp_path / "lutBeta.xml").write_text(_LUT)
    p = str(tmp_path / "product.xml")
    with open(p, "w") as f:
        f.write(_PRODUCT)
    return p


def test_product_opens_through_the_registry(tmp_path):
    from gdal_ray.drivers import identify, load_raster

    p = _write_product(tmp_path)
    assert identify(p, "raster").name == "RS2"
    d = load_raster(p)
    np.testing.assert_array_equal(d["bands"][0], _BAND)
    assert d["band_metadata"] == [{"POLARIMETRIC_INTERP": "HH"}]
    assert d["gcps"] == [{"pixel": 0.0, "line": 0.0, "x": 2.0, "y": 49.0,
                          "z": 0.0}]


def test_calibrated_path_opens_through_the_registry(tmp_path):
    from gdal_ray.drivers import identify, load_raster

    p = _write_product(tmp_path)
    uncal = "RADARSAT_2_CALIB:UNCALIB:" + p
    assert identify(uncal, "raster").name == "RS2"
    np.testing.assert_array_equal(load_raster(uncal)["bands"][0], _BAND)
    beta = load_raster("RADARSAT_2_CALIB:BETA0:" + p)["bands"][0]
    # (DN² + offset) / gains[column]
    want = (_BAND.astype(np.float32) ** 2 + 1.0) / np.float32([2, 4, 8])
    assert beta.dtype == np.float32
    np.testing.assert_array_equal(beta, want)
