"""GRASS ASCII grid + DigitalGlobe .TIL drivers — autotest pins
(grassasciigrid.py cs 212 + literal gt; til.py cs 4672, 3-file
lists, IMAGERY metadata in both the IMD and XML forms)."""

import pytest

from gdal_ray.raster.aaigrid import read_grassascii
from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.til import read_til

G = "/root/reference/autotest/gdrivers/data/grassasciigrid"
T = "/root/reference/autotest/gdrivers/data/til"


class TestGrassASCII:
    def test_fixture(self):
        d = read_grassascii(f"{G}/grassascii.txt")
        assert checksum_array(d["bands"][0]) == 212
        assert d["geotransform"] == pytest.approx(
            (-100.0, 62.5, 0.0, 250.0, 0.0, -41.666666666666664))

    def test_dispatch(self):
        # .txt is ambiguous; decode entry is the public surface
        from gdal_ray.raster.aaigrid import decode_grassascii

        d = decode_grassascii(open(f"{G}/grassascii.txt").read())
        assert d["bands"][0].shape == (6, 4)


class TestTIL:
    def test_imd_form(self):
        d = read_til(f"{T}/testtil.til")
        assert checksum_array(d["bands"][0]) == 4672
        assert len(d["files"]) == 3
        md = d["metadata"]
        assert md["SATELLITEID"] == "WV03"
        assert md["CLOUDCOVER"] == "0.027"
        assert "ACQUISITIONDATETIME" in md

    def test_xml_form(self):
        d = read_til(f"{T}/testtil2.til")
        assert checksum_array(d["bands"][0]) == 4672
        assert len(d["files"]) == 3
        assert set(d["metadata"]) == {
            "SATELLITEID", "CLOUDCOVER", "ACQUISITIONDATETIME"}

    def test_dispatch(self):
        from gdal_ray.drivers import load_raster

        assert checksum_array(
            load_raster(f"{T}/testtil.til")["bands"][0]) == 4672
