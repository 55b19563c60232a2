"""PCIDSK (.pix) reader — reference autotest pins
(gdrivers/pcidsk.py): utm.pix cs 39576 + overview 8368 + UTM-11
georef; tile_v1.1.pix (ASCII tile dir) and tile_v2.pix (binary tile
dir) cs 49526 + overview 12003."""

import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.pcidsk import (
    decode_pcidsk,
    overview_count,
    read_pcidsk,
)

P = "/root/reference/autotest/gdrivers/data/pcidsk"


class TestBandInterleaved:
    def test_utm(self):
        d = read_pcidsk(f"{P}/utm.pix")
        assert checksum_array(d["bands"][0]) == 39576
        assert d["crs"] == "EPSG:32611"
        assert d["geotransform"] == (440720.0, 60.0, 0.0,
                                     3751320.0, 0.0, -60.0)

    def test_utm_overview(self):
        raw = open(f"{P}/utm.pix", "rb").read()
        assert overview_count(raw) == 1
        ov = read_pcidsk(f"{P}/utm.pix", overview=0)
        assert checksum_array(ov["bands"][0]) == 8368
        assert ov["bands"][0].shape == (3, 250)
        # decimation-2 georef
        assert ov["geotransform"][1] == 120.0


class TestTiled:
    @pytest.mark.parametrize("name", ["tile_v1.1.pix", "tile_v2.pix"])
    def test_base(self, name):
        d = read_pcidsk(f"{P}/{name}")
        assert checksum_array(d["bands"][0]) == 49526
        assert d["bands"][0].shape == (65, 65)
        assert d["geotransform"][:2] == (428720.0, 30.0)

    @pytest.mark.parametrize("name", ["tile_v1.1.pix", "tile_v2.pix"])
    def test_overview(self, name):
        ov = read_pcidsk(f"{P}/{name}", overview=0)
        assert checksum_array(ov["bands"][0]) == 12003


class TestGuards:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            decode_pcidsk(b"NOTPCIDSK" + b" " * 600)

    def test_dispatch(self):
        from gdal_ray.drivers import load_raster

        assert checksum_array(
            load_raster(f"{P}/utm.pix")["bands"][0]) == 39576
