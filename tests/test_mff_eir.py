"""Vexcel MFF + Erdas Imagine Raw drivers — autotest pins, and a
synthetic EIR pair opened through the driver registry."""

import numpy as np
from conftest import ref_path

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.eir import read_eir
from gdal_ray.raster.mff import read_mff

D = "autotest/gdrivers/data/"


class TestMFF:
    def test_plain_and_tiled_pins(self):
        # gdrivers/mff.py tests 1-2: checksum 1 for the 1×1 plain
        # form and the 2×2-tile crop (truncated tile pads zero)
        for name in ("mff/fakemff.hdr", "mff/fakemfftiled.hdr"):
            d = read_mff(ref_path(D + name))
            assert d["bands"][0].shape == (1, 1)
            assert checksum_array(d["bands"][0]) == 1

    def test_byte_fixture_pin(self):
        # test 3: real 20×20 byte image → 4672 (byte.tif family)
        d = read_mff(ref_path(D + "mff/bytemff.hdr"))
        assert d["bands"][0].shape == (20, 20)
        assert d["bands"][0].dtype == np.uint8
        assert checksum_array(d["bands"][0]) == 4672
        assert d["crs"].upper() == "UTM"

    def test_gcps_parsed(self):
        d = read_mff(ref_path(D + "mff/fakemff.hdr"))
        assert d["gcps"] == [(0.0, 1.0, 2.0, 3.0)]


class TestEIR:
    def test_reference_pin(self):
        # gdrivers/eir.py test_eir_1: checksum 1
        d = read_eir(ref_path(D + "eir/fakeeir.hdr"))
        assert d["bands"][0].shape == (1, 1)
        assert checksum_array(d["bands"][0]) == 1


def test_eir_opens_through_the_registry(tmp_path):
    from gdal_ray.drivers import identify, load_raster

    (tmp_path / "e.hdr").write_text(
        "IMAGINE_RAW_FILE\nWIDTH 3\nHEIGHT 2\nNUM_LAYERS 2\n"
        "FORMAT BSQ\nDATATYPE U16\nBYTE_ORDER MOTOROLA\nEND_RAW_FILE\n")
    cube = np.arange(12, dtype=">u2").reshape(2, 2, 3)
    (tmp_path / "e.img").write_bytes(cube.tobytes())
    p = str(tmp_path / "e.hdr")
    assert identify(p, "raster").name == "EIR"
    d = load_raster(p)
    for band, want in zip(d["bands"], cube, strict=True):
        np.testing.assert_array_equal(band, want)
