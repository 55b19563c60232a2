"""PAux and Generic Binary drivers — reference-autotest pins, and a
synthetic file of each opened through the driver registry."""

import numpy as np
import pytest
from conftest import ref_path

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.pauxgen import read_genbin, read_paux

D = "autotest/gdrivers/data/"


class TestPAux:
    def test_reference_pin(self):
        # gdrivers/paux.py test_paux_1: band 2 checksum 12816
        d = read_paux(ref_path(D + "paux/small16.raw"))
        assert len(d["bands"]) == 2
        assert d["bands"][1].dtype == np.uint16
        assert d["bands"][1].shape == (35, 31)
        assert checksum_array(d["bands"][1]) == 12816
        # UpLeft/LoRight are edges → byte.tif-family geotransform
        assert d["geotransform"] == pytest.approx(
            (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0))

    def test_open_by_aux_path(self):
        d = read_paux(ref_path(D + "paux/small16.aux"))
        assert checksum_array(d["bands"][1]) == 12816


class TestGenBin:
    def test_reference_pin_windowed(self):
        # gdrivers/genbin.py test_genbin_1: checksum 5738 over a
        # 500×1 window of band 1 (the fixture is truncated;
        # RAW_CHECK_FILE_SIZE=NO in the reference test)
        g = read_genbin(ref_path(D + "genbin/tm4628_96.bil"),
                        window=(0, 0, 500, 1), band=1)
        assert g["bands"][0].shape == (1, 500)
        assert checksum_array(g["bands"][0]) == 5738

    def test_center_coordinate_geotransform_pin(self):
        # the reference test's literal check_gt values: UL/LR are
        # CELL CENTERS (pixel = (LR-UL)/(n-1), half-pixel shift)
        g = read_genbin(ref_path(D + "genbin/tm4628_96.bil"),
                        window=(0, 0, 1, 1), band=1)
        want = (1181700.9894981384, 82.021003723042099, 0.0,
                596254.01050186157, 0.0, -82.021003723045894)
        np.testing.assert_allclose(g["geotransform"], want, rtol=1e-12)

    def test_u4_bitpacked(self, tmp_path):
        # U1/U2/U4 single-band bit-packed path
        vals = np.array([[1, 15, 7, 0, 3, 12, 9, 2]], np.uint8)
        packed = np.zeros(4, np.uint8)
        flat = vals.ravel()
        packed = (flat[0::2] << 4) | flat[1::2]
        (tmp_path / "b.hdr").write_text(
            "BANDS: 1\nROWS: 1\nCOLS: 8\nDATATYPE: U4\n"
            "INTERLEAVING: BIL\n")
        (tmp_path / "b.bil").write_bytes(packed.tobytes())
        g = read_genbin(str(tmp_path / "b.bil"))
        assert np.array_equal(g["bands"][0], vals)


def test_paux_opens_through_the_registry(tmp_path):
    from gdal_ray.drivers import identify, load_raster

    band = np.arange(6, dtype="<u2").reshape(2, 3)
    (tmp_path / "p.raw").write_bytes(band.tobytes())
    (tmp_path / "p.aux").write_text(
        "AuxilaryTarget: p.raw\nRawDefinition: 3 2 1\n"
        "ChanDefinition-1: 16U 0 2 6 Swapped\n"
        "UpLeftX: 100\nUpLeftY: 20\nLoRightX: 130\nLoRightY: 0\n")
    p = str(tmp_path / "p.aux")
    assert identify(p, "raster").name == "PAux"
    d = load_raster(p)
    np.testing.assert_array_equal(d["bands"][0], band)
    assert d["geotransform"] == (100.0, 10.0, 0.0, 20.0, 0.0, -10.0)


def test_genbin_opens_through_the_registry(tmp_path):
    from gdal_ray.drivers import identify, load_raster

    cube = np.arange(12, dtype=">i2").reshape(2, 2, 3)  # row, band, col
    (tmp_path / "g.hdr").write_text(
        "BANDS: 2\nROWS: 2\nCOLS: 3\nDATATYPE: S16\nBYTE_ORDER: MSB\n"
        "INTERLEAVING: BIL\n")
    (tmp_path / "g.bil").write_bytes(cube.tobytes())
    p = str(tmp_path / "g.bil")
    assert identify(p, "raster").name == "GenBin"
    d = load_raster(p)
    for b in range(2):
        np.testing.assert_array_equal(d["bands"][b], cube[:, b])
