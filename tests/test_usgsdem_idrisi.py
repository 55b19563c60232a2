"""USGS DEM + Idrisi RST drivers — reference-autotest pins."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.idrisi import read_rst, write_rst
from gdal_ray.raster.usgsdem import read_usgsdem

D = "/root/reference/autotest/gdrivers/data/"


class TestUSGSDEM:
    @pytest.mark.parametrize("name,cksum", [
        ("022gdeme_truncated", 1583),                     # test_usgsdem_1
        ("114p01_0100_deme_truncated.dem", 53864),        # test_usgsdem_2
        ("39079G6_truncated.dem", 61424),                 # test_usgsdem_3
        ("39109h1_truncated.dem", 39443),                 # test_usgsdem_8
        ("usgsdem_with_extra_values_at_end_of_profile.dem", 56679),
        ("usgsdem_with_spaces_after_byte_864.dem", 61078),
        ("record_1025_ending_with_linefeed.dem", 14172),  # gdal#5007
    ])
    def test_reference_pins(self, name, cksum):
        d = read_usgsdem(D + "usgsdem/" + name)
        assert checksum_array(d["bands"][0]) == cksum

    def test_geographic_geotransform_pin(self):
        # test_usgsdem_2's literal check_gt values
        d = read_usgsdem(D + "usgsdem/114p01_0100_deme_truncated.dem")
        want = (-136.25010416667, 0.000208333, 0.0,
                59.25010416667, 0.0, -0.000208333)
        assert d["geotransform"] == pytest.approx(want, abs=1e-8)
        assert d["crs"] == "EPSG:4326"
        assert d["bands"][0].dtype == np.int16

    def test_subunit_vres_is_float32(self):
        # 39109h1: vertical resolution < 1 → float32 band
        d = read_usgsdem(D + "usgsdem/39109h1_truncated.dem")
        assert d["bands"][0].dtype == np.float32

    def test_utm_grid(self):
        d = read_usgsdem(D + "usgsdem/39079G6_truncated.dem")
        assert d["crs"].startswith("UTM:")
        assert d["geotransform"][1] == pytest.approx(30.0)


class TestIdrisiRST:
    def test_byte_pin(self):
        # gdrivers/idrisi.py test_idrisi_1: checksum 5044
        d = read_rst(D + "rst/byte.rst")
        assert d["bands"][0].shape == (21, 21)
        assert d["bands"][0].dtype == np.uint8
        assert checksum_array(d["bands"][0]) == 5044

    def test_real_pin(self):
        # test_idrisi_2: checksum 5275
        d = read_rst(D + "rst/real.rst")
        assert d["bands"][0].dtype == np.float32
        assert checksum_array(d["bands"][0]) == 5275

    def test_edge_geotransform(self):
        # Idrisi min/max X/Y are cell EDGES: no half-cell shift
        d = read_rst(D + "rst/byte.rst")
        gt = d["geotransform"]
        assert gt[0] == 50.0 and gt[3] == 70.0
        assert gt[1] == pytest.approx(20.0 / 21.0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
    def test_roundtrip(self, dtype, tmp_path):
        rng = np.random.default_rng(2)
        arr = rng.integers(0, 200, (8, 13)).astype(dtype)
        gt = (5.0, 1.5, 0.0, 40.0, 0.0, -1.5)
        p = str(tmp_path / "t.rst")
        write_rst(p, [arr], gt)
        d = read_rst(p)
        assert np.array_equal(d["bands"][0], arr)
        assert d["geotransform"] == pytest.approx(gt)

    def test_rgb24_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        bands = [rng.integers(0, 256, (5, 4)).astype(np.uint8)
                 for _ in range(3)]
        p = str(tmp_path / "c.rst")
        write_rst(p, bands, (0.0, 1.0, 0.0, 5.0, 0.0, -1.0))
        d = read_rst(p)
        assert len(d["bands"]) == 3
        for got, want in zip(d["bands"], bands):
            assert np.array_equal(got, want)

    def test_loader_dispatch(self):
        from gdal_ray.drivers import load_raster

        assert checksum_array(
            load_raster(D + "rst/byte.rst")["bands"][0]) == 5044
        assert checksum_array(
            load_raster(D + "usgsdem/39079G6_truncated.dem")
            ["bands"][0]) == 61424
