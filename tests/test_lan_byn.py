"""Erdas .LAN and NRCan .BYN drivers — reference-autotest pins."""

import numpy as np
import pytest

from gdal_ray.raster.byn import byn_values, decode_byn, encode_byn, read_byn
from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.lan import decode_lan, encode_lan, read_lan

D = "/root/reference/autotest/gdrivers/data/"


class TestLAN:
    def test_fakelan_8bit_pin(self):
        # gdrivers/lan.py test_lan_1: band 1 checksum 10
        d = read_lan(D + "lan/fakelan.lan")
        assert d["bands"][0].shape == (2, 2)
        assert checksum_array(d["bands"][0]) == 10
        assert d["crs"] == "EPSG:4326"
        # cell-center UL (1.5, 48.5), 1°×1° cells → corner gt
        assert d["geotransform"] == (1.0, 1.0, 0.0, 49.0, 0.0, -1.0)

    def test_fakelan_4bit_pin(self):
        # gdrivers/lan.py test_lan_2: same checksum, packed nibbles
        d = read_lan(D + "lan/fakelan4bit.lan")
        assert d["pixel_type"] == 1
        assert checksum_array(d["bands"][0]) == 10

    def test_4bit_matches_8bit_values(self):
        a = read_lan(D + "lan/fakelan.lan")["bands"][0]
        b = read_lan(D + "lan/fakelan4bit.lan")["bands"][0]
        assert np.array_equal(a, b)

    def test_roundtrip_multiband_int16(self):
        rng = np.random.default_rng(3)
        bands = [rng.integers(-300, 300, (7, 5)).astype(np.int16)
                 for _ in range(3)]
        gt = (10.0, 2.0, 0.0, 60.0, 0.0, -2.0)
        d = decode_lan(encode_lan(bands, gt, coordsys=1))
        assert len(d["bands"]) == 3
        for got, want in zip(d["bands"], bands):
            assert np.array_equal(got, want)
        assert d["geotransform"] == pytest.approx(gt)
        assert d["crs"] == "LOCAL:UTM"

    def test_rejects_ntv1(self):
        blob = b"HEADER" + b"\0" * 10 + b"S LAT   " + b"\0" * 104
        with pytest.raises(ValueError, match="NTv1"):
            decode_lan(blob)


class TestBYN:
    def test_reference_pin(self):
        # gdrivers/byn.py test_byn_1: band 1 checksum 64764
        d = read_byn(D + "byn/cgg2013ai08_reduced.byn")
        assert d["bands"][0].shape == (24, 48)
        assert checksum_array(d["bands"][0]) == 64764

    def test_invalid_header_bytes_tolerated(self):
        # gdrivers/byn.py test_byn_invalid_header_bytes: spare header
        # bytes are ignored, same checksum
        d = read_byn(D + "byn/test_invalid_header_bytes.byn")
        assert checksum_array(d["bands"][0]) == 64764

    def test_georef_and_nodata(self):
        d = read_byn(D + "byn/cgg2013ai08_reduced.byn")
        gt = d["geotransform"]
        assert gt[0] == pytest.approx(-170.0)
        assert gt[3] == pytest.approx(90.0)
        assert gt[1] == pytest.approx(12000.0 / 3600.0, rel=1e-9)
        assert gt[5] == pytest.approx(-12000.0 / 3600.0, rel=1e-9)
        assert d["nodata"] == 9999.0 * d["factor"]

    def test_physical_values_finite(self):
        v = byn_values(D + "byn/cgg2013ai08_reduced.byn")
        finite = v[np.isfinite(v)]
        assert len(finite) > 0
        # geoid heights are bounded on Earth
        assert np.all(np.abs(finite) < 200.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        grid = rng.integers(-80000, 80000, (6, 9)).astype(np.int32)
        blob = encode_byn(grid, south=43 * 3600, west=-80 * 3600,
                          dlat=60, dlon=60, factor=1000.0)
        d = decode_byn(blob)
        assert np.array_equal(d["bands"][0], grid)
        assert d["geotransform"][1] == pytest.approx(1 / 60.0)
        assert d["scale"] == pytest.approx(1e-3)

    def test_loader_dispatch(self):
        from gdal_ray.drivers import load_raster

        d = load_raster(D + "byn/cgg2013ai08_reduced.byn")
        assert checksum_array(d["bands"][0]) == 64764
        d2 = load_raster(D + "lan/fakelan.lan")
        assert checksum_array(d2["bands"][0]) == 10
