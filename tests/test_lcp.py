"""FARSITE LCP driver — reference-autotest pins, and a synthetic
landscape opened through the driver registry."""

import struct

import numpy as np
from conftest import ref_path

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.lcp import read_lcp

D = "autotest/gdrivers/data/lcp/"


class TestLCP:
    def test_all_eight_band_pins(self):
        # gdrivers/lcp.py test_lcp_1's eight literal band checksums
        d = read_lcp(ref_path(D + "test_FARSITE_UTM12.LCP"))
        assert len(d["bands"]) == 8
        assert [checksum_array(b) for b in d["bands"]] == [
            18645, 16431, 18851, 26182, 30038, 22077, 30388, 23249]

    def test_dataset_metadata(self):
        d = read_lcp(ref_path(D + "test_FARSITE_UTM12.LCP"))
        assert d["latitude"] == 49
        assert d["linear_unit"] == "Meters"
        assert d["description"].startswith(
            "This is a test LCP file created with FARSITE 4.1.054")
        assert d["band_names"][:5] == ["ELEVATION", "SLOPE", "ASPECT",
                                       "FUEL_MODEL", "CANOPY_COV"]

    def test_geotransform(self):
        d = read_lcp(ref_path(D + "test_FARSITE_UTM12.LCP"))
        gt = d["geotransform"]
        west, cellx, _, north, _, ncelly = gt
        e, w, n, s = d["bounds"]
        assert w == west and n == north
        assert cellx > 0 and ncelly < 0
        nx = d["bands"][0].shape[1]
        assert w + nx * cellx == e

    def test_second_fixture_band_count(self):
        d = read_lcp(ref_path(D + "test_USGS_LFNM_Alb83.lcp"))
        assert len(d["bands"]) in (5, 7, 8, 10)
        assert all(b.dtype == np.int16 for b in d["bands"])


def test_landscape_opens_through_the_registry(tmp_path):
    from gdal_ray.drivers import identify, load_raster

    head = bytearray(7316)
    struct.pack_into("<iii", head, 0, 20, 20, 45)  # no crown/ground
    struct.pack_into("<ii", head, 4164, 2, 1)  # 2 x 1 cells
    struct.pack_into("<4d", head, 4172, 60.0, 0.0, 30.0, 0.0)  # E W N S
    struct.pack_into("<2d", head, 4208, 30.0, 30.0)
    head[6804:6808] = b"demo"
    cells = np.arange(10, dtype="<i2").reshape(1, 2, 5)  # BIP, 5 bands
    p = str(tmp_path / "x.lcp")
    with open(p, "wb") as f:
        f.write(bytes(head) + cells.tobytes())
    assert identify(p, "raster").name == "LCP"
    d = load_raster(p)
    assert len(d["bands"]) == 5
    np.testing.assert_array_equal(d["bands"][1], [[1, 6]])
    assert d["geotransform"] == (0.0, 30.0, 0.0, 30.0, 0.0, -30.0)
    assert (d["latitude"], d["description"]) == (45, "demo")
