"""Sigmet IRIS weather-radar reader — pinned to the reference
autotest (gdrivers/iris.py): fakeiris.dat cs 65532; iristest.dat cs
52872 and its literal Vincenty/Mercator geotransform to 1e-5; and a
synthetic product opened through the driver registry."""

import struct

import numpy as np
import pytest
from conftest import ref_path

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.iris import read_iris

I = "autotest/gdrivers/data/iris"

EXPECTED_GT = [16435.721785269096, 1370.4263720754534, 0.0,
               5289830.4584420761, 0.0, -1357.6498705837876]


class TestIRIS:
    def test_fakeiris(self):
        d = read_iris(ref_path(f"{I}/fakeiris.dat"))
        assert checksum_array(d["bands"][0]) == 65532

    def test_iristest_checksum(self):
        d = read_iris(ref_path(f"{I}/iristest.dat"))
        assert d["bands"][0].shape == (262, 260)
        assert checksum_array(d["bands"][0]) == 52872
        assert d["metadata"]["PRODUCT"] == "CAPPI"
        assert d["metadata"]["PROJECTION"] == "Mercator"

    def test_iristest_geotransform(self):
        gt = read_iris(ref_path(f"{I}/iristest.dat"))["geotransform"]
        for g, e in zip(gt, EXPECTED_GT):
            if e == 0.0:
                assert g == 0.0
            else:
                assert abs(g - e) / abs(e) <= 1e-5

    def test_bad_magic(self):
        from gdal_ray.raster.iris import decode_iris

        with pytest.raises(ValueError):
            decode_iris(b"\x00" * 700)


def test_product_opens_through_the_registry(tmp_path):
    from gdal_ray.drivers import identify, load_raster

    head = bytearray(640)
    struct.pack_into("<h", head, 0, 27)  # structure header id
    struct.pack_into("<h", head, 12, 26)  # product configuration id
    struct.pack_into("<H", head, 24, 3)  # CAPPI
    struct.pack_into("<ii", head, 112, 3, 2)  # 3 x 2 pixels
    struct.pack_into("<H", head, 142, 2)  # 1-byte dBZ: (v - 64) / 2
    rows = np.array([[64, 66, 68], [70, 72, 255]], np.uint8)
    p = str(tmp_path / "radar.dat")
    with open(p, "wb") as f:
        f.write(bytes(head) + rows.tobytes())
    assert identify(p, "raster").name == "IRIS"
    d = load_raster(p)
    assert d["metadata"]["PRODUCT"] == "CAPPI"
    # rows are stored bottom-up; 255 is the no-data byte
    np.testing.assert_array_equal(
        d["bands"][0], [[3.0, 4.0, -9999.0], [0.0, 1.0, 2.0]])
    assert d["nodata"] == -9999.0
