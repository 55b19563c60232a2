"""EOSAT / Euromap FAST driver — reference-autotest pins, and a
synthetic header opened through the driver registry."""

import numpy as np
import pytest
from conftest import ref_path

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.fast import read_fast

D = "autotest/gdrivers/data/fast/"


class TestFAST:
    def test_hpn_pin(self):
        # gdrivers/fast.py test_fast_1: 5000×1 window checksum 60323
        d = read_fast(ref_path(D + "L71118038_03820020111_HPN.FST"),
                      window=(0, 0, 5000, 1), band=1)
        assert checksum_array(d["bands"][0]) == 60323
        assert d["satellite"].startswith("LANDSAT7")

    def test_htm_band2_pin(self):
        # test_fast_3: band 2 via the FILENAME chain, checksum 19110
        d = read_fast(ref_path(D + "L71230079_07920021111_HTM.FST"),
                      window=(0, 0, 7000, 1), band=2)
        assert checksum_array(d["bands"][0]) == 19110
        assert len(d["files"]) == 2

    def test_euromap_pan_geotransform(self):
        # test_fast_7's literal axis-aligned gt; the band file is
        # found by the IRS PAN header-letter → digit convention
        d = read_fast(ref_path(D + "h0o0y867.1ah"), window=(0, 0, 4, 1),
                      band=1)
        np.testing.assert_allclose(
            d["geotransform"], (676565.09, 5, 0, 5348341.5, 0, -5),
            rtol=0, atol=1e-6)

    def test_euromap_liss3_rotated_geotransform(self):
        # test_fast_6's literal ROTATED gt from the 4-corner
        # order-1 GCP fit (GDALGCPsToGeoTransform role)
        d = read_fast(ref_path(D + "n0o0y867.0fl"), window=(0, 0, 4, 1),
                      band=1)
        want = (14640936.89174916, 1.008817518246492,
                24.9876841746236, 664274.3912497687,
                24.98828832116786, -0.9907878581173808)
        np.testing.assert_allclose(d["geotransform"], want, rtol=1e-9)

    def test_liss3_finds_channel_row(self):
        # .0fl header → channels m,n,o,p per the em_names.pdf table
        d = read_fast(ref_path(D + "n0o0y867.0fl"), window=(0, 0, 1, 1))
        names = [f[-3:] for f in d["files"]]
        assert names == ["0fm", "0fn", "0fo", "0fp"]


def test_header_opens_through_the_registry(tmp_path):
    from gdal_ray.drivers import identify, load_raster

    # EOSAT Rev. C administrative record: ACQUISITION DATE at byte 52
    header = ("REQ ID =0000000000000000000     LOC =118/038        "
              "ACQUISITION DATE =20020111  SATELLITE =LANDSAT7  "
              "SENSOR =ETM+      PIXELS PER LINE =00003 "
              "LINES PER BAND =00002 OUTPUT BITS PER PIXEL =08 "
              "FILENAME =" + "b1.dat".ljust(29)
              + " FILENAME =" + "b2.dat".ljust(29))
    assert header.index("ACQUISITION DATE") == 52
    bands = [np.arange(6, dtype=np.uint8).reshape(2, 3) + 10 * b
             for b in range(2)]
    for b, band in enumerate(bands, 1):
        (tmp_path / f"b{b}.dat").write_bytes(band.tobytes())
    p = str(tmp_path / "x_HPN.FST")
    with open(p, "w") as f:
        f.write(header.ljust(1536))
    assert identify(p, "raster").name == "FAST"
    d = load_raster(p)
    for got, want in zip(d["bands"], bands, strict=True):
        np.testing.assert_array_equal(got, want)
    assert d["satellite"] == "LANDSAT7"
