"""R raster (.grd/.gri), ROI_PAC and ISCE drivers — autotest pins."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.insar import (complex_checksum_view, read_isce,
                                   read_roipac, write_roipac)
from gdal_ray.raster.rraster import read_rraster, write_rraster

D = "/root/reference/autotest/gdrivers/data/"


class TestRRaster:
    def test_byte_pins(self):
        # gdrivers/rraster.py test_rraster_1: checksum 4672,
        # byte.tif's geotransform
        for name in ("byte_rraster.grd", "byte_rraster1.grd"):
            d = read_rraster(D + "rraster/" + name)
            assert checksum_array(d["bands"][0]) == 4672
            assert d["geotransform"] == pytest.approx(
                (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0))

    def test_rgba_band_pins(self):
        # test_rraster_rgba: per-band checksums 19/27/22/7
        d = read_rraster(D + "rraster/rgba_rraster.grd")
        assert [checksum_array(b) for b in d["bands"]] == [19, 27, 22, 7]

    def test_roundtrip_multiband(self, tmp_path):
        rng = np.random.default_rng(12)
        bands = [rng.normal(size=(6, 9)).astype(np.float32)
                 for _ in range(3)]
        gt = (0.0, 2.0, 0.0, 12.0, 0.0, -2.0)
        p = str(tmp_path / "r.grd")
        write_rraster(p, bands, gt, nodata=-9999.0)
        d = read_rraster(p)
        assert len(d["bands"]) == 3
        for got, want in zip(d["bands"], bands):
            assert np.array_equal(got, want)
        assert d["geotransform"] == pytest.approx(gt)
        assert d["nodata"] == -9999.0


class TestROIPAC:
    def test_srtm_dem_pin(self):
        # gdrivers/roipac.py test_roipac_1: checksum 64074, verbatim
        # X_FIRST/X_STEP geotransform, Z_SCALE/Z_OFFSET as band
        # scale/offset
        d = read_roipac(D + "roipac/srtm.dem")
        assert d["bands"][0].dtype == np.int16
        assert checksum_array(d["bands"][0]) == 64074
        assert d["geotransform"][0] == pytest.approx(-180.0083333)
        assert d["scale"] == 2.0 and d["offset"] == 1.0
        assert d["crs"] == "EPSG:4326"

    def test_line_interleaved_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        mag = rng.normal(size=(5, 8)).astype(np.float32)
        phs = rng.normal(size=(5, 8)).astype(np.float32)
        p = str(tmp_path / "t.unw")
        write_roipac(p, [mag, phs], (0.0, 1.0, 0.0, 5.0, 0.0, -1.0))
        d = read_roipac(p)
        assert np.array_equal(d["bands"][0], mag)
        assert np.array_equal(d["bands"][1], phs)

    def test_complex_slc_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        slc = (rng.normal(size=(4, 6))
               + 1j * rng.normal(size=(4, 6))).astype(np.complex64)
        p = str(tmp_path / "t.slc")
        write_roipac(p, [slc])
        d = read_roipac(p)
        assert np.array_equal(d["bands"][0], slc)


class TestISCE:
    def test_slc_pin(self):
        # gdrivers/isce.py test_isce_1: checksum 350 — complex bands
        # checksum over interleaved re/im (alg/gdalchecksum.cpp:140)
        d = read_isce(D + "isce/isce.slc")
        b = d["bands"][0]
        assert b.dtype == np.complex64
        assert b.shape == (10, 12)
        assert checksum_array(complex_checksum_view(b)) == 350

    def test_loader_dispatch(self):
        from gdal_ray.drivers import load_raster

        # .grd INI magic → rraster; .dem with .rsc sidecar → roipac;
        # .slc with .xml → isce
        assert checksum_array(
            load_raster(D + "rraster/byte_rraster.grd")["bands"][0]) \
            == 4672
        assert checksum_array(
            load_raster(D + "roipac/srtm.dem")["bands"][0]) == 64074
        b = load_raster(D + "isce/isce.slc")["bands"][0]
        assert checksum_array(complex_checksum_view(b)) == 350
