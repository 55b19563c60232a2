"""ENVI driver (raster/envi.py): reference-fixture checksum pins
across all three interleaves + roundtrips + CLI via load_raster."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.envi import parse_envi_header, read_envi, write_envi

FIX = "/root/reference/autotest/gdrivers/data/envi"


class TestReferenceFixtures:
    def test_aea_checksum_and_gt(self):
        g = read_envi(f"{FIX}/aea.dat")
        assert checksum_array(g["bands"][0]) == 14823
        assert g["geotransform"] == (-936408.178, 28.5, 0.0,
                                     2423902.344, 0.0, -28.5)

    @pytest.mark.parametrize("suffix", ["bsq", "bil", "bip"])
    def test_rgbsmall_interleaves(self, suffix):
        g = read_envi(f"{FIX}/envi_rgbsmall_{suffix}.img")
        assert [checksum_array(b) for b in g["bands"]] == \
            [20718, 20669, 20895]
        assert g["crs"] == "EPSG:4326"


class TestRoundtrip:
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_multiband(self, tmp_path, interleave):
        gt = (5.0, 0.5, 0.0, 60.0, 0.0, -0.5)
        rng = np.random.default_rng(3)
        bands = [rng.integers(0, 255, (7, 9)).astype(np.uint8)
                 for _ in range(3)]
        p = str(tmp_path / "x.img")
        write_envi(p, bands, gt, crs="EPSG:4326", nodata=255.0,
                   interleave=interleave)
        g = read_envi(p)
        for a, b in zip(g["bands"], bands):
            np.testing.assert_array_equal(a, b)
        assert g["geotransform"] == gt
        assert g["nodata"] == 255.0

    def test_dtypes(self, tmp_path):
        gt = (0.0, 1.0, 0.0, 0.0, 0.0, -1.0)
        for dt in (np.int16, np.uint16, np.float32, np.float64):
            arr = (np.arange(12).reshape(3, 4) * 1.5).astype(dt)
            p = str(tmp_path / f"{np.dtype(dt).name}.dat")
            write_envi(p, [arr], gt)
            np.testing.assert_array_equal(read_envi(p)["bands"][0], arr)

    def test_header_parse_braces(self):
        hdr = parse_envi_header(
            "ENVI\ndescription = {\n  multi\n  line}\nsamples = 4\n"
            "lines = 2\ndata type = 1\n")
        assert hdr["samples"] == "4"
        assert "multi" in hdr["description"]


class TestCLI:
    def test_translate_from_envi(self, tmp_path):
        import subprocess
        import sys

        from gdal_ray.raster.gtiff import decode_geotiff

        arr = np.arange(64, dtype=np.uint8).reshape(8, 8)
        p = str(tmp_path / "e.img")
        write_envi(p, [arr], (0.0, 1.0, 0.0, 8.0, 0.0, -1.0))
        out = str(tmp_path / "o.tif")
        r = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "raster",
             "translate", p, out, "--srcwin", "2", "2", "4", "4"],
            capture_output=True,
            env={"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin"})
        assert r.returncode == 0, r.stderr
        g = decode_geotiff(open(out, "rb").read())
        np.testing.assert_array_equal(
            g["bands"][0], arr[2:6, 2:6].astype(np.float64))


class TestEHdr:
    """EHdr sibling (frmts/ehdr role) — reference-fixture pins."""

    @pytest.mark.parametrize("fname", ["ehdr10.bil", "ehdr11.flt"])
    def test_float_inference_checksums(self, fname):
        from gdal_ray.raster.envi import read_ehdr

        g = read_ehdr(
            f"/root/reference/autotest/gdrivers/data/ehdr/{fname}")
        assert checksum_array(g["bands"][0]) == 8202
        # xllcorner convention: top = yll + nrows*cellsize
        gt = g["geotransform"]
        assert gt[1] == 2500.0 and gt[5] == -2500.0
        assert abs(gt[3] - (2041811.701239 + 2 * 2500.0)) < 1e-6

    def test_load_raster_dispatch(self):
        from gdal_ray.drivers import load_raster

        g = load_raster(
            "/root/reference/autotest/gdrivers/data/ehdr/ehdr11.flt")
        assert checksum_array(g["bands"][0]) == 8202


class TestFuzzRoundtrip:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    import hypothesis.extra.numpy as hnp

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(np.int16, (5, 7),
                   elements=st.integers(-32768, 32767)),
        st.sampled_from(["bsq", "bil", "bip"]),
    )
    def test_int16_any_interleave(self, tmp_path_factory, arr,
                                  interleave):
        p = str(tmp_path_factory.mktemp("envi") / "f.img")
        write_envi(p, [arr, arr[::-1]], interleave=interleave)
        g = read_envi(p)
        np.testing.assert_array_equal(g["bands"][0], arr)
        np.testing.assert_array_equal(g["bands"][1], arr[::-1])
