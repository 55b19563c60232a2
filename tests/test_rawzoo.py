"""Raw-format zoo drivers — reference-autotest pins.

Expectations transcribed from autotest/gdrivers/{gsc,noaa_b,snodas,
doq1,doq2,ndf,nsidcbin,cpg,mff2,bt,kro,ace2}.py.
"""

import numpy as np
import pytest

from conftest import ref_path
from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.rawzoo import (
    decode_bt,
    decode_kro,
    decode_noaa_b,
    decode_nsidcbin,
    encode_bt,
    encode_kro,
    read_ace2,
    read_bt,
    read_cpg_sirc,
    read_doq1,
    read_doq2,
    read_gsc,
    read_kro,
    read_mff2,
    read_ndf,
    read_noaa_b,
    read_nsidcbin,
    read_snodas,
)

D = "autotest/gdrivers/data/"


class TestGSC:
    def test_fakegsc_pin(self):
        # gdrivers/gsc.py test_gsc_1: band 1 checksum 0
        d = read_gsc(ref_path(D + "gsc/fakegsc.gsc"))
        assert d["bands"][0].shape == (1, 1)
        assert checksum_array(d["bands"][0]) == 0
        assert d["nodata"] == pytest.approx(-1.0000000150474662199e+30)

    def test_rejects_garbage(self):
        from gdal_ray.raster.rawzoo import decode_gsc

        with pytest.raises(ValueError):
            decode_gsc(b"\x00" * 56)


class TestNOAAB:
    def test_big_endian_pin(self):
        # gdrivers/noaa_b.py: checksum 3, gt (1.75,0.5,0,49.25,0,-0.5)
        d = read_noaa_b(ref_path(D + "noaa_b/test.b"))
        assert checksum_array(d["bands"][0]) == 3
        assert d["geotransform"] == pytest.approx(
            (1.75, 0.5, 0.0, 49.25, 0.0, -0.5))

    def test_little_endian_pin(self):
        d = read_noaa_b(ref_path(D + "noaa_b/test_little_endian.b"))
        assert checksum_array(d["bands"][0]) == 3
        assert d["geotransform"] == pytest.approx(
            (1.75, 0.5, 0.0, 49.25, 0.0, -0.5))

    def test_values_match_between_endiannesses(self):
        a = read_noaa_b(ref_path(D + "noaa_b/test.b"))["bands"][0]
        b = read_noaa_b(
            ref_path(D + "noaa_b/test_little_endian.b"))["bands"][0]
        assert np.array_equal(a, b)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_noaa_b(b"\xff" * 60)


class TestSNODAS:
    def test_fake_snodas_pin(self):
        # gdrivers/snodas.py: gt + WGS84 + nodata/min/max
        d = read_snodas(ref_path(D + "snodas/fake_snodas.hdr"))
        assert d["geotransform"] == pytest.approx(
            (-124.733749999995, 0.0083333333333330643, 0.0,
             52.874583333331302, 0.0, -0.0083333333333330054))
        assert d["crs"] == "EPSG:4326"
        assert d["nodata"] == -9999
        assert d["stat_min"] == 0
        assert d["stat_max"] == 429
        assert d["bands"][0].shape == (3351, 6935)
        assert d["bands"][0].dtype == np.int16


class TestDOQ:
    def test_doq2_truncated_pin(self):
        # gdrivers/doq2.py: per-band first-line checksums + gt + metadata
        d = read_doq2(ref_path(D + "doq2/C3607614_truncated.NWS"))
        assert checksum_array(d["bands"][0][0:1, 0:500]) == 4201
        assert checksum_array(d["bands"][1][0:1, 0:500]) == 4010
        assert checksum_array(d["bands"][2][0:1, 0:500]) == 5820
        assert d["geotransform"] == (377054, 1, 0, 4082205, 0, -1)
        assert d["metadata"]["QUADRANGLE_NAME"] == \
            "NORFOLK SOUTH 3.45 or 7.5-min. name*"

    def test_doq1_fake_rejected(self):
        # gdrivers/doq1.py test_doq1_1: open must FAIL on the fake file
        with pytest.raises(ValueError):
            read_doq1(ref_path(D + "doq1/fakedoq1.doq"))


class TestNDF:
    def test_ndf_pin(self):
        # gdrivers/ndf.py: checksum 6510 over the first line + gt + UTM 46
        d = read_ndf(ref_path(D + "ndf/LE7134052000500350.H3"))
        assert d["bands"][0].shape == (14680, 15620)
        assert checksum_array(d["bands"][0][0:1, :]) == 6510
        assert d["geotransform"] == pytest.approx(
            (320325.75, 14.25, 0, 1383062.25, 0, -14.25))
        assert d["crs"] == "EPSG:32646"


class TestNSIDCbin:
    def test_antarctic_pin(self):
        # gdrivers/nsidcbin.py: 316 cols, uint8, pixel (60,44) == 27
        d = read_nsidcbin(ref_path(D + "nsidcbin/nt_20220409_f18_nrt_s.bin"))
        assert d["bands"][0].shape[1] == 316
        assert d["bands"][0].dtype == np.uint8
        assert int(d["bands"][0][44, 60]) == 27
        assert d["geotransform"] == (
            -3950000.0, 25000.0, 0.0, 4350000.0, 0.0, -25000.0)
        assert d["nodata"] == 255.0
        assert d["scale"] == 0.4

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_nsidcbin(b" " * 400)


class TestCPG:
    def test_sirc_pin(self):
        # gdrivers/cpg.py test_cpg_1: band 1 checksum 0 on the 1x1 file
        d = read_cpg_sirc(ref_path(D + "cpg/fakecpgSIRC.hdr"))
        assert len(d["bands"]) == 4
        assert d["bands"][0].shape == (1, 1)
        assert d["bands"][0].dtype == np.complex64
        assert checksum_array(d["bands"][0].real) == 0
        assert d["polarizations"] == ("HH", "HV", "VH", "VV")

    def test_scale_formula(self):
        # hand-check the SIRC radiometric scale on the fixture bytes:
        # scale = sqrt((b1/254 + 1.5) * 2**b0) / 127
        import struct as _s

        raw = open(ref_path(D + "cpg/fakecpgSIRC.img"), "rb").read()
        b = _s.unpack("10b", raw)
        want = np.sqrt((b[1] / 254 + 1.5) * 2.0 ** b[0]) / 127.0
        d = read_cpg_sirc(ref_path(D + "cpg/fakecpgSIRC.img"))
        got = d["bands"][0][0, 0]
        assert got.real == pytest.approx(b[2] * want, rel=1e-6)
        assert got.imag == pytest.approx(b[3] * want, rel=1e-6)

    def test_stokes_flavour_raises(self):
        with pytest.raises(ValueError, match="SIRC"):
            read_cpg_sirc("/tmp/nonexistent_stokes.hdr")


class TestMFF2:
    def test_bytemff2_pin(self):
        # gdrivers/mff2.py test_mff2_1: checksum 4672 (the byte.tif grid)
        d = read_mff2(ref_path(D + "mff2/bytemff2"))
        assert d["bands"][0].shape == (20, 20)
        assert d["bands"][0].dtype == np.uint8
        assert checksum_array(d["bands"][0]) == 4672


class TestBT:
    def test_roundtrip_int16_float32_int32(self):
        rng = np.random.default_rng(7)
        gt = (-67.00041667, 0.00083333, 0.0, 50.000416667, 0.0, -0.00083333)
        for dt in (np.int16, np.int32, np.float32):
            arr = rng.integers(-500, 500, (20, 20)).astype(dt)
            d = decode_bt(encode_bt(arr, gt))
            assert np.array_equal(d["bands"][0], arr)
            assert d["geotransform"] == pytest.approx(gt)
            assert d["bt_version"] == pytest.approx(1.3)

    def test_byte_grid_checksum_survives(self, tmp_path):
        # the reference CreateCopy pins checksum 4672 from int16.tif;
        # reuse the repo's canonical byte.tif grid as the source
        from gdal_ray.raster.gtiff import decode_geotiff

        src = decode_geotiff(open(
            ref_path("autotest/gcore/data/byte.tif"), "rb").read())
        arr = src["bands"][0].astype(np.int16)
        assert checksum_array(arr) == 4672
        p = tmp_path / "t.bt"
        p.write_bytes(encode_bt(arr, src["geotransform"]))
        d = read_bt(str(p))
        assert checksum_array(d["bands"][0]) == 4672

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_bt(b"notbinterr" + b"\x00" * 300)


class TestKRO:
    def test_roundtrip_rgb_uint8(self):
        rng = np.random.default_rng(11)
        bands = [rng.integers(0, 255, (10, 12)).astype(np.uint8)
                 for _ in range(3)]
        d = decode_kro(encode_kro(bands))
        assert len(d["bands"]) == 3
        for got, want in zip(d["bands"], bands):
            assert np.array_equal(got, want)

    def test_roundtrip_uint16_float32(self):
        rng = np.random.default_rng(13)
        for dt in (np.uint16, np.float32):
            arr = rng.integers(0, 60000, (6, 9)).astype(dt)
            d = decode_kro(encode_kro([arr]))
            assert np.array_equal(d["bands"][0], arr)

    def test_byte_grid_checksum(self, tmp_path):
        from gdal_ray.raster.gtiff import decode_geotiff

        src = decode_geotiff(open(
            ref_path("autotest/gcore/data/byte.tif"), "rb").read())
        p = tmp_path / "t.kro"
        p.write_bytes(encode_kro([src["bands"][0]]))
        assert checksum_array(read_kro(str(p))["bands"][0]) == 4672

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            decode_kro(b"XXXX" + b"\x00" * 40)


class TestACE2:
    def test_synthesized_tile_pin(self, tmp_path):
        # gdrivers/ace2.py test_ace2_1: zero-filled 45N015E_5M tile →
        # checksum 0, gt (15, 1/12, 0, 60, 0, -1/12), WGS84
        p = tmp_path / "45N015E_5M.ACE2"
        p.write_bytes(b"\x00" * (180 * 180 * 4))
        d = read_ace2(str(p))
        assert d["bands"][0].shape == (180, 180)
        assert d["bands"][0].dtype == np.float32
        assert checksum_array(d["bands"][0]) == 0
        assert d["geotransform"] == pytest.approx(
            (15.0, 0.08333333333333333, 0.0, 60.0, 0.0,
             -0.08333333333333333))
        assert d["crs"] == "EPSG:4326"

    def test_south_west_and_int16_variants(self, tmp_path):
        p = tmp_path / "30S120W_CONF_5M.ACE2"
        p.write_bytes(b"\x01\x00" * (180 * 180))
        d = read_ace2(str(p))
        assert d["bands"][0].dtype == np.int16
        assert d["geotransform"][0] == -120.0
        assert d["geotransform"][3] == pytest.approx(-15.0)


class TestDispatch:
    """The CLI loader routes every rawzoo format by extension/sniff."""

    CASES = [
        ("gsc/fakegsc.gsc", (1, 1)),
        ("noaa_b/test.b", (1, 2)),
        ("snodas/fake_snodas.hdr", (3351, 6935)),
        ("nsidcbin/nt_20220409_f18_nrt_s.bin", (332, 316)),
        ("cpg/fakecpgSIRC.hdr", (1, 1)),
        ("mff2/bytemff2", (20, 20)),
        ("ndf/LE7134052000500350.H3", (14680, 15620)),
    ]

    def test_load_raster_routes(self):
        from gdal_ray.drivers import load_raster

        for rel, shape in self.CASES:
            d = load_raster(ref_path(D + rel))
            assert d["bands"][0].shape == shape, rel

    def test_load_raster_bt_kro_ace2(self, tmp_path):
        from gdal_ray.drivers import load_raster

        arr = np.arange(12, dtype=np.int16).reshape(3, 4)
        p = tmp_path / "t.bt"
        p.write_bytes(encode_bt(arr, (0, 1, 0, 3, 0, -1)))
        assert np.array_equal(load_raster(str(p))["bands"][0], arr)
        k = tmp_path / "t.kro"
        k.write_bytes(encode_kro([arr.astype(np.uint8)] * 3))
        assert len(load_raster(str(k))["bands"]) == 3
        a = tmp_path / "45N015E_5M.ACE2"
        a.write_bytes(b"\x00" * (180 * 180 * 4))
        assert load_raster(str(a))["crs"] == "EPSG:4326"


class TestPCRaster:
    """CSF-2.0 map reader — autotest pins (gdrivers/pcraster.py)."""

    def test_ldd_map(self):
        from gdal_ray.raster.checksum import checksum_array
        from gdal_ray.raster.rawzoo import read_pcraster

        d = read_pcraster(ref_path(D + "pcraster/ldd.map"))
        assert checksum_array(d["bands"][0]) == 4528
        assert d["geotransform"] == (182140.0, 10.0, 0.0,
                                     327880.0, 0.0, -10.0)
        assert d["nodata"] == 255
        assert d["value_scale"] == 0xF0  # VS_LDD

    def test_dispatch(self):
        from gdal_ray.drivers import load_raster
        from gdal_ray.raster.checksum import checksum_array

        d = load_raster(ref_path(D + "pcraster/ldd.map"))
        assert checksum_array(d["bands"][0]) == 4528
