"""ZMap / HF2 / CALS drivers + G4 encoder + BSB .NO1 + packed 1-bit
TIFF reads — pinned against the reference autotest checksums
(gdrivers/zmap.py, hf2.py, cals.py; gcore/tiff_write.py:425)."""

import ctypes
import gzip
import os

import numpy as np
import pytest

from gdal_ray.raster import gtiff
from gdal_ray.raster.cals import decode_cals, encode_cals
from gdal_ray.raster.ccitt import decode_g4, encode_g4
from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.hf2 import decode_hf2, encode_hf2, write_hf2, read_hf2
from gdal_ray.raster.zmap import decode_zmap, encode_zmap

GDRV = "/root/reference/autotest/gdrivers/data"
GCORE = "/root/reference/autotest/gcore/data"

ZMAP_GOLDEN = (
    b"!\n! Created by GDAL.\n!\n@GRID FILE, GRID, 4\n"
    b"        20,               1E+30,          ,         7,         1\n"
    b"         5,         2,     0.0000000,     2.0000000,"
    b"    -5.0000000,     0.0000000\n"
    b"0.0, 0.0, 0.0\n@\n"
    b"           0.0000000           2.0000000           4.0000000"
    b"           6.0000000\n"
    b"           8.0000000           1.0000000           3.0000000"
    b"           5.0000000\n"
    b"           7.0000000           9.0000000\n")


def _byte_tif():
    return gtiff.decode_geotiff(open(f"{GDRV}/byte.tif", "rb").read())


class TestZMap:
    def test_golden_no_flush(self):
        # autotest zmap.py::test_zmap_no_flush_end_of_column literal
        arr = np.arange(10, dtype=np.uint8).reshape(5, 2)
        blob = encode_zmap(arr, (0, 1, 0, 0, 0, -1),
                           eol_at_end_of_column=False)
        assert blob == ZMAP_GOLDEN
        d = decode_zmap(blob)
        assert (d["bands"][0] == arr).all()

    def test_byte_roundtrip(self):
        g = _byte_tif()
        d = decode_zmap(encode_zmap(g["bands"][0], g["geotransform"]))
        assert checksum_array(d["bands"][0]) == 4672
        assert np.allclose(d["geotransform"], g["geotransform"])

    def test_nodata_roundtrip(self):
        arr = np.zeros((2, 2))
        d = decode_zmap(encode_zmap(arr, (0, 1, 0, 0, 0, -1),
                                    nodata=-3.402823e38))
        assert d["nodata"] == pytest.approx(-3.402823e38, rel=1e-6)

    def test_int_scaling_rule(self):
        # a field without '.' is an integer times 10^decimalCount
        blob = ZMAP_GOLDEN.replace(b"           9.0000000",
                                   b"                   9")
        d = decode_zmap(blob)
        assert d["bands"][0][4, 1] == 9 * 10.0 ** 7


class TestHF2:
    def test_byte_int16_path(self):
        g = _byte_tif()
        blob = encode_hf2(g["bands"][0], g["geotransform"])
        d = decode_hf2(blob)
        assert checksum_array(d["bands"][0]) == 4672  # autotest hf2_1
        assert np.allclose(d["geotransform"], g["geotransform"])
        assert (d["bands"][0] == g["bands"][0]).all()

    def test_compress_blocksize(self, tmp_path):
        g = _byte_tif()
        p = str(tmp_path / "t.hfz")
        write_hf2(p, g["bands"][0], g["geotransform"], tile_size=10)
        d = read_hf2(p)
        assert checksum_array(d["bands"][0]) == 4672  # autotest hf2_2
        assert open(p, "rb").read()[:2] == b"\x1f\x8b"

    def test_float_img(self):
        # autotest hf2_3: float.img CreateCopy keeps checksum 23529
        from gdal_ray.raster.hfa import read_hfa

        fi = read_hfa(f"{GDRV}/hfa/float.img")
        d = decode_hf2(encode_hf2(fi["bands"][0], fi["geotransform"]))
        assert checksum_array(d["bands"][0]) == 23529
        assert d["bands"][0] == pytest.approx(
            fi["bands"][0].astype(np.float32), abs=0.011)

    def test_n43_dted(self):
        # autotest hf2_4: n43.dt0 CreateCopy checksum 49187
        from gdal_ray.raster.dted import read_dted

        n43 = read_dted(f"{GDRV}/n43.dt0")
        d = decode_hf2(encode_hf2(n43["bands"][0], n43["geotransform"]))
        assert checksum_array(d["bands"][0]) == 49187

    def test_georef_blocks(self):
        arr = np.arange(64, dtype=np.int16).reshape(8, 8)
        blob = encode_hf2(arr, (10, 0.5, 0, 20, 0, -0.25),
                          tile_size=8, epsg=32611, datum=6326,
                          utm_zone=11)
        d = decode_hf2(blob)
        assert d["crs"] == "EPSG:32611"
        assert np.allclose(d["geotransform"], (10, 0.5, 0, 20, 0, -0.25))
        # drop the epsg block → UTM fallback
        d2 = decode_hf2(encode_hf2(arr, (10, 0.5, 0, 20, 0, -0.25),
                                   tile_size=8, utm_zone=-11))
        assert d2["crs"] == "EPSG:32711"

    def test_word_size_escalation(self):
        # deltas forcing 1-, 2- and 4-byte words in one file
        arr = np.array([[0, 5, 10, 1000, -2000, 100000, -5, 7, 0, 3]],
                       np.int32).repeat(8, 0)
        d = decode_hf2(encode_hf2(arr, (0, 1, 0, 0, 0, -1), tile_size=8))
        assert (d["bands"][0] == arr).all()


class TestCALS:
    def test_small1bit(self):
        # autotest cals_1: hfa/small1bit.img → checksum 9907
        from gdal_ray.raster.hfa import read_hfa

        s = read_hfa(f"{GDRV}/hfa/small1bit.img")
        d = decode_cals(encode_cals(s["bands"][0]))
        assert checksum_array(d["bands"][0]) == 9907
        assert d["color_table"][0] == (255, 255, 255)

    def test_oddsize1bit(self):
        # autotest cals_2/3: oddsize1bit.tif → 3883, CALS→CALS → 3883
        g = gtiff.decode_geotiff(open(f"{GCORE}/oddsize1bit.tif",
                                      "rb").read())
        d = decode_cals(encode_cals(g["bands"][0]))
        assert checksum_array(d["bands"][0]) == 3883
        d2 = decode_cals(encode_cals(d["bands"][0], invert=False,
                                     dpi=600))
        assert checksum_array(d2["bands"][0]) == 3883
        assert d2["dpi"] == 600
        assert "pixel_path" not in d2

    def test_orientation_metadata(self):
        # autotest cals_5: non-default rorient survives a roundtrip
        img = np.eye(5, dtype=np.uint8)
        d = decode_cals(encode_cals(img, pixel_path=90,
                                    line_progression=270))
        assert d["pixel_path"] == 90
        assert d["line_progression"] == 270

    def test_guards(self):
        with pytest.raises(ValueError):
            encode_cals(np.zeros((1, 1000000), np.uint8))
        with pytest.raises(ValueError):
            decode_cals(b"not cals" + b" " * 3000)


class TestG4Encoder:
    def test_random_roundtrips(self):
        rng = np.random.default_rng(7)
        for shape in [(1, 1), (5, 8), (64, 64), (33, 2600)]:
            img = (rng.random(shape) < 0.35).astype(np.uint8)
            assert (decode_g4(encode_g4(img), shape[1], shape[0])
                    == img).all()

    def test_tiff_g4_write(self):
        img = np.zeros((99, 99), np.uint8)
        img[10:50, 5:90] = 1
        img[::7] ^= 1
        blob = gtiff.encode_geotiff([img], "EPSG:32611",
                                    (440720, 60, 0, 3751320, 0, -60),
                                    compression="ccittg4")
        d = gtiff.decode_geotiff(blob)
        assert (d["bands"][0] == img).all()
        assert d["photometric"] == 0

    @pytest.mark.skipif(
        not os.path.exists("/usr/lib/x86_64-linux-gnu/libtiff.so.6"),
        reason="libtiff absent")
    def test_libtiff_decodes_our_g4(self, tmp_path):
        # cross-validate the encoder against libtiff's G4 decoder
        img = (np.random.default_rng(3).random((60, 200)) < 0.3
               ).astype(np.uint8)
        blob = gtiff.encode_geotiff([img], "", (0, 1, 0, 0, 0, -1),
                                    compression="ccittg4")
        p = str(tmp_path / "g4.tif")
        open(p, "wb").write(blob)
        t = ctypes.CDLL("/usr/lib/x86_64-linux-gnu/libtiff.so.6")
        t.TIFFOpen.restype = ctypes.c_void_p
        t.TIFFOpen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
        tif = t.TIFFOpen(p.encode(), b"r")
        assert tif
        rowbytes = (img.shape[1] + 7) // 8
        buf = ctypes.create_string_buffer(rowbytes)
        got = np.zeros_like(img)
        for y in range(img.shape[0]):
            assert t.TIFFReadScanline(
                ctypes.c_void_p(tif), buf, ctypes.c_uint32(y),
                ctypes.c_uint16(0)) == 1
            bits = np.unpackbits(
                np.frombuffer(buf.raw, np.uint8))[:img.shape[1]]
            got[y] = bits
        t.TIFFClose(ctypes.c_void_p(tif))
        assert (got == img).all()


class TestPacked1Bit:
    def test_oddsize1bit_read(self):
        # reference pin: gcore/tiff_write.py:425 → checksum 5918
        g = gtiff.decode_geotiff(open(f"{GCORE}/oddsize1bit.tif",
                                      "rb").read())
        assert checksum_array(g["bands"][0]) == 5918

    def test_oddsize_1bit2b_planar(self):
        # band 2 of the 2-band planar 1-bit fixture → 5918
        g = gtiff.decode_geotiff(open(f"{GCORE}/oddsize_1bit2b.tif",
                                      "rb").read())
        assert checksum_array(g["bands"][1]) == 5918


class TestBSBNO1:
    def test_no1_equals_kap(self, tmp_path):
        # re-obfuscate the reference fixture per bsb_read.c BSBGetc:
        # record/scanline bytes +9 mod 256, offset table raw
        from gdal_ray.raster.bsb import read_bsb

        src = f"{GDRV}/bsb/rgbsmall_index.kap"
        ref = read_bsb(src)
        raw = open(src, "rb").read()
        n = len(raw)
        idx_off = int.from_bytes(raw[n - 4:], "big")
        hdr_end = raw.find(b"\x1a\x00")
        out_lines = []
        for ln in raw[:hdr_end].splitlines():
            if ln.startswith(b"!") or ln.startswith(b"VER/"):
                continue
            if ln.startswith(b"BSB/"):
                out_lines.insert(0, b"NOS/" + ln[4:].replace(
                    b"RA=50,50", b"RA=1,1,50,50"))
            else:
                out_lines.append(ln)
        new_hdr = b"\r\n".join(out_lines)
        delta = len(new_hdr) - hdr_end
        offs = np.frombuffer(raw[idx_off:n - 4], ">u4") + delta
        body = new_hdr + raw[hdr_end:idx_off]
        body = (np.frombuffer(body, np.uint8).astype(np.int16) + 9
                ).astype(np.uint8).tobytes()
        p = str(tmp_path / "chart.no1")
        open(p, "wb").write(body + offs.astype(">u4").tobytes()
                            + (idx_off + delta).to_bytes(4, "big"))
        got = read_bsb(p)
        assert (got["bands"][0] == ref["bands"][0]).all()
        assert got.get("color_table") == ref.get("color_table")
        assert checksum_array(got["bands"][0]) == 30321


class TestDispatch:
    def test_load_raster_new_extensions(self, tmp_path):
        from gdal_ray.drivers import load_raster
        from gdal_ray.raster.cals import write_cals
        from gdal_ray.raster.zmap import write_zmap

        arr = (np.arange(400) * 37 % 256).astype(np.uint8).reshape(20, 20)
        gt = (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0)
        pz = str(tmp_path / "g.zmap")
        write_zmap(pz, arr, gt)
        np.testing.assert_array_equal(load_raster(pz)["bands"][0], arr)
        ph = str(tmp_path / "g.hf2")
        write_hf2(ph, arr, gt)
        np.testing.assert_array_equal(load_raster(ph)["bands"][0], arr)
        pc = str(tmp_path / "g.cal")
        bits = (arr > 128).astype(np.uint8)
        write_cals(pc, bits, invert=False)  # bits in (white, black) order
        np.testing.assert_array_equal(load_raster(pc)["bands"][0], bits)