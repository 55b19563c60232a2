"""BMP + GIF driver tests — reference autotest pins
(gcore/bmp_read.py init_list; gdrivers/gif.py test_gif_2/8/9/10) and
roundtrips.  Reference roles: frmts/bmp/bmpdataset.cpp,
frmts/gif/gifdataset.cpp (giflib delegation re-derived from the
public specs).
"""

import numpy as np
import pytest

from gdal_ray.raster.bmp import decode_bmp, encode_bmp, read_bmp, write_bmp
from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.gif import decode_gif, encode_gif, gif_size

GCORE = "/root/reference/autotest/gcore/data/"
GIFD = "/root/reference/autotest/gdrivers/data/gif/"
BYTE_TIF = GCORE + "byte.tif"


class TestBMP:
    @pytest.mark.parametrize("name,want", [
        ("1bit.bmp", 200),
        ("4bit_pal.bmp", 2587),
        ("4bit_rle4.bmp", 2587),
        ("8bit_pal.bmp", 4672),
        ("byte_rle8.bmp", 4672),
        ("bmp/red_rgb_1x1.bmp", 3),
    ])
    def test_reference_pins(self, name, want):
        # gcore/bmp_read.py init_list — band-1 checksum parity
        r = decode_bmp(open(GCORE + name, "rb").read())
        assert checksum_array(r["bands"][0]) == want

    def test_rle_equals_plain(self):
        a = decode_bmp(open(GCORE + "4bit_pal.bmp", "rb").read())
        b = decode_bmp(open(GCORE + "4bit_rle4.bmp", "rb").read())
        assert np.array_equal(a["bands"][0], b["bands"][0])
        c = decode_bmp(open(GCORE + "8bit_pal.bmp", "rb").read())
        d = decode_bmp(open(GCORE + "byte_rle8.bmp", "rb").read())
        assert np.array_equal(c["bands"][0], d["bands"][0])

    def test_paletted_roundtrip(self):
        g = decode_bmp(open(GCORE + "8bit_pal.bmp", "rb").read())
        rt = decode_bmp(encode_bmp(g["bands"], g["palette"]))
        assert np.array_equal(rt["bands"][0], g["bands"][0])
        assert rt["palette"][:len(g["palette"])] == g["palette"]

    def test_rgb_roundtrip_odd_width(self):
        rng = np.random.default_rng(2)
        bands = [rng.integers(0, 256, (11, 13), np.uint8)
                 for _ in range(3)]
        rt = decode_bmp(encode_bmp(bands))
        for a, b in zip(bands, rt["bands"]):
            assert np.array_equal(a, b)

    def test_worldfile(self, tmp_path):
        arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
        gt = (100.0, 2.5, 0.0, 50.0, 0.0, -2.5)
        p = str(tmp_path / "w.bmp")
        write_bmp(p, [arr], gt=gt)
        r = read_bmp(p)
        assert np.array_equal(r["bands"][0], arr)
        assert r["geotransform"] == pytest.approx(gt)

    def test_reject_garbage(self):
        with pytest.raises(ValueError, match="BMP"):
            decode_bmp(b"NOPE")


class TestGIF:
    def test_bug407_pin(self):
        # test_gif_2 role: band-1 checksum 57921
        r = decode_gif(open(GIFD + "bug407.gif", "rb").read())
        assert checksum_array(r["bands"][0]) == 57921
        assert r["bands"][0].shape == (400, 400)
        assert len(r["palette"]) > 0

    def test_xmp_extension(self):
        x = decode_gif(open(GIFD + "byte_with_xmp.gif", "rb").read())
        assert checksum_array(x["bands"][0]) == 4672
        assert x["xmp"] and "xmpmeta" in x["xmp"]

    def test_biggif_guard(self):
        # test_gif_8 role: huge image descriptor → BIGGIF split
        data = open(GIFD + "fakebig.gif", "rb").read()
        assert gif_size(data) == (400, 400)
        with pytest.raises(ValueError, match="BIGGIF"):
            decode_gif(data)

    def test_byte_roundtrip(self):
        # test_gif_9 role: CreateCopy byte.tif → checksum 4672
        from gdal_ray.raster.gtiff import decode_geotiff

        g = decode_geotiff(open(BYTE_TIF, "rb").read())
        rt = decode_gif(encode_gif(g["bands"][0]))
        assert checksum_array(rt["bands"][0]) == 4672
        assert np.array_equal(rt["bands"][0], g["bands"][0])

    def test_interlaced_roundtrip(self):
        # test_gif_10 role: INTERLACING=YES still reads back 4672
        from gdal_ray.raster.gtiff import decode_geotiff

        g = decode_geotiff(open(BYTE_TIF, "rb").read())
        rt = decode_gif(encode_gif(g["bands"][0], interlace=True))
        assert np.array_equal(rt["bands"][0], g["bands"][0])

    def test_lzw_table_overflow_roundtrip(self):
        # noise maximizes dictionary churn: forces the 12-bit CLEAR
        rng = np.random.default_rng(7)
        arr = rng.integers(0, 256, (200, 300), np.uint8)
        rt = decode_gif(encode_gif(arr))
        assert np.array_equal(rt["bands"][0], arr)

    def test_transparent_nodata(self):
        arr = np.array([[0, 1], [2, 3]], np.uint8)
        rt = decode_gif(encode_gif(arr, transparent=3))
        assert rt["nodata"] == 3.0

    def test_load_raster_dispatch(self):
        from gdal_ray.drivers import load_raster

        r = load_raster(GIFD + "bug407.gif")
        assert checksum_array(r["bands"][0]) == 57921
        b = load_raster(GCORE + "8bit_pal.bmp")
        assert checksum_array(b["bands"][0]) == 4672
