"""TGA read tests — ALL the reference autotest pins
(gdrivers/tga.py): 8 ref_test_suite fixtures, stefan_full_rgba,
both ffmpeg cross-scanline RLE files, metadata and palette entries.
Reference role: frmts/tga/tgadataset.cpp."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.tga import decode_tga, read_tga

D = "/root/reference/autotest/gdrivers/data/tga/"


@pytest.mark.parametrize("name,want", [
    ("ref_test_suite/cbw8.tga", [43089]),
    ("ref_test_suite/ubw8.tga", [43089]),
    ("ref_test_suite/ccm8.tga", [38151]),
    ("ref_test_suite/ucm8.tga", [38151]),
    ("ref_test_suite/ctc24.tga", [9797, 9952, 9848]),
    ("ref_test_suite/utc24.tga", [9797, 9952, 9848]),
    ("ref_test_suite/utc16.tga", [64747, 64839, 64796]),
    ("ref_test_suite/utc32.tga", [9797, 9952, 9848, 0]),
    ("stefan_full_rgba.tga", [12603, 58561, 36064, 10807]),
    ("from_ffmpeg_samples/test1g.tga", [13077]),
    ("from_ffmpeg_samples/TEST24rle.tga", [39607, 6458, 44534]),
])
def test_reference_pins(name, want):
    r = read_tga(D + name)
    assert [checksum_array(b) for b in r["bands"]] == want


def test_rle_equals_uncompressed():
    for a, b in (("cbw8", "ubw8"), ("ccm8", "ucm8"),
                 ("ctc24", "utc24")):
        ra = read_tga(D + f"ref_test_suite/{a}.tga")
        rb = read_tga(D + f"ref_test_suite/{b}.tga")
        for x, y in zip(ra["bands"], rb["bands"]):
            assert np.array_equal(x, y)


def test_metadata_and_palette():
    r = read_tga(D + "ref_test_suite/cbw8.tga")
    m = r["metadata"]
    assert m["AUTHOR_NAME"] == "Ricky True"
    assert m["COMMENTS"] == ("Sample 8 bit run length compressed "
                             "black and white image")
    assert m["IMAGE_ID"] == "Truevision(R) Sample Image"
    pal = read_tga(D + "ref_test_suite/ucm8.tga")["palette"]
    assert len(pal) == 256
    assert pal[0] == (0, 0, 0)
    assert pal[1] == (8, 8, 8)
    assert pal[64] == (248, 0, 0)


def test_sizes_and_rejects():
    r = read_tga(D + "stefan_full_rgba.tga")
    assert r["bands"][0].shape == (150, 162)
    with pytest.raises(ValueError, match="TGA"):
        decode_tga(b"\x00" * 18 + b"x")


def test_load_raster_dispatch():
    from gdal_ray.drivers import load_raster

    r = load_raster(D + "ref_test_suite/ubw8.tga")
    assert checksum_array(r["bands"][0]) == 43089
