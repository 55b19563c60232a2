"""PNM (PBM/PGM/PPM P1–P6) tests — reference autotest pins
(gdrivers/pnm.py: byte.pgm 4672, rgbsmall.ppm band-2 21053,
int_max.pgm header-only open) + roundtrips.  Reference role:
frmts/raw/pnmdataset.cpp."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.pnm import (
    decode_pnm,
    encode_pnm,
    pnm_size,
    read_pnm,
    write_pnm,
)

D = "/root/reference/autotest/gdrivers/data/pnm/"


def test_byte_pgm_pin():
    r = read_pnm(D + "byte.pgm")
    assert len(r["bands"]) == 1
    assert checksum_array(r["bands"][0]) == 4672


def test_rgbsmall_ppm_pin():
    r = read_pnm(D + "rgbsmall.ppm")
    assert len(r["bands"]) == 3
    assert checksum_array(r["bands"][1]) == 21053


def test_int_max_header_only():
    data = open(D + "int_max.pgm", "rb").read()
    assert pnm_size(data) == (2147483647, 2147483647)
    with pytest.raises(ValueError, match="pnm_size"):
        decode_pnm(data)


def test_binary_roundtrips(tmp_path):
    rng = np.random.default_rng(9)
    grey = rng.integers(0, 256, (7, 9), np.uint8)
    p = str(tmp_path / "g.pgm")
    write_pnm(p, [grey])
    assert np.array_equal(read_pnm(p)["bands"][0], grey)
    rgb = [rng.integers(0, 256, (7, 9), np.uint8) for _ in range(3)]
    rt = decode_pnm(encode_pnm(rgb))
    for a, b in zip(rgb, rt["bands"]):
        assert np.array_equal(a, b)
    # 16-bit big-endian wire rule
    g16 = rng.integers(0, 65536, (5, 4)).astype(np.uint16)
    rt16 = decode_pnm(encode_pnm([g16]))
    assert rt16["bands"][0].dtype == np.uint16
    assert np.array_equal(rt16["bands"][0], g16)


def test_ascii_variants():
    # P2 with a comment line; P3 RGB; P1 bitmap (1 = black -> 0)
    p2 = b"P2\n# comment\n3 2\n255\n0 10 20\n30 40 50\n"
    r = decode_pnm(p2)
    assert np.array_equal(r["bands"][0],
                          [[0, 10, 20], [30, 40, 50]])
    p3 = b"P3\n2 1\n255\n1 2 3 4 5 6\n"
    r3 = decode_pnm(p3)
    assert [b.tolist() for b in r3["bands"]] == [[[1, 4]], [[2, 5]],
                                                 [[3, 6]]]
    p1 = b"P1\n3 2\n1 0 1\n0 1 0\n"
    r1 = decode_pnm(p1)
    assert np.array_equal(r1["bands"][0], [[0, 1, 0], [1, 0, 1]])


def test_p4_packed_bitmap():
    # 10 px wide: 2 bytes per row, padding bits ignored
    rows = np.array([[0b10110000, 0b01000000],
                     [0b00000001, 0b11000000]], np.uint8)
    data = b"P4\n10 2\n" + rows.tobytes()
    r = decode_pnm(data)
    want0 = [0, 1, 0, 0, 1, 1, 1, 1, 1, 0]
    want1 = [1, 1, 1, 1, 1, 1, 1, 0, 0, 0]
    assert r["bands"][0].reshape(2, 10).tolist() == [want0, want1]


def test_load_raster_dispatch():
    from gdal_ray.drivers import load_raster

    assert checksum_array(load_raster(D + "byte.pgm")["bands"][0]) == 4672
