"""Terragen terrain (.ter/.terrain) driver — reference role
frmts/terragen/terragendataset.cpp, re-derived from the public
Terragen terrain-file spec: a 16-byte "TERRAGENTERRAIN " signature,
then 4-char chunks — SIZE (u16 n + 2 pad; square grid of n+1 posts
unless XPTS/YPTS follow), XPTS/YPTS (u16 + 2 pad), SCAL (3×f32 grid
spacing; y is the post distance, default 30 m), CRAD/CRVM (skipped),
ALTW (i16 heightScale, i16 baseHeight, then xpts·ypts little-endian
int16 posts, rows BOTTOM-UP), "EOF ".

The stored int16 is a normalized height: physical metres =
stored · SCAL·heightScale/65536 + SCAL·baseHeight (the band's
scale/offset; the band itself reads raw Int16 like the reference's
read-only path).  Pinned against the reference autotest
(gdrivers/terragen.py: float32.ter checksum 1128)."""

from __future__ import annotations

import struct

import numpy as np


def decode_terragen(data: bytes) -> dict:
    if data[:16] != b"TERRAGENTERRAIN ":
        raise ValueError("Terragen: bad signature")
    pos = 16
    scal = 30.0
    xpts = ypts = None
    height_scale = base_height = 0
    grid = None
    while pos + 4 <= len(data):
        tag = data[pos:pos + 4]
        pos += 4
        if tag == b"SIZE":
            n = struct.unpack("<H", data[pos:pos + 2])[0]
            pos += 4
            if xpts is None:
                xpts, ypts = n + 1, n + 1
        elif tag == b"XPTS":
            xpts = struct.unpack("<H", data[pos:pos + 2])[0]
            pos += 4
        elif tag == b"YPTS":
            ypts = struct.unpack("<H", data[pos:pos + 2])[0]
            pos += 4
        elif tag == b"SCAL":
            _sx, scal, _sz = struct.unpack("<3f", data[pos:pos + 12])
            pos += 12
        elif tag == b"CRAD":
            pos += 4
        elif tag == b"CRVM":
            pos += 4
        elif tag == b"ALTW":
            height_scale, base_height = struct.unpack(
                "<hh", data[pos:pos + 4])
            pos += 4
            n = xpts * ypts
            grid = np.frombuffer(data[pos:pos + n * 2], "<i2") \
                .reshape(ypts, xpts)[::-1]  # bottom-up → north-up
            pos += n * 2
        elif tag == b"EOF ":
            break
        else:
            raise ValueError(f"Terragen: unknown chunk {tag!r}")
    if grid is None:
        raise ValueError("Terragen: missing ALTW chunk")
    return {
        "bands": [np.ascontiguousarray(grid)],
        "crs": None,
        "geotransform": (0.0, scal, 0.0, 0.0, 0.0, scal),
        "scale": scal / 65536.0 * height_scale,
        "offset": scal * base_height,
        "units": "m",
    }


def read_terragen(path: str) -> dict:
    with open(path, "rb") as f:
        return decode_terragen(f.read())


def encode_terragen(grid_i16: np.ndarray, scal: float = 30.0,
                    height_scale: int = 1,
                    base_height: int = 0) -> bytes:
    ypts, xpts = grid_i16.shape
    out = [b"TERRAGENTERRAIN "]
    out.append(b"SIZE" + struct.pack("<Hxx", min(xpts, ypts) - 1))
    out.append(b"XPTS" + struct.pack("<Hxx", xpts))
    out.append(b"YPTS" + struct.pack("<Hxx", ypts))
    out.append(b"SCAL" + struct.pack("<3f", scal, scal, scal))
    out.append(b"ALTW" + struct.pack("<hh", height_scale, base_height)
               + np.ascontiguousarray(
                   grid_i16[::-1].astype("<i2")).tobytes())
    out.append(b"EOF ")
    return b"".join(out)
