"""Erdas 7.x .LAN / .GIS driver — reference role
frmts/raw/landataset.cpp, re-derived from the documented 128-byte
Erdas header (the layout table in that file's own comment block is
the public format description):

  0   6  char    magic, "HEADER" (pre-7.4, float w/h) or "HEAD74"
  6   2  int16   pixel type: 0 = 8-bit, 1 = 4-bit packed, 2 = 16-bit
  8   2  int16   band count
  16  4  i32/f32 width  (float32 in "HEADER" files, int32 in "HEAD74")
  20  4  i32/f32 height
  88  2  int16   coordinate system: 0 = LAT (WGS84), 1 = UTM, 2 = SP
  112 4  float32 upper-left X (cell center)   116  float32 UL Y
  120 4  float32 pixel width                  124  float32 pixel height

Byte order is whatever platform wrote the file; detected the same way
the reference does — header byte 8 (low byte of the little-endian
band count) is 0 only for big-endian writers (landataset.cpp:380).
Data is band-interleaved-by-line after the header; the 4-bit form
packs two pixels per byte, high nibble first (landataset.cpp:223).
The geotransform shifts the cell-center UL to the corner:
``(ulx - dx/2, dx, 0, uly + dy/2, 0, -dy)``.  Pinned against the
reference autotest (gdrivers/lan.py: checksum 10 for both fakelan.lan
and fakelan4bit.lan)."""

from __future__ import annotations

import struct

import numpy as np

HDR = 128

_CRS = {0: "EPSG:4326", 1: "LOCAL:UTM", 2: "LOCAL:StatePlane"}


def decode_lan(data: bytes) -> dict:
    if len(data) < HDR:
        raise ValueError("LAN: truncated header")
    magic = data[:6].upper()
    if magic not in (b"HEADER", b"HEAD74"):
        raise ValueError(f"LAN: bad magic {magic!r}")
    if data[16:24] == b"S LAT   ":
        raise ValueError("LAN: NTv1 grid, not an Erdas raster")
    # endianness: byte 8 is the LOW byte of a little-endian int16
    # band count; 0 there means the writer was big-endian
    bo = ">" if data[8] == 0 else "<"
    ptype, nbands = struct.unpack(bo + "hh", data[6:10])
    if magic == b"HEADER":
        w, h = (int(v) for v in struct.unpack(bo + "ff", data[16:24]))
    else:
        w, h = struct.unpack(bo + "ii", data[16:24])
    if w <= 0 or h <= 0 or nbands <= 0:
        raise ValueError("LAN: bad dimensions")
    coordsys = struct.unpack(bo + "h", data[88:90])[0]
    ulx, uly, dx, dy = struct.unpack(bo + "4f", data[112:128])
    gt = (ulx - dx / 2.0, dx, 0.0, uly + dy / 2.0, 0.0, -dy)

    body = data[HDR:]
    if ptype == 0:
        dt, psize = np.uint8, 1
    elif ptype == 2:
        dt, psize = np.dtype(bo + "i2"), 2
    elif ptype == 1:
        dt, psize = np.uint8, None  # 4-bit packed
    else:
        raise ValueError(f"LAN: unsupported pixel type {ptype}")

    bands = []
    if ptype == 1:
        # two pixels per byte, high nibble = even (first) pixel
        row_bytes = w // 2
        raw = np.frombuffer(
            body[:row_bytes * h * nbands], np.uint8
        ).reshape(h, nbands, row_bytes)
        for b in range(nbands):
            packed = raw[:, b, :]
            out = np.empty((h, w), np.uint8)
            out[:, 0::2] = packed[:, : (w + 1) // 2] >> 4
            out[:, 1::2] = packed[:, : w // 2] & 0x0F
            bands.append(out)
    else:
        raw = np.frombuffer(
            body[: w * h * nbands * psize], dt
        ).reshape(h, nbands, w)
        for b in range(nbands):
            bands.append(np.ascontiguousarray(raw[:, b, :]))
    return {
        "bands": bands,
        "crs": _CRS.get(coordsys, f"LOCAL:lan-{coordsys}"),
        "geotransform": gt,
        "pixel_type": ptype,
    }


def encode_lan(bands: list, geotransform=None, coordsys: int = 0) -> bytes:
    """Minimal HEAD74 writer (8/16-bit, BIL) for roundtrips."""
    arr = np.asarray(bands[0])
    h, w = arr.shape
    if any(np.asarray(b).shape != (h, w) for b in bands):
        raise ValueError("LAN: band shapes differ")
    if arr.dtype == np.uint8:
        ptype = 0
    elif arr.dtype == np.int16:
        ptype = 2
    else:
        raise ValueError("LAN: write supports uint8/int16")
    gt = geotransform or (0.0, 1.0, 0.0, 0.0, 0.0, -1.0)
    hdr = bytearray(HDR)
    hdr[:6] = b"HEAD74"
    struct.pack_into("<hh", hdr, 6, ptype, len(bands))
    struct.pack_into("<ii", hdr, 16, w, h)
    struct.pack_into("<h", hdr, 88, coordsys)
    struct.pack_into("<4f", hdr, 112,
                     gt[0] + gt[1] / 2.0, gt[3] + gt[5] / 2.0,
                     gt[1], -gt[5])
    stacked = np.stack([np.asarray(b) for b in bands], axis=1)  # h,b,w
    return bytes(hdr) + stacked.astype("<i2" if ptype == 2
                                       else np.uint8).tobytes()


def read_lan(path: str) -> dict:
    with open(path, "rb") as f:
        return decode_lan(f.read())
