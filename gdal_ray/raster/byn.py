"""NRCan BYN vertical-datum grid driver — reference role
frmts/raw/byndataset.{h,cpp}, re-derived from the Natural Resources
Canada byte-layout documented in that header's comment block (the
GPS·H publication format):

  80-byte little-endian header —
  0/4/8/12  int32  south / north / west / east   (arc-seconds)
  16/18     int16  dlat / dlon                   (arc-seconds)
  20/22     int16  global flag / data type
  24        f64    factor (stored int = value × factor)
  32        int16  sizeof: 2 (int16) or 4 (int32)
  34        int16  vertical datum     40..46 int16 descr/subtype/datum/ell
  48        int16  data byte order: 1 = LSB, 0 = MSB
  50        int16  scale flag: 1 = header values are ÷1000
  52/60     f64    Wo / GM      68..77 tide system / realization / epoch

  rows north→south, west→east; size follows the reference's exact
  seconds arithmetic  cols = (east − west + 1)/dlon + 1,
  rows = (north − south + 1)/dlat + 1  (byndataset.cpp:281) — note the
  "+1" INSIDE the division; nodata 32767 (int16) / 9999·factor
  (int32); geotransform in degrees with half-cell corner shift
  ((west − dlon/2)/3600, dlon/3600, 0, (north + dlat/2)/3600, 0,
  −dlat/3600).  Physical value = stored / factor (band scale
  1/factor).  Pinned against the reference autotest (gdrivers/byn.py:
  checksum 64764 on cgg2013ai08_reduced.byn AND on the
  invalid-header-bytes variant — spare bytes are ignored, as the
  reference's disabled 0xCC probe attests)."""

from __future__ import annotations

import struct

import numpy as np

HDR = 80
_SCALE = 1000.0
_MAX_LAT = 90 * 3600 * 1000
_MAX_LON = 360 * 3600 * 1000


def decode_byn(data: bytes) -> dict:
    if len(data) < HDR:
        raise ValueError("BYN: truncated header")
    south, north, west, east = struct.unpack("<4i", data[:16])
    dlat, dlon, nglobal, ntype = struct.unpack("<4h", data[16:24])
    factor = struct.unpack("<d", data[24:32])[0]
    sizeof, _vdatum = struct.unpack("<2h", data[32:36])
    _descr, _subtype, _datum, _ell, byteorder, scale = struct.unpack(
        "<6h", data[40:52])
    if sizeof not in (2, 4) or byteorder not in (0, 1) or \
            scale not in (0, 1) or not (0 <= nglobal <= 1) or \
            not (0 <= ntype <= 9):
        raise ValueError("BYN: implausible header")
    lim_lat = _MAX_LAT if scale == 0 else _MAX_LAT // 1000
    lim_lon = _MAX_LON if scale == 0 else _MAX_LON // 1000
    if (abs(south - dlat // 2) > lim_lat or
            abs(north + dlat // 2) > lim_lat or
            abs(west - dlon // 2) > lim_lon or
            abs(east + dlon // 2) > lim_lon):
        raise ValueError("BYN: bounds out of range")
    s, n, w, e, dla, dlo = (float(v) for v in
                            (south, north, west, east, dlat, dlon))
    if scale == 1:
        s, n, w, e, dla, dlo = (v * _SCALE for v in
                                (s, n, w, e, dla, dlo))
    if dla == 0.0 or dlo == 0.0:
        raise ValueError("BYN: zero spacing")
    cols = int((e - w + 1.0) / dlo + 1.0)
    rows = int((n - s + 1.0) / dla + 1.0)
    if cols <= 0 or rows <= 0:
        raise ValueError("BYN: bad size")
    bo = "<" if byteorder == 1 else ">"
    dt = np.dtype(bo + ("i2" if sizeof == 2 else "i4"))
    grid = np.frombuffer(
        data[HDR:HDR + rows * cols * sizeof], dt).reshape(rows, cols)
    nodata = 32767.0 if sizeof == 2 else 9999.0 * factor
    return {
        "bands": [grid],
        "crs": "EPSG:4326",
        "geotransform": ((w - dlo / 2.0) / 3600.0, dlo / 3600.0, 0.0,
                         (n + dla / 2.0) / 3600.0, 0.0, -dla / 3600.0),
        "nodata": nodata,
        "scale": (1.0 / factor) if factor else 0.0,
        "factor": factor,
    }


def read_byn(path: str) -> dict:
    with open(path, "rb") as f:
        return decode_byn(f.read())


def byn_values(path: str) -> np.ndarray:
    """Physical (metres) grid: stored / factor, nodata → NaN."""
    d = read_byn(path)
    g = d["bands"][0].astype(np.float64)
    g[d["bands"][0] == d["nodata"]] = np.nan
    return g / d["factor"] if d["factor"] else g


def encode_byn(grid: np.ndarray, south: int, west: int,
               dlat: int, dlon: int, factor: float = 1000.0) -> bytes:
    """Minimal LSB int32 writer (seconds-denominated bounds) for
    roundtrips; ``grid`` holds already-scaled stored integers."""
    rows, cols = grid.shape
    north = south + (rows - 1) * dlat
    east = west + (cols - 1) * dlon
    hdr = bytearray(HDR)
    struct.pack_into("<4i", hdr, 0, south, north, west, east)
    struct.pack_into("<4h", hdr, 16, dlat, dlon, 0, 1)
    struct.pack_into("<d", hdr, 24, factor)
    struct.pack_into("<2h", hdr, 32, 4, 0)
    struct.pack_into("<6h", hdr, 40, 0, 0, 0, 0, 1, 0)
    return bytes(hdr) + np.ascontiguousarray(
        grid.astype("<i4")).tobytes()
