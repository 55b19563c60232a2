"""SIGDEM Scaled Integer Gridded DEM reader/writer — reference role
frmts/sigdem (sigdemdataset.cpp SIGDEMHeader::Read/Write,
SIGDEMRasterBand::IReadBlock), re-derived from the published SIGDEM
layout:

  132-byte big-endian header: "SIGDEM" + i16 version + i32 EPSG
  coordinate-system id + f64 offsetX/scaleX/offsetY/scaleY/offsetZ/
  scaleZ + f64 minX/minY/minZ/maxX/maxY/maxZ + i32 cols/rows +
  f64 xDim/yDim.  Data: rows of big-endian int32, stored BOTTOM-UP
  (file row 0 = southernmost); value = offsetZ + raw / scaleZ,
  0x80000000 is the no-data sentinel surfaced as -9999.  Writer uses
  the header defaults (scale factors 1000, offsets = min corner).

Pinned against autotest gdrivers/sigdem.py: byte.tif createcopy
roundtrip keeps checksum 4672 and the geotransform."""

from __future__ import annotations

import struct

import numpy as np

_NO_DATA = -0x80000000


def decode_sigdem(data: bytes) -> dict:
    if data[:6] != b"SIGDEM":
        raise ValueError("SIGDEM: bad magic")
    version, srid = struct.unpack_from(">hi", data, 6)
    (ox, sx, oy, sy, oz, sz, minx, miny, minz, maxx, maxy, maxz) = \
        struct.unpack_from(">12d", data, 12)
    cols, rows = struct.unpack_from(">2i", data, 108)
    xdim, ydim = struct.unpack_from(">2d", data, 116)
    raw = np.frombuffer(data, ">i4", cols * rows, 132).reshape(rows, cols)
    raw = raw[::-1]  # bottom-up storage
    vals = np.where(raw == _NO_DATA, -9999.0,
                    oz + raw / (sz if sz else 1.0))
    gt = (minx, xdim, 0.0, maxy, 0.0, -ydim)
    return {"bands": [vals.astype(np.float64)],
            "crs": f"EPSG:{srid}" if srid > 0 else None,
            "geotransform": gt, "nodata": -9999.0,
            "metadata": {"STATISTICS_MINIMUM": repr(minz),
                         "STATISTICS_MAXIMUM": repr(maxz)}}


def read_sigdem(path: str) -> dict:
    from gdal_ray.vsi import vsi_read_bytes

    return decode_sigdem(vsi_read_bytes(path))


def encode_sigdem(band: np.ndarray, geotransform, crs: str | None = None,
                  nodata: float | None = None,
                  minz: float = -10000.0, maxz: float = 10000.0) -> bytes:
    rows, cols = band.shape
    gt = geotransform
    minx, maxy = gt[0], gt[3]
    xdim, ydim = gt[1], -gt[5]
    maxx = minx + cols * xdim
    miny = maxy - rows * ydim
    srid = 0
    if crs and crs.upper().startswith("EPSG:"):
        srid = int(crs.split(":")[1])
    hdr = b"SIGDEM" + struct.pack(
        ">hi12d2i2d", 1, srid,
        minx, 1000.0, miny, 1000.0, 0.0, 1000.0,
        minx, miny, minz, maxx, maxy, maxz, cols, rows, xdim, ydim)
    vals = band.astype(np.float64)
    raw = np.rint(vals * 1000.0).astype(np.int64)
    if nodata is not None:
        raw = np.where(vals == nodata, _NO_DATA, raw)
    raw = np.clip(raw, -0x80000000, 0x7FFFFFFF).astype(">i4")
    return hdr + raw[::-1].tobytes()
