"""Golden Software Surfer grid drivers — reference roles
frmts/gsg/gsagdataset.cpp (GSAG, "DSAA" ASCII), gsbgdataset.cpp
(GSBG, "DSBB" Surfer-6 binary) and gs7bgdataset.cpp (GS7BG, "DSRB"
Surfer-7 binary), re-derived from the public Surfer grid layouts:

  DSAA  nx ny ⏎ xlo xhi ⏎ ylo yhi ⏎ zlo zhi ⏎ values…
  DSBB  int16 nx, ny; f64 xlo xhi ylo yhi zlo zhi; float32 values
  DSRB  tagged sections: b"DSRB"+size+version, b"GRID"+72
        (i32 nrow, i32 ncol, f64 minX minY dX dY zMin zMax rotation
        blank), b"DATA"+size (float64 values)

All three store rows BOTTOM-UP (first row = south); x/y lo..hi are
node (cell-center) coordinates, so the corner geotransform is
``(xlo - px/2, px, 0, yhi + py/2, 0, -py)`` with ``px = (xhi-xlo)/
(nx-1)`` (gsbgdataset.cpp GetGeoTransform).  Blank value
1.70141e+38 (Surfer's float max sentinel; the ASCII reader matches
it with a relative tolerance like the reference's AlmostEqual).
Pinned against the reference autotest (gdrivers/gsg.py: checksum
4672 on all three byte.tif-derived fixtures)."""

from __future__ import annotations

import struct

import numpy as np

NODATA = 1.701410009187828e+38


def _grid_result(vals_bottom_up: np.ndarray, nx: int, ny: int,
                 xlo: float, xhi: float, ylo: float, yhi: float) -> dict:
    arr = vals_bottom_up.reshape(ny, nx)[::-1]  # north-up
    px = (xhi - xlo) / (nx - 1) if nx > 1 else 1.0
    py = (yhi - ylo) / (ny - 1) if ny > 1 else 1.0
    return {
        "bands": [np.ascontiguousarray(arr)],
        "crs": None,
        "geotransform": (xlo - px / 2.0, px, 0.0,
                         yhi + py / 2.0, 0.0, -py),
        "nodata": NODATA,
    }


def decode_gsag(data: bytes) -> dict:
    """Surfer ASCII grid (DSAA)."""
    toks = data.decode("ascii", "ignore").split()
    if not toks or toks[0].upper() != "DSAA":
        raise ValueError("GSAG: missing DSAA magic")
    nx, ny = int(toks[1]), int(toks[2])
    xlo, xhi, ylo, yhi = (float(t) for t in toks[3:7])
    vals = np.array(toks[9:9 + nx * ny], np.float64)
    if vals.size != nx * ny:
        raise ValueError("GSAG: truncated values")
    # AlmostEqual blank matching (gsagdataset.cpp:119 — release-mode
    # parses of 1.70141E+38 differ in the last mantissa bit)
    vals[np.abs(vals - NODATA) <= np.abs(NODATA) * 1e-6] = NODATA
    return _grid_result(vals.astype(np.float32), nx, ny,
                        xlo, xhi, ylo, yhi)


def decode_gsbg(data: bytes) -> dict:
    """Surfer 6 binary grid (DSBB)."""
    if data[:4] != b"DSBB":
        raise ValueError("GSBG: missing DSBB magic")
    nx, ny = struct.unpack("<hh", data[4:8])
    xlo, xhi, ylo, yhi, _zlo, _zhi = struct.unpack("<6d", data[8:56])
    vals = np.frombuffer(data[56:56 + nx * ny * 4], "<f4")
    if vals.size != nx * ny:
        raise ValueError("GSBG: truncated values")
    return _grid_result(vals, nx, ny, xlo, xhi, ylo, yhi)


def decode_gs7bg(data: bytes) -> dict:
    """Surfer 7 binary grid (DSRB tagged sections)."""
    if data[:4] != b"DSRB":
        raise ValueError("GS7BG: missing DSRB magic")
    pos, grid, vals = 0, None, None
    while pos + 8 <= len(data):
        tag = data[pos:pos + 4]
        size = struct.unpack("<I", data[pos + 4:pos + 8])[0]
        body = data[pos + 8:pos + 8 + size]
        if tag == b"GRID":
            nrow, ncol = struct.unpack("<ii", body[:8])
            (minx, miny, dx, dy, _zmin, _zmax,
             _rot, blank) = struct.unpack("<8d", body[8:72])
            grid = (nrow, ncol, minx, miny, dx, dy, blank)
        elif tag == b"DATA":
            if grid is None:
                raise ValueError("GS7BG: DATA before GRID")
            nrow, ncol = grid[0], grid[1]
            vals = np.frombuffer(
                data[pos + 8:pos + 8 + nrow * ncol * 8], "<f8")
            break
        pos += 8 + size
    if grid is None or vals is None:
        raise ValueError("GS7BG: missing GRID/DATA section")
    nrow, ncol, minx, miny, dx, dy, blank = grid
    if vals.size != nrow * ncol:
        raise ValueError("GS7BG: truncated values")
    out = _grid_result(vals, ncol, nrow, minx, minx + dx * (ncol - 1),
                       miny, miny + dy * (nrow - 1))
    out["nodata"] = blank
    return out


def decode_surfer(data: bytes) -> dict:
    magic = data[:4]
    if magic == b"DSAA":
        return decode_gsag(data)
    if magic == b"DSBB":
        return decode_gsbg(data)
    if magic == b"DSRB":
        return decode_gs7bg(data)
    raise ValueError(f"Surfer: unknown magic {magic!r}")


def read_surfer(path: str) -> dict:
    from gdal_ray.vsi import vsi_read_bytes

    return decode_surfer(vsi_read_bytes(path))


def _node_bounds(arr: np.ndarray, gt) -> tuple:
    ny, nx = arr.shape
    xlo = gt[0] + gt[1] / 2.0
    xhi = xlo + gt[1] * (nx - 1)
    yhi = gt[3] + gt[5] / 2.0
    ylo = yhi + gt[5] * (ny - 1)
    return xlo, xhi, ylo, yhi


def encode_gsbg(arr: np.ndarray, geotransform) -> bytes:
    """Surfer 6 binary writer (float32, bottom-up)."""
    ny, nx = arr.shape
    xlo, xhi, ylo, yhi = _node_bounds(arr, geotransform)
    a = arr.astype("<f4")
    valid = a[a != np.float32(NODATA)]
    zlo = float(valid.min()) if valid.size else 0.0
    zhi = float(valid.max()) if valid.size else 0.0
    hdr = b"DSBB" + struct.pack("<hh", nx, ny) + struct.pack(
        "<6d", xlo, xhi, ylo, yhi, zlo, zhi)
    return hdr + np.ascontiguousarray(a[::-1]).tobytes()


def encode_gs7bg(arr: np.ndarray, geotransform,
                 blank: float = NODATA) -> bytes:
    """Surfer 7 binary writer (float64, bottom-up)."""
    ny, nx = arr.shape
    xlo, _xhi, ylo, _yhi = _node_bounds(arr, geotransform)
    a = arr.astype("<f8")
    valid = a[a != blank]
    zlo = float(valid.min()) if valid.size else 0.0
    zhi = float(valid.max()) if valid.size else 0.0
    grid = struct.pack("<ii", ny, nx) + struct.pack(
        "<8d", xlo, ylo, abs(geotransform[1]), abs(geotransform[5]),
        zlo, zhi, 0.0, blank)
    data = np.ascontiguousarray(a[::-1]).tobytes()
    return (b"DSRB" + struct.pack("<I", 4) + struct.pack("<i", 1)
            + b"GRID" + struct.pack("<I", len(grid)) + grid
            + b"DATA" + struct.pack("<I", len(data)) + data)
