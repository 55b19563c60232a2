"""DTED — Digital Terrain Elevation Data (.dt0/.dt1/.dt2) read/write.

Reference role: frmts/dted; format per the public MIL-PRF-89020B
spec: UHL (80 B) + DSI (648 B) + ACC (2700 B) text headers, then one
data record per LONGITUDE COLUMN — 0xAA sentinel, block count,
lon/lat indices, big-endian SIGN-MAGNITUDE int16 elevations ordered
south→north, 4-byte byte-sum checksum. Nodata is -32767; GDAL
reports the center-registered grid with a half-pixel-shifted corner
geotransform — reproduced here and pinned on the reference fixture
(n43.dt0 checksum 49187, exact geotransform).
"""

from __future__ import annotations

import numpy as np

_UHL, _DSI, _ACC = 80, 648, 2700
NODATA = -32767


def _angle(field: bytes) -> float:
    """DDDMMSSH (or DDMMSSH) → signed degrees."""
    s = field.decode("ascii")
    hemi = s[-1]
    digits = s[:-1]
    ss = float(digits[-2:])
    mm = float(digits[-4:-2])
    dd = float(digits[:-4])
    v = dd + mm / 60.0 + ss / 3600.0
    return -v if hemi in ("W", "S") else v


def decode_dted(data: bytes) -> dict:
    if data[:4] != b"UHL1":
        # optional NGA transmittal records (HDR1/VOL1 labels) precede
        # UHL on tape-derived files — skip to the UHL like the
        # reference driver does
        at = data.find(b"UHL1", 0, 4096)
        if at < 0:
            raise ValueError("not a DTED file (UHL1 missing)")
        data = data[at:]
    lon0 = _angle(data[4:12])
    lat0 = _angle(data[12:20])
    lon_step = int(data[20:24]) / 36000.0   # tenths of arcsec → deg
    lat_step = int(data[24:28]) / 36000.0
    ncols = int(data[47:51])                # longitude lines
    nrows = int(data[51:55])                # latitude points
    arr = np.full((nrows, ncols), NODATA, dtype=np.int16)
    pos = _UHL + _DSI + _ACC
    rec_len = 8 + 2 * nrows + 4
    for c in range(ncols):
        rec = data[pos : pos + rec_len]
        if len(rec) < rec_len or rec[0] != 0xAA:
            break  # partial/truncated column set (reference tolerates)
        lon_idx = int.from_bytes(rec[4:6], "big")
        raw = np.frombuffer(rec[8 : 8 + 2 * nrows], dtype=">u2")
        mag = (raw & 0x7FFF).astype(np.int16)
        val = np.where(raw & 0x8000, -mag, mag)
        # records run south→north; row 0 is the NORTH edge
        arr[:, lon_idx] = val[::-1]
        pos += rec_len
    gt = (lon0 - lon_step / 2.0, lon_step, 0.0,
          lat0 + (nrows - 1) * lat_step + lat_step / 2.0, 0.0,
          -lat_step)
    return {"bands": [arr], "crs": "EPSG:4326", "geotransform": gt,
            "nodata": float(NODATA)}


def read_dted(path: str) -> dict:
    from gdal_ray.vsi import vsi_read_bytes

    return decode_dted(vsi_read_bytes(path))


def _fmt_angle(v: float, lon: bool) -> bytes:
    hemi = ("W" if v < 0 else "E") if lon else ("S" if v < 0 else "N")
    v = abs(v)
    dd = int(round(v * 3600)) // 3600
    mm = (int(round(v * 3600)) // 60) % 60
    ss = int(round(v * 3600)) % 60
    # UHL uses DDDMMSSH for BOTH axes (the fixture's lat is 0430000N)
    return f"{dd:03d}{mm:02d}{ss:02d}{hemi}".encode()


def encode_dted(arr: np.ndarray, lon0: float, lat0: float,
                step_arcsec: float = 30.0) -> bytes:
    """Center-registered grid → DTED bytes (one record per column,
    sign-magnitude values, byte-sum checksums)."""
    nrows, ncols = arr.shape
    tenths = int(round(step_arcsec * 10))
    uhl = bytearray(b" " * _UHL)
    uhl[0:4] = b"UHL1"
    uhl[4:12] = _fmt_angle(lon0, True)
    uhl[12:20] = _fmt_angle(lat0, False)
    uhl[20:24] = f"{tenths:04d}".encode()
    uhl[24:28] = f"{tenths:04d}".encode()
    uhl[28:32] = b"0010"
    uhl[32:35] = b"U  "
    uhl[47:51] = f"{ncols:04d}".encode()
    uhl[51:55] = f"{nrows:04d}".encode()
    uhl[55] = ord("0")
    dsi = bytearray(b" " * _DSI)
    dsi[0:4] = b"DSIU"
    acc = bytearray(b" " * _ACC)
    acc[0:3] = b"ACC"
    out = bytes(uhl) + bytes(dsi) + bytes(acc)
    recs = []
    for c in range(ncols):
        col = arr[::-1, c]  # south→north
        raw = np.where(col < 0, (np.abs(col) | 0x8000),
                       col).astype(">u2")
        body = (b"\xaa" + c.to_bytes(3, "big")
                + c.to_bytes(2, "big") + (0).to_bytes(2, "big")
                + raw.tobytes())
        csum = sum(body) & 0xFFFFFFFF
        recs.append(body + csum.to_bytes(4, "big"))
    return out + b"".join(recs)
