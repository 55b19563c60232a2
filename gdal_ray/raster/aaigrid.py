"""AAIGrid — Arc/Info ASCII Grid (.asc/.grd) read/write.

Reference role: frmts/aaigrid (AAIGRID driver); format per the public
ESRI ASCII raster spec. Header keywords are case-insensitive;
``xllcorner``/``yllcorner`` give the lower-left CORNER while the
``*llcenter`` variants give the lower-left cell CENTER (offset by
cellsize/2); ``dx``/``dy`` replace ``cellsize`` for non-square cells;
a comma may serve as the DECIMAL separator (European locale files —
the reference's pixel_per_line_comma.asc fixture). Values are
whitespace-separated in any line layout.

Checksum parity with the reference driver is pinned in
tests/test_aaigrid.py on its own fixtures (byte.tif.grd → 4672,
pixel_per_line.asc → 1123).
"""

from __future__ import annotations

import re

import numpy as np

_HEADER_KEYS = frozenset(
    "ncols nrows xllcorner yllcorner xllcenter yllcenter cellsize "
    "dx dy nodata_value".split())


def _num(tok: str) -> float:
    return float(tok.replace(",", "."))


def decode_aaigrid(data: bytes | str) -> dict:
    """→ decode_geotiff-shaped dict {"bands", "crs", "geotransform",
    "nodata"}. Integer-valued grids load as int32 (the reference's
    type inference); anything else float64."""
    text = data.decode("ascii", "ignore") if isinstance(
        data, (bytes, bytearray)) else data
    tokens = text.split()
    hdr: dict[str, float] = {}
    i = 0
    while i + 1 < len(tokens) and tokens[i].lower() in _HEADER_KEYS:
        hdr[tokens[i].lower()] = _num(tokens[i + 1])
        i += 2
    ncols = int(hdr["ncols"])
    nrows = int(hdr["nrows"])
    dx = hdr.get("dx", hdr.get("cellsize", 1.0))
    dy = hdr.get("dy", hdr.get("cellsize", 1.0))
    if "xllcorner" in hdr:
        x0 = hdr["xllcorner"]
    else:
        x0 = hdr.get("xllcenter", 0.0) - dx / 2.0
    if "yllcorner" in hdr:
        yll = hdr["yllcorner"]
    else:
        yll = hdr.get("yllcenter", 0.0) - dy / 2.0
    gt = (x0, dx, 0.0, yll + nrows * dy, 0.0, -dy)
    nodata = hdr.get("nodata_value")
    vals = np.array([_num(t) for t in tokens[i : i + ncols * nrows]],
                    dtype=np.float64)
    if len(vals) != ncols * nrows:
        raise ValueError(
            f"AAIGrid: expected {ncols * nrows} values, got {len(vals)}")
    arr = vals.reshape(nrows, ncols)
    if np.all(np.isfinite(arr)) and np.all(arr == np.rint(arr)) and \
            np.abs(arr).max() < 2**31:
        arr = arr.astype(np.int32)
    return {"bands": [arr], "crs": "", "geotransform": gt,
            "nodata": nodata}


def encode_aaigrid(arr: np.ndarray, gt, nodata: float | None = None,
                   cellwise_precision: int = 6) -> bytes:
    """One band → ESRI ASCII grid bytes (corner convention; square
    cells required — the format has no rotation terms)."""
    if gt[2] or gt[4]:
        raise ValueError("AAIGrid cannot represent rotated grids")
    if abs(abs(gt[1]) - abs(gt[5])) > 1e-12 * abs(gt[1]):
        dx_dy = f"dx           {gt[1]!r}\ndy           {abs(gt[5])!r}\n"
    else:
        dx_dy = f"cellsize     {gt[1]!r}\n"
    h, w = arr.shape
    lines = [
        f"ncols        {w}",
        f"nrows        {h}",
        f"xllcorner    {gt[0]!r}",
        f"yllcorner    {gt[3] + h * gt[5]!r}",
        dx_dy.rstrip("\n"),
    ]
    if nodata is not None:
        lines.append(f"NODATA_value {nodata:g}")
    integral = np.issubdtype(arr.dtype, np.integer)
    for row in arr:
        if integral:
            lines.append(" ".join(str(int(v)) for v in row))
        else:
            lines.append(" ".join(
                f"{v:.{cellwise_precision}g}" for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def read_aaigrid(path: str) -> dict:
    from gdal_ray.vsi import vsi_read_bytes

    return decode_aaigrid(vsi_read_bytes(path))


def write_aaigrid(path: str, arr: np.ndarray, gt,
                  nodata: float | None = None) -> None:
    from gdal_ray.vsi import vsi_write_bytes

    vsi_write_bytes(path, encode_aaigrid(arr, gt, nodata))


# ---------------------------------------------------------------------------
# XYZ — ASCII "x y z" grid (frmts/xyz role)


def decode_grassascii(data: bytes | str) -> dict:
    """GRASS ASCII grid (frmts/aaigrid GRASSASCIIDataset role):
    north/south/east/west/rows/cols header (+ optional null:/type:/
    multiplier:), whitespace values north-to-south."""
    text = data.decode("ascii", "ignore") if isinstance(
        data, (bytes, bytearray)) else data
    hdr: dict[str, str] = {}
    lines = text.splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        m = re.match(r"\s*(north|south|east|west|rows|cols|null|type|"
                     r"multiplier)\s*:\s*(\S+)", line)
        if m:
            hdr[m.group(1)] = m.group(2)
            body_start = i + 1
        elif hdr:
            break
    for k in ("north", "south", "east", "west", "rows", "cols"):
        if k not in hdr:
            raise ValueError(f"GRASS ASCII: missing {k}")
    nrows, ncols = int(hdr["rows"]), int(hdr["cols"])
    north, south = float(hdr["north"]), float(hdr["south"])
    east, west = float(hdr["east"]), float(hdr["west"])
    toks = " ".join(lines[body_start:]).split()
    nodata_tok = hdr.get("null")
    mult = float(hdr.get("multiplier", "1"))
    vals = np.array(toks[:nrows * ncols], np.float64)
    if vals.size != nrows * ncols:
        raise ValueError("GRASS ASCII: truncated values")
    if mult != 1.0:
        vals = vals * mult
    integral = np.all(vals == np.floor(vals)) and \
        hdr.get("type", "") not in ("float", "double")
    arr = vals.reshape(nrows, ncols)
    arr = arr.astype(np.int32) if integral else arr
    nodata = float(nodata_tok) if nodata_tok else -9999.0
    return {
        "bands": [arr],
        "crs": None,
        "geotransform": (west, (east - west) / ncols, 0.0,
                         north, 0.0, -(north - south) / nrows),
        "nodata": nodata,
    }


def read_grassascii(path: str) -> dict:
    from gdal_ray.vsi import vsi_read_bytes

    return decode_grassascii(vsi_read_bytes(path))


def _isg_parse_dms(s: str) -> float:
    """DMS coordinate (DD°MM\'SS") → degrees (ISG 2.0 coord units)."""
    m = re.match(r"\s*(-?)\s*(\d+)°(\d+)\'([\d.]+)\"", s)
    if not m:
        return float(s)
    sign = -1.0 if m.group(1) == "-" else 1.0
    return sign * (float(m.group(2)) + float(m.group(3)) / 60
                   + float(m.group(4)) / 3600)


def _isg_try_round(delta: float, rounded: float, vmin: float,
                   vmax: float, nvals: int, rel_tol: float):
    """The reference ISG TryRoundTo (aaigriddataset.cpp:878): snap
    min/max onto half-cell or whole-cell multiples of the rounded
    delta when consistent with the grid size."""
    import math as _m

    def snap(v, bias):
        val = (_m.floor(abs(v / rounded)) + bias) * rounded
        return -val if v < 0 else val

    for bias_fn in ("half", "whole"):
        if rounded == delta:
            break
        if bias_fn == "half":
            ok = (abs(abs(vmin / rounded)
                      - (_m.floor(abs(vmin / rounded)) + 0.5)) < rel_tol
                  and abs(abs(vmax / rounded)
                          - (_m.floor(abs(vmax / rounded)) + 0.5))
                  < rel_tol)
            if ok:
                mn, mx = snap(vmin, 0.5), snap(vmax, 0.5)
            else:
                continue
        else:
            ok = (abs(abs(vmin / rounded)
                      - _m.floor(abs(vmin / rounded) + 0.5)) < rel_tol
                  and abs(abs(vmax / rounded)
                          - _m.floor(abs(vmax / rounded) + 0.5))
                  < rel_tol)
            if not ok:
                continue
            mn = (-1 if vmin < 0 else 1) * _m.floor(
                abs(vmin / rounded) + 0.5) * rounded
            mx = (-1 if vmax < 0 else 1) * _m.floor(
                abs(vmax / rounded) + 0.5) * rounded
        if abs(mn + rounded * nvals - mx) < rel_tol * rounded:
            return rounded, mn, mx
    if abs(vmin + delta * nvals - vmax) < rel_tol * delta:
        return delta, vmin, vmax
    return None


def decode_isg(data: bytes | str) -> dict:
    """ISG geoid-model grid (frmts/aaigrid ISGDataset role, ISG
    format specs v1.0/1.01/2.0 — isgeoid.polimi.it): free comment
    preamble, begin_of_head/end_of_head key blocks (':' strings,
    '=' numerics, DMS coord units), N-to-S W-to-E float rows.
    Replicates the reference's rounding auto-correction of
    approximate headers (0.0167-degree famiy) and the 0.5%%
    last-resort approximate-georeferencing warning path."""
    text = data.decode("utf-8", "replace") if isinstance(
        data, (bytes, bytearray)) else data
    i0 = text.find("begin_of_head")
    i1 = text.find("end_of_head")
    if i0 < 0 or i1 < 0:
        raise ValueError("ISG: missing begin_of_head/end_of_head")
    hdr: dict[str, str] = {}
    for line in text[i0:i1].splitlines()[1:]:
        for sep in ("=", ":"):
            if sep in line:
                k, _, v = line.partition(sep)
                hdr[k.strip()] = v.strip()
                break
    use_dms = hdr.get("coord units") == "dms"

    def val(key):
        s = hdr.get(key)
        if s is None:
            raise ValueError(f"ISG: missing {key}")
        return _isg_parse_dms(s) if use_dms else float(s)

    lat_min, lat_max = val("lat min"), val("lat max")
    lon_min, lon_max = val("lon min"), val("lon max")
    dlat, dlon = val("delta lat"), val("delta lon")
    version = float(hdr.get("ISG format", "1.0"))
    if version >= 2.0:
        # v2 min/max are node (cell-center) coordinates
        lat_min -= dlat / 2
        lat_max += dlat / 2
        lon_min -= dlon / 2
        lon_max += dlon / 2
    nrows = int(hdr["nrows"])
    ncols = int(hdr["ncols"])
    nodata = float(hdr.get("nodata", "-9999"))

    def rounded_of(key, delta):
        s = hdr.get(key, "")
        if s == "0.0167" or (delta < 1 and abs(
                1.0 / delta - round(1.0 / delta)) < 0.06):
            return 1.0 / round(1.0 / delta)
        return delta

    r_lon = _isg_try_round(dlon, rounded_of("delta lon", dlon),
                           lon_min, lon_max, ncols, 1e-2)
    r_lat = _isg_try_round(dlat, rounded_of("delta lat", dlat),
                           lat_min, lat_max, nrows, 1e-2)
    approx = False
    if (r_lon is None or r_lat is None) and \
            hdr.get("delta lon") == "0.0167" and \
            hdr.get("delta lat") == "0.0167":
        r_lon = _isg_try_round(dlon, 0.016667, lon_min, lon_max,
                               ncols, 1e-1)
        r_lat = _isg_try_round(dlat, 0.016667, lat_min, lat_max,
                               nrows, 1e-1)
    if r_lon is not None and r_lat is not None:
        dlon, lon_min, lon_max = r_lon
        dlat, lat_min, lat_max = r_lat
    else:
        if (abs((lon_max - lon_min) / ncols - dlon) < 0.005 * dlon
                and abs((lat_max - lat_min) / nrows - dlat)
                < 0.005 * dlat):
            approx = True  # reference warns and derives deltas
            dlon = (lon_max - lon_min) / ncols
            dlat = (lat_max - lat_min) / nrows
        else:
            raise ValueError(
                "ISG: inconsistent extent/resolution/raster dimension")
    toks = text[i1:].split("\n", 1)
    toks = toks[1].split() if len(toks) > 1 else []
    vals = np.full(nrows * ncols, nodata, np.float64)
    have = min(len(toks), nrows * ncols)
    if have:
        vals[:have] = np.array(toks[:have], np.float64)
    arr = vals.reshape(nrows, ncols).astype(np.float32)
    return {
        "bands": [arr],
        "crs": "EPSG:4326",
        "geotransform": (lon_min, dlon, 0.0, lat_max, 0.0, -dlat),
        "nodata": float(np.float32(nodata)),
        "approx_georef": approx,
        "units": hdr.get("units") or hdr.get("data units"),
    }


def read_isg(path: str) -> dict:
    from gdal_ray.vsi import vsi_read_bytes

    return decode_isg(vsi_read_bytes(path))


def decode_xyz(data: bytes | str) -> dict:
    """Whitespace/comma/semicolon-separated x y z lines → raster.
    The grid must be regular (the reference driver's contract);
    row/column order is inferred, not assumed. Values at cell
    CENTERS — corner geotransform is shifted by half a cell."""
    text = data.decode("ascii", "ignore") if isinstance(
        data, (bytes, bytearray)) else data
    xs, ys, zs = [], [], []
    for line in text.splitlines():
        line = line.replace(",", " ").replace(";", " ").strip()
        if not line:
            continue
        parts = line.split()
        try:
            x, y, z = float(parts[0]), float(parts[1]), float(parts[2])
        except (ValueError, IndexError):
            continue  # header line
        xs.append(x)
        ys.append(y)
        zs.append(z)
    x = np.asarray(xs)
    y = np.asarray(ys)
    z = np.asarray(zs)
    ux = np.unique(x)
    uy = np.unique(y)
    w, h = len(ux), len(uy)
    if w * h != len(z):
        raise ValueError(
            f"XYZ: irregular grid ({w}x{h} != {len(z)} points)")
    dx = float(np.diff(ux).mean()) if w > 1 else 1.0
    dy = float(np.diff(uy).mean()) if h > 1 else 1.0
    if w > 1 and not np.allclose(np.diff(ux), dx, rtol=1e-6):
        raise ValueError("XYZ: non-uniform x spacing")
    col = np.searchsorted(ux, x)
    row = np.searchsorted(uy, y)
    arr = np.full((h, w), np.nan)
    arr[h - 1 - row, col] = z  # row 0 = north
    if np.all(np.isfinite(arr)) and np.all(arr == np.rint(arr)) and \
            np.abs(arr).max() < 2**31:
        arr = arr.astype(np.int32)
    gt = (float(ux[0]) - dx / 2.0, dx, 0.0,
          float(uy[-1]) + dy / 2.0, 0.0, -dy)
    return {"bands": [arr], "crs": "", "geotransform": gt,
            "nodata": None}


def encode_xyz(arr: np.ndarray, gt) -> bytes:
    """Grid → x y z lines at cell centers, row-major from the north
    (the reference writer's order)."""
    h, w = arr.shape
    lines = []
    for r in range(h):
        yc = gt[3] + (r + 0.5) * gt[5]
        for c in range(w):
            xc = gt[0] + (c + 0.5) * gt[1]
            v = arr[r, c]
            vs = str(int(v)) if float(v).is_integer() else repr(float(v))
            lines.append(f"{xc!r} {yc!r} {vs}")
    return ("\n".join(lines) + "\n").encode("ascii")
