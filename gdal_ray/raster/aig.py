"""ESRI Arc/Info Binary Grid (AIG) coverage driver (read).

Reference role: frmts/aigrid (aigopen.c / gridlib.c / aigdataset.cpp,
GDAL 3.13), whose source documents the reverse-engineered format.
A coverage is a directory: ``hdr.adf`` (cell type at +16, compressed
flag at +20, block grid at +288, cell size at +256, all big-endian),
``dblbnd.adf`` (LLX/LLY/URX/URY doubles), ``sta.adf`` (min/max/mean
[/stddev]), ``w001001x.adf`` (block index: 100-byte header then
offset/size pairs in 2-byte units) and ``w001001.adf`` (blocks).

Block payload: [size:u16be]=(len/2), then for compressed integer
grids [magic:u8][minsize:u8][min:be bytes, sign-extended], then data
by magic: 0x00 constant-min, 0x01/0x04/0x08/0x10/0x20 raw
1/4/8/16/32-bit + min, 0xE0/0xF0/0xFC/0xF8/0xDF run-length,
0xD7/0xCF literal runs (gridlib.c:330-560); float grids are raw
big-endian float32.  Integer adds use unsigned-rollover semantics.
Zero-length index entries are whole-nodata blocks
(ESRI_GRID_NO_DATA = -2147483647).  Statistics drive the byte
narrowing: int grids with 0 <= min, max <= 255 present as uint8 with
nodata 255 (aigdataset.cpp:150).  CCITT RLE blocks (magic 0xFF)
decode through raster/ccitt.py's modified-Huffman codec — no local
fixture exercises them, but the codec itself is libtiff-oracle-tested
(round 5; gridlib.c AIGProcessFFBlock role).  A ``.clr`` colormap
beside or inside the coverage is
exposed as a 256-entry color table; ``prj.adf`` (ESRI PRJ text) maps
to WKT for the common UTM/geographic datum table.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

NO_DATA = -2147483647


def _sign_extend(val: int, nbytes: int, negative: bool) -> int:
    if nbytes and negative:
        if nbytes == 1:
            return val - 256
        if nbytes == 2:
            return val - 65536
        if nbytes == 3:
            return val - 256 ** 3
    return val


def _decode_block(buf: bytes, bxs: int, bys: int, cell_float: bool,
                  compressed: bool) -> np.ndarray:
    n = bxs * bys
    if len(buf) < 2:
        raise ValueError("short block")
    size = (buf[0] * 256 + buf[1]) * 2
    data = buf[2:2 + size]
    if cell_float:
        a = np.frombuffer(data, dtype=">f4", count=n)
        return a.reshape(bys, bxs).astype(np.float32)
    if not compressed:
        a = np.frombuffer(data, dtype=">i4", count=n)
        return a.reshape(bys, bxs).astype(np.int32)
    magic = data[0]
    minsize = data[1]
    pos = 2
    if minsize > 4:
        raise ValueError("corrupt minsize")
    if minsize == 4:
        (nmin,) = struct.unpack_from(">i", data, pos)
        pos += 4
    else:
        nmin = 0
        for i in range(minsize):
            nmin = nmin * 256 + data[pos + i]
        if minsize != 0 and data[2] > 127:
            nmin = _sign_extend(nmin, minsize, True)
        pos += minsize
    body = data[pos:]
    out = np.empty(n, dtype=np.int64)
    if magic == 0x00:
        out[:] = nmin
    elif magic == 0x08:
        vals = np.frombuffer(body, dtype=np.uint8, count=n)
        out[:] = vals.astype(np.int64) + nmin
    elif magic == 0x04:
        nb = (n + 1) // 2
        raw = np.frombuffer(body, dtype=np.uint8, count=nb)
        hi = (raw & 0xF0) >> 4
        lo = raw & 0x0F
        pairs = np.empty(nb * 2, dtype=np.int64)
        pairs[0::2] = hi
        pairs[1::2] = lo
        out[:] = pairs[:n] + nmin
    elif magic == 0x01:
        bits = np.unpackbits(
            np.frombuffer(body, dtype=np.uint8, count=(n + 7) // 8))
        out[:] = bits[:n].astype(np.int64) + nmin
    elif magic == 0x10:
        vals = np.frombuffer(body, dtype=">i2", count=n)
        out[:] = vals.astype(np.int64) + nmin
    elif magic == 0x20:
        vals = np.frombuffer(body, dtype=">i4", count=n)
        out[:] = vals.astype(np.int64) + nmin
    elif magic == 0xFF:
        # CCITT RLE bitstream → 1-bit plane (gridlib.c
        # AIGProcessFFBlock consumes libtiff's CCITTRLE = 1-D modified
        # Huffman with byte-aligned rows; raster/ccitt.py decode_mh is
        # that codec, libtiff-oracle-tested).  Bit set ⇒ nmin+1.
        from gdal_ray.raster.ccitt import decode_mh

        bits = decode_mh(bytes(body), bxs, bys)
        out[:] = bits.ravel().astype(np.int64)[:n] + nmin
    else:
        out = _decode_rle(body, magic, nmin, n)
    # rollover semantics
    out = (out & 0xFFFFFFFF).astype(np.uint32).view(np.int32)
    return out.reshape(bys, bxs)


def _decode_rle(body: bytes, magic: int, nmin: int, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.int64)
    npix = 0
    pos = 0
    ln = len(body)
    while npix < n and pos < ln:
        marker = body[pos]
        pos += 1
        if magic == 0xE0:
            (v,) = struct.unpack_from(">i", body, pos)
            pos += 4
            out[npix:npix + marker] = v + nmin
            npix += marker
        elif magic == 0xF0:
            v = body[pos] * 256 + body[pos + 1]
            pos += 2
            out[npix:npix + marker] = v + nmin
            npix += marker
        elif magic in (0xFC, 0xF8):
            v = body[pos]
            pos += 1
            out[npix:npix + marker] = v + nmin
            npix += marker
        elif magic == 0xDF and marker < 128:
            out[npix:npix + marker] = nmin
            npix += marker
        elif magic == 0xD7 and marker < 128:
            cnt = min(marker, ln - pos)
            vals = np.frombuffer(body, np.uint8, count=cnt, offset=pos)
            out[npix:npix + cnt] = vals.astype(np.int64) + nmin
            pos += cnt
            npix += cnt
        elif magic == 0xCF and marker < 128:
            vals = np.frombuffer(body, ">i2", count=marker, offset=pos)
            out[npix:npix + marker] = vals.astype(np.int64) + nmin
            pos += marker * 2
            npix += marker
        elif marker > 127:
            # run of nodata (counts above 127 mean 256-marker dummies)
            cnt = 256 - marker
            out[npix:npix + cnt] = NO_DATA
            npix += cnt
        else:
            raise ValueError(f"unsupported AIG tile magic 0x{magic:02X}")
    out[npix:] = NO_DATA
    return out


def _find(cover: str, name: str) -> str | None:
    for cand in (name.lower(), name.upper()):
        p = os.path.join(cover, cand)
        if os.path.exists(p):
            return p
    return None


_ESRI_DATUMS = {
    "GDA94": ("GDA94", "Geocentric_Datum_of_Australia_1994",
              "GRS 1980", 6378137.0, 298.257222101),
    "NAD83": ("NAD83", "North_American_Datum_1983",
              "GRS 1980", 6378137.0, 298.257222101),
    "NAD27": ("NAD27", "North_American_Datum_1927",
              "Clarke 1866", 6378206.4, 294.978698213898),
    "WGS84": ("WGS 84", "WGS_1984", "WGS 84", 6378137.0, 298.257223563),
}


def _prj_to_wkt(text: str) -> str:
    kv = {}
    for line in text.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            kv[parts[0].upper()] = parts[1].strip()
    datum = kv.get("DATUM", "WGS84").upper()
    g, d, sname, a, invf = _ESRI_DATUMS.get(datum, _ESRI_DATUMS["WGS84"])
    geogcs = (f'GEOGCS["{g}",DATUM["{d}",SPHEROID["{sname}",{a:.10g},'
              f'{invf:.15g}]],PRIMEM["Greenwich",0],'
              f'UNIT["degree",0.0174532925199433]]')
    proj = kv.get("PROJECTION", "").upper()
    if proj == "UTM" and "ZONE" in kv:
        zone = int(kv["ZONE"])
        yshift = float(kv.get("YSHIFT", "0") or 0)
        lon0 = zone * 6 - 183
        return (f'PROJCS["unnamed",{geogcs},'
                f'PROJECTION["Transverse_Mercator"],'
                f'PARAMETER["latitude_of_origin",0],'
                f'PARAMETER["central_meridian",{lon0}],'
                f'PARAMETER["scale_factor",0.9996],'
                f'PARAMETER["false_easting",500000],'
                f'PARAMETER["false_northing",{yshift:.10g}],'
                f'UNIT["metre",1]]')
    return geogcs


def read_aig(path: str) -> dict:
    """Coverage directory (or any file in it) -> decode_geotiff-shaped
    dict (+ color_table, min/max)."""
    cover = path
    if os.path.isfile(cover):
        cover = os.path.dirname(cover)
    hdr_p = _find(cover, "hdr.adf")
    if hdr_p is None:
        raise ValueError(f"not an AIG coverage: {path}")
    hdr = open(hdr_p, "rb").read()
    if hdr[:8] != b"GRID1.2\x00":
        raise ValueError("bad AIG hdr.adf magic")
    cell_type, comp = struct.unpack_from(">ii", hdr, 16)
    cx, cy = struct.unpack_from(">dd", hdr, 256)
    bpr, bpc, bxs = struct.unpack_from(">iii", hdr, 288)
    (bys,) = struct.unpack_from(">i", hdr, 304)
    compressed = not comp
    llx, lly, urx, ury = struct.unpack(
        ">4d", open(_find(cover, "dblbnd.adf"), "rb").read()[:32])
    sta = open(_find(cover, "sta.adf"), "rb").read()
    if len(sta) >= 32:
        stats = struct.unpack(">4d", sta[:32])
    else:
        # 24-byte variant is min/max/mean in LSB order (gdal #6633)
        stats = struct.unpack("<3d", sta[:24])
    dmin, dmax = stats[0], stats[1]

    pixels = int((urx - llx + 0.5 * cx) / cx)
    lines = int((ury - lly + 0.5 * cy) / cy)

    idx = open(_find(cover, "w001001x.adf"), "rb").read()
    entries = np.frombuffer(idx[100:], dtype=">u4")
    offsets = entries[0::2].astype(np.int64) * 2
    sizes = entries[1::2].astype(np.int64) * 2
    tile = open(_find(cover, "w001001.adf"), "rb").read()

    cell_float = cell_type == 2
    full = np.full((lines, pixels),
                   np.nan if cell_float else NO_DATA,
                   dtype=np.float32 if cell_float else np.int32)
    nbx = (pixels - 1) // bxs + 1
    nby = (lines - 1) // bys + 1
    for by in range(nby):
        for bx in range(nbx):
            i = by * bpr + bx
            if i >= len(offsets):
                continue
            if sizes[i] == 0:
                continue  # stays nodata
            block = _decode_block(tile[offsets[i]:], bxs, bys,
                                  cell_float, compressed)
            h = min(bys, lines - by * bys)
            w = min(bxs, pixels - bx * bxs)
            full[by * bys:by * bys + h, bx * bxs:bx * bxs + w] = \
                block[:h, :w]

    nodata: float = NO_DATA
    arr: np.ndarray = full
    if not cell_float and dmin >= 0 and dmax <= 255:
        # byte narrowing (aigdataset.cpp:150)
        byte = np.where(full == NO_DATA, 255, full).astype(np.uint8)
        arr = byte
        nodata = 255.0

    crs = ""
    prj_p = _find(cover, "prj.adf")
    if prj_p:
        crs = _prj_to_wkt(open(prj_p, "r", errors="replace").read())

    out = {"bands": [arr], "crs": crs, "nodata": nodata,
           "geotransform": (llx, cx, 0.0, ury, 0.0, -cy),
           "min": dmin, "max": dmax}

    # colormap: value R G B lines in a .clr beside or inside the cover
    clr = None
    for cand in os.listdir(cover):
        if cand.lower().endswith(".clr"):
            clr = os.path.join(cover, cand)
    if clr is None:
        base = os.path.join(os.path.dirname(cover),
                            os.path.basename(cover) + ".CLR")
        for cand in (base, base[:-4] + ".clr"):
            if os.path.exists(cand):
                clr = cand
    if clr:
        table = [(0, 0, 0, 255)] * 256
        for line in open(clr, errors="replace").read().splitlines():
            f = line.split()
            if len(f) >= 4 and not line.startswith("#"):
                try:
                    v = int(float(f[0]))
                    if 0 <= v <= 255:
                        table[v] = (int(float(f[1])), int(float(f[2])),
                                    int(float(f[3])), 255)
                except ValueError:
                    continue
        out["color_table"] = table
    return out
