"""MapInfo TAB binary reader (.tab/.dat/.id/.map) — the MITAB role.

From-scratch re-derivation of the MapInfo native binary table
(reference roles: ogr/ogrsf_frmts/mitab/mitab_mapheaderblock.cpp
header + Int2Coordsys quadrant rules, mitab_mapobjectblock.cpp
per-type object layouts, mitab_mapcoordblock.cpp chained coord blocks
+ section headers, mitab_datfile.cpp binary attribute records,
mitab_feature.cpp geometry assembly incl. TABGenerateArc stroking).
No code is copied; the wire-format facts are re-stated and every
decoded geometry is pinned against the reference's own
all_geoms.mif.golden.csv in tests/test_tab.py.

Files: `.tab` ASCII schema, `.dat` fixed-width binary records
(int32/int16/double stored little-endian binary, decimals as text,
date as int16 year + bytes), `.id` int32 per-FID offset into `.map`,
`.map` 512-byte (configurable) blocks — header block (magic 42424242
at 0x100, origin quadrant, x/y scale + displacement), object blocks
(type byte + int32 id + payload; compressed variants store int16
deltas against the object's compression origin), chained coordinate
blocks (8-byte header: type, int16 dataBytes, int32 next).

Geometry semantics matched to the reference: PLINE→LINESTRING,
REGION sections grouped by numHoles (1 outer → POLYGON else
MULTIPOLYGON), RECT 5-point ring, ROUNDRECT 4×45-segment corner arcs,
ELLIPSE 181-point ring, ARC (180/numPts°) stroke with quadrant angle
flips, TEXT → rotated lower-left anchor POINT, COLLECTION →
GEOMETRYCOLLECTION with per-component mini-headers.  OGR_STYLE
strings (pen/brush/font toolblocks) are a named boundary — the MIF
twin of every fixture carries the same styles textually.

Scale note: one read task per .tab dataset (single-file random-access
container), the per-file shard contract of the Shapefile/FileGDB
sources.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as gwkb

MAGIC = 42424242

# object geometry type codes (mitab_priv.h TABGeomType)
NONE = 0x00
SYMBOL_C, SYMBOL = 0x01, 0x02
LINE_C, LINE = 0x04, 0x05
PLINE_C, PLINE = 0x07, 0x08
ARC_C, ARC = 0x0A, 0x0B
REGION_C, REGION = 0x0D, 0x0E
TEXT_C, TEXT = 0x10, 0x11
RECT_C, RECT = 0x13, 0x14
ROUNDRECT_C, ROUNDRECT = 0x16, 0x17
ELLIPSE_C, ELLIPSE = 0x19, 0x1A
MULTIPLINE_C, MULTIPLINE = 0x25, 0x26
FONTSYMBOL_C, FONTSYMBOL = 0x28, 0x29
CUSTOMSYMBOL_C, CUSTOMSYMBOL = 0x2B, 0x2C
V450_REGION_C, V450_REGION = 0x2E, 0x2F
V450_MULTIPLINE_C, V450_MULTIPLINE = 0x31, 0x32
MULTIPOINT_C, MULTIPOINT = 0x34, 0x35
COLLECTION_C, COLLECTION = 0x37, 0x38
V800_REGION_C, V800_REGION = 0x3D, 0x3E
V800_MULTIPLINE_C, V800_MULTIPLINE = 0x40, 0x41
V800_MULTIPOINT_C, V800_MULTIPOINT = 0x43, 0x44
V800_COLLECTION_C, V800_COLLECTION = 0x46, 0x47

_REGIONS = {REGION_C, REGION, V450_REGION_C, V450_REGION,
            V800_REGION_C, V800_REGION}
_PLINES = {PLINE_C, PLINE}
_MULTIPLINES = {MULTIPLINE_C, MULTIPLINE, V450_MULTIPLINE_C,
                V450_MULTIPLINE, V800_MULTIPLINE_C, V800_MULTIPLINE}
_MPOINTS = {MULTIPOINT_C, MULTIPOINT, V800_MULTIPOINT_C, V800_MULTIPOINT}
_COLLECTIONS = {COLLECTION_C, COLLECTION, V800_COLLECTION_C,
                V800_COLLECTION}
_POINTS = {SYMBOL_C, SYMBOL, FONTSYMBOL_C, FONTSYMBOL,
           CUSTOMSYMBOL_C, CUSTOMSYMBOL}


def _geom_version(t: int) -> int:
    if t < V450_REGION_C:
        return 300
    if t < MULTIPOINT_C:
        return 450
    if t < 0x3A:
        return 650
    return 800


class MapHeader:
    """Header block of the .map file (block 0)."""

    def __init__(self, buf: bytes):
        if struct.unpack_from("<i", buf, 0x100)[0] != MAGIC:
            raise ValueError("not a MapInfo .map file (bad magic cookie)")
        self.version, self.block_size = struct.unpack_from("<hh", buf, 0x104)
        (self.xmin, self.ymin, self.xmax, self.ymax) = \
            struct.unpack_from("<4i", buf, 0x110)
        self.quadrant = buf[0x161]
        (self.xscale, self.yscale, self.xdispl, self.ydispl) = \
            struct.unpack_from("<4d", buf, 0x170)
        if self.version <= 100:
            prec = buf[0x160]
            self.xscale = self.yscale = 10.0 ** prec
            self.xdispl = self.ydispl = 0.0
        self.xprec = 10.0 ** round(math.log10(self.xscale))
        self.yprec = 10.0 ** round(math.log10(self.yscale))

    def int2coord(self, nx, ny):
        """Int coordinates → coordsys units (quadrant origin rules)."""
        if self.quadrant in (0, 2, 3):
            dx = -1.0 * (np.asarray(nx, np.float64) + self.xdispl) \
                / self.xscale
        else:
            dx = (np.asarray(nx, np.float64) - self.xdispl) / self.xscale
        if self.quadrant in (0, 3, 4):
            dy = -1.0 * (np.asarray(ny, np.float64) + self.ydispl) \
                / self.yscale
        else:
            dy = (np.asarray(ny, np.float64) - self.ydispl) / self.yscale
        if self.xprec > 0 and self.yprec > 0:
            # C round(): half away from zero (np.round is half-to-even)
            dx = dx * self.xprec
            dy = dy * self.yprec
            dx = np.sign(dx) * np.floor(np.abs(dx) + 0.5) / self.xprec
            dy = np.sign(dy) * np.floor(np.abs(dy) + 0.5) / self.yprec
        return dx, dy

    def dist2coord(self, n, scale):
        return np.asarray(n, np.float64) / scale


class _CoordReader:
    """Sequential reader over chained coordinate blocks.

    Starts at an arbitrary file address inside a coord block; when the
    current block's data (8-byte header + numDataBytes) is exhausted,
    follows the int32 next-block pointer (mitab_mapcoordblock.cpp
    ReadBytes role)."""

    def __init__(self, data: bytes, block_size: int, addr: int,
                 compr_org=(0, 0)):
        self.data = data
        self.bs = block_size
        self.ox, self.oy = compr_org
        self._load(addr)

    def _load(self, addr: int):
        start = addr - addr % self.bs
        if self.data[start] != 3:  # TABMAP_COORD_BLOCK
            raise ValueError(f"not a coord block at {start}")
        ndata = struct.unpack_from("<h", self.data, start + 2)[0]
        self.next = struct.unpack_from("<i", self.data, start + 4)[0]
        self.end = start + 8 + ndata
        self.pos = max(addr, start + 8)

    def read(self, n: int) -> bytes:
        out = b""
        while n > 0:
            avail = self.end - self.pos
            if avail <= 0:
                self._load(self.next + 8)
                continue
            take = min(n, avail)
            out += self.data[self.pos:self.pos + take]
            self.pos += take
            n -= take
        return out

    def addr(self) -> int:
        return self.pos

    def i16(self) -> int:
        return struct.unpack("<h", self.read(2))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self.read(4))[0]

    def coord(self, compressed: bool):
        if compressed:
            return self.i16() + self.ox, self.i16() + self.oy
        return self.i32(), self.i32()

    def coords(self, compressed: bool, n: int) -> np.ndarray:
        raw = self.read((4 if compressed else 8) * n)
        if compressed:
            a = np.frombuffer(raw, "<i2").astype(np.int64).reshape(-1, 2)
            a[:, 0] += self.ox
            a[:, 1] += self.oy
        else:
            a = np.frombuffer(raw, "<i4").astype(np.int64).reshape(-1, 2)
        return a

    def sec_hdrs(self, compressed: bool, version: int, n: int):
        """Coordinate section headers for REGION/MULTIPLINE."""
        hdrs = []
        for _ in range(n):
            nv = self.i32() if version >= 450 else self.i16()
            nh = self.i32() if version >= 800 else self.i16()
            self.coord(compressed)  # MBR min
            self.coord(compressed)  # MBR max
            self.i32()              # data offset
            hdrs.append((nv, nh))
        return hdrs


def _close_ring(c: np.ndarray) -> np.ndarray:
    if len(c) and not np.array_equal(c[0], c[-1]):
        return np.vstack([c, c[:1]])
    return c


def _gen_arc(cx, cy, rx, ry, a0, a1, npts) -> np.ndarray:
    """TABGenerateArc role: npts steps + duplicated closing point."""
    if a1 < a0:
        a1 += 2 * math.pi
    step = (a1 - a0) / (npts - 1.0)
    ang = a0 + np.arange(npts) * step
    ang = np.append(ang, a0 + (npts - 1) * step)  # reference dup point
    return np.column_stack([cx + rx * np.cos(ang), cy + ry * np.sin(ang)])


class MapFile:
    """Random-access object reader over a .map file."""

    def __init__(self, path: str):
        with open(path, "rb") as f:
            self.data = f.read()
        self.hdr = MapHeader(self.data[:1024])
        self.bs = self.hdr.block_size

    # -- helpers -----------------------------------------------------------

    def _obj_block_center(self, addr: int):
        start = addr - addr % self.bs
        cx, cy = struct.unpack_from("<ii", self.data, start + 4)
        return cx, cy

    def _rd(self, fmt, pos):
        vals = struct.unpack_from(fmt, self.data, pos)
        return vals, pos + struct.calcsize(fmt)

    def _icoord(self, pos, compressed, center):
        if compressed:
            (x, y), pos = self._rd("<hh", pos)
            return x + center[0], y + center[1], pos
        (x, y), pos = self._rd("<ii", pos)
        return x, y, pos

    # -- object decode -------------------------------------------------------

    def read_object(self, addr: int, charset: str = "latin1"):
        """Object at .id address → (wkb bytes | None, text | None)."""
        d = self.data
        t = d[addr]
        pos = addr + 1 + 4  # skip type byte + int32 id
        if t == NONE:
            return None, None
        compressed = (t % 3) == 1
        center = self._obj_block_center(addr) if compressed else (0, 0)
        i2c = self.hdr.int2coord

        if t in _POINTS:
            if t in (FONTSYMBOL_C, FONTSYMBOL):
                pos += 12  # symbol/size/style/rgb/3 unknown/angle
            elif t in (CUSTOMSYMBOL_C, CUSTOMSYMBOL):
                pos += 2
            x, y, pos = self._icoord(pos, compressed, center)
            x, y = i2c(x, y)
            return gwkb.point_wkb(float(x), float(y)), None

        if t in (LINE_C, LINE):
            x1, y1, pos = self._icoord(pos, compressed, center)
            x2, y2, pos = self._icoord(pos, compressed, center)
            xs, ys = i2c(np.array([x1, x2]), np.array([y1, y2]))
            return gwkb.linestring_wkb(np.column_stack([xs, ys])), None

        if t in (RECT_C, RECT, ROUNDRECT_C, ROUNDRECT, ELLIPSE_C, ELLIPSE):
            rw = rh = 0
            if t in (ROUNDRECT_C, ROUNDRECT):
                if compressed:
                    (rw, rh), pos = self._rd("<hh", pos)
                else:
                    (rw, rh), pos = self._rd("<ii", pos)
            x1, y1, pos = self._icoord(pos, compressed, center)
            x2, y2, pos = self._icoord(pos, compressed, center)
            xs, ys = i2c(np.array([x1, x2]), np.array([y1, y2]))
            xmin, xmax = min(xs), max(xs)
            ymin, ymax = min(ys), max(ys)
            if t in (ELLIPSE_C, ELLIPSE):
                ring = _close_ring(_gen_arc(
                    (xmin + xmax) / 2, (ymin + ymax) / 2,
                    abs(xmax - xmin) / 2, abs(ymax - ymin) / 2,
                    0.0, 2 * math.pi, 180))
                return gwkb.polygon_wkb(ring), None
            if t in (ROUNDRECT_C, ROUNDRECT) and rw and rh:
                rx = min(self.hdr.dist2coord(rw, self.hdr.xscale) / 2.0,
                         (xmax - xmin) / 2)
                ry = min(self.hdr.dist2coord(rh, self.hdr.yscale) / 2.0,
                         (ymax - ymin) / 2)
                ring = np.vstack([
                    _gen_arc(xmin + rx, ymin + ry, rx, ry,
                             math.pi, 1.5 * math.pi, 45),
                    _gen_arc(xmax - rx, ymin + ry, rx, ry,
                             1.5 * math.pi, 2 * math.pi, 45),
                    _gen_arc(xmax - rx, ymax - ry, rx, ry,
                             0.0, 0.5 * math.pi, 45),
                    _gen_arc(xmin + rx, ymax - ry, rx, ry,
                             0.5 * math.pi, math.pi, 45)])
                return gwkb.polygon_wkb(_close_ring(ring)), None
            ring = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax],
                             [xmin, ymax], [xmin, ymin]])
            return gwkb.polygon_wkb(ring), None

        if t in (ARC_C, ARC):
            (sa, ea), pos = self._rd("<hh", pos)
            ex1, ey1, pos = self._icoord(pos, compressed, center)
            ex2, ey2, pos = self._icoord(pos, compressed, center)
            if self.hdr.quadrant in (0, 1, 3):
                a0, a1 = sa / 10.0, ea / 10.0
            else:
                a0, a1 = ea / 10.0, sa / 10.0
            if self.hdr.quadrant in (0, 2, 3):  # X flipped
                a0 = 180.0 - a0 if a0 <= 180.0 else 540.0 - a0
                a1 = 180.0 - a1 if a1 <= 180.0 else 540.0 - a1
            if self.hdr.quadrant in (0, 3, 4):  # Y flipped
                a0, a1 = 360.0 - a0, 360.0 - a1
            xs, ys = i2c(np.array([ex1, ex2]), np.array([ey1, ey2]))
            cx, cy = (xs[0] + xs[1]) / 2, (ys[0] + ys[1]) / 2
            rx = abs(xs[1] - xs[0]) / 2
            ry = abs(ys[1] - ys[0]) / 2
            if a1 < a0:
                npts = max(2, int(abs((a1 + 360.0) - a0) / 2.0 + 1))
            else:
                npts = max(2, int(abs(a1 - a0) / 2.0 + 1))
            line = _gen_arc(cx, cy, rx, ry, a0 * math.pi / 180,
                            a1 * math.pi / 180, npts)
            return gwkb.linestring_wkb(line), None

        if t in (TEXT_C, TEXT):
            (blk_ptr,), pos = self._rd("<i", pos)
            (slen, align, angle, style), pos = self._rd("<hhhh", pos)
            pos += 6  # fg/bg colors
            lx, ly, pos = self._icoord(pos, compressed, center)
            if compressed:
                (height,), pos = self._rd("<h", pos)
            else:
                (height,), pos = self._rd("<i", pos)
            pos += 1  # font id
            x1, y1, pos = self._icoord(pos, compressed, center)
            x2, y2, pos = self._icoord(pos, compressed, center)
            xs, ys = i2c(np.array([x1, x2]), np.array([y1, y2]))
            xmin, xmax = min(xs), max(xs)
            ymin, ymax = min(ys), max(ys)
            dh = float(self.hdr.dist2coord(height, self.hdr.yscale))
            a = angle / 10.0
            s, c = math.sin(a * math.pi / 180), math.cos(a * math.pi / 180)
            if s > 0 and c > 0:
                x, y = xmin + dh * s, ymin
            elif s > 0 and c < 0:
                x, y = xmax, ymin - dh * c
            elif s < 0 and c < 0:
                x, y = xmax + dh * s, ymax
            else:
                x, y = xmin, ymax - dh * c
            text = None
            if slen > 0:
                rd = _CoordReader(self.data, self.bs, blk_ptr)
                text = rd.read(slen).decode(charset, errors="replace")
            return gwkb.point_wkb(x, y), text

        if t in _PLINES:
            (blk_ptr, dsz), pos = self._rd("<ii", pos)
            dsz &= 0x7FFFFFFF
            corg, pos = self._pline_tail(pos, t, compressed, skip_sections=True)
            n = dsz // (4 if compressed else 8)
            rd = _CoordReader(self.data, self.bs, blk_ptr, corg)
            a = rd.coords(compressed, n)
            xs, ys = i2c(a[:, 0], a[:, 1])
            return gwkb.linestring_wkb(np.column_stack([xs, ys])), None

        if t in _MULTIPLINES or t in _REGIONS:
            (blk_ptr, dsz), pos = self._rd("<ii", pos)
            version = _geom_version(t)
            if t in (V800_REGION, V800_REGION_C, V800_MULTIPLINE,
                     V800_MULTIPLINE_C):
                (nsec,), pos = self._rd("<i", pos)
                pos += 33
            else:
                (nsec,), pos = self._rd("<h", pos)
            corg, pos = self._pline_tail(pos, t, compressed)
            rd = _CoordReader(self.data, self.bs, blk_ptr, corg)
            return self._sections_geom(rd, t in _REGIONS, compressed,
                                       version, nsec), None

        if t in _MPOINTS:
            (blk_ptr, npts), pos = self._rd("<ii", pos)
            pos += 15
            if t in (V800_MULTIPOINT, V800_MULTIPOINT_C):
                pos += 33
            pos += 2  # symbol id + unknown
            corg = (0, 0)
            if compressed:
                pos += 4  # label (int16 pair)
                (ox, oy), pos = self._rd("<ii", pos)
                corg = (ox, oy)
            rd = _CoordReader(self.data, self.bs, blk_ptr, corg)
            a = rd.coords(compressed, npts)
            xs, ys = i2c(a[:, 0], a[:, 1])
            return _multipoint(xs, ys), None

        if t in _COLLECTIONS:
            return self._collection(pos, t, compressed), None

        raise ValueError(f"unhandled TAB object type 0x{t:02x}")

    # -- shared tails ---------------------------------------------------------

    def _pline_tail(self, pos, t, compressed, skip_sections=False):
        """Label + compr-origin + MBR tail of PLINE/REGION/MULTIPLINE
        object defs; returns the compression origin."""
        corg = (0, 0)
        if compressed:
            pos += 4  # label int16 pair
            (ox, oy), pos = self._rd("<ii", pos)
            corg = (ox, oy)
            pos += 8  # MBR int16 ×4
        else:
            pos += 8 + 16  # label + MBR int32
        return corg, pos

    def _sections_geom(self, rd: _CoordReader, is_region: bool,
                       compressed: bool, version: int, nsec: int):
        hdrs = rd.sec_hdrs(compressed, version, nsec)
        total = sum(nv for nv, _ in hdrs)
        a = rd.coords(compressed, total)
        xs, ys = self.hdr.int2coord(a[:, 0], a[:, 1])
        pts = np.column_stack([xs, ys])
        rings = []
        at = 0
        for nv, _ in hdrs:
            rings.append(pts[at:at + nv])
            at += nv
        if not is_region:
            if len(rings) == 1:
                return gwkb.linestring_wkb(rings[0])
            return gwkb.collection_wkb(
                gwkb.MULTILINESTRING, [gwkb.linestring_wkb(r) for r in rings])
        # region: group rings by each outer's numHoles count
        polys = []
        i = 0
        while i < len(rings):
            nh = hdrs[i][1]
            group = [_close_ring(r) for r in rings[i:i + 1 + nh]]
            polys.append(gwkb.polygon_wkb(group[0], group[1:]))
            i += 1 + nh
        if len(polys) == 1:
            return polys[0]
        return gwkb.collection_wkb(gwkb.MULTIPOLYGON, polys)

    def _collection(self, pos, t, compressed):
        version = _geom_version(t)
        (blk_ptr, nmp, reg_sz, pl_sz), pos = self._rd("<iiii", pos)
        if version < 800:
            (nreg, npl), pos = self._rd("<hh", pos)
        else:
            (nreg, npl), pos = self._rd("<ii", pos)
        reg_sz -= 2 * nreg
        pl_sz -= 2 * npl
        if version >= 800:
            pos += 1  # constant byte 4
        pos += 15  # 3×int32 + 3 bytes, all zeros
        pos += 5   # mpoint symbol, unknown, region pen, pline pen, brush
        corg = (0, 0)
        if compressed:
            (ox, oy), pos = self._rd("<ii", pos)
            corg = (ox, oy)
        rd = _CoordReader(self.data, self.bs, blk_ptr, corg)
        parts = []

        def mini_hdr():
            if version >= 800:
                rd.i32()
            rd.coord(compressed)  # label
            rd.coord(compressed)  # MBR min
            rd.coord(compressed)  # MBR max

        if nreg > 0:
            mini_hdr()
            parts.append(self._sections_geom(rd, True, compressed,
                                             version, nreg))
        if npl > 0:
            mini_hdr()
            parts.append(self._sections_geom(rd, False, compressed,
                                             version, npl))
        if nmp > 0:
            mini_hdr()
            a = rd.coords(compressed, nmp)
            xs, ys = self.hdr.int2coord(a[:, 0], a[:, 1])
            parts.append(_multipoint(xs, ys))
        return gwkb.collection_wkb(gwkb.GEOMETRYCOLLECTION, parts)


def _multipoint(xs, ys) -> bytes:
    return gwkb.collection_wkb(gwkb.MULTIPOINT, [
        gwkb.point_wkb(float(x), float(y)) for x, y in zip(xs, ys)])


# ------------------------------------------------------------------ .dat

_CHARSETS = {"Neutral": "latin1", "WindowsLatin1": "cp1252",
             "WindowsLatin2": "cp1250", "WindowsCyrillic": "cp1251",
             "UTF-8": "utf-8"}


def parse_tab(tab_path: str):
    """.tab descriptor → (charset, [(name, type, width, prec)])."""
    fields = []
    charset = "Neutral"
    with open(tab_path, "rb") as f:
        raw = f.read()
    for ln in raw.decode("latin1").splitlines():
        if ln.strip().lower().startswith("!charset"):
            charset = ln.split()[1].strip('"')
            break
    codec = _CHARSETS.get(charset, "latin1")
    lines = [ln.strip() for ln in raw.decode(codec,
                                             errors="replace").splitlines()]
    in_fields = False
    n_left = 0
    for ln in lines:
        low = ln.lower()
        if low.startswith("!charset"):
            charset = ln.split()[1].strip('"')
        elif low.startswith("fields"):
            in_fields = True
            n_left = int(ln.split()[1])
        elif in_fields and n_left > 0 and ln:
            toks = ln.rstrip(";").split()
            name = toks[0]
            typ = toks[1].lower() if len(toks) > 1 else "char"
            width, prec = 0, 0
            rest = " ".join(toks[1:])
            if "(" in rest:
                args = rest[rest.index("(") + 1:rest.index(")")]
                nums = [int(x) for x in args.replace(",", " ").split()]
                width = nums[0]
                prec = nums[1] if len(nums) > 1 else 0
            typ = typ.split("(")[0]
            fields.append((name, typ, width, prec))
            n_left -= 1
    return _CHARSETS.get(charset, "latin1"), fields


def read_dat(dat_path: str, fields, charset: str = "latin1"):
    """.dat binary records → dict of python lists per field."""
    with open(dat_path, "rb") as f:
        d = f.read()
    nrec = struct.unpack_from("<i", d, 4)[0]
    first_ptr, rec_size = struct.unpack_from("<hh", d, 8)
    cols: dict[str, list] = {name: [] for name, *_ in fields}
    _DEFAULT = {"char": "", "integer": 0, "smallint": 0, "largeint": 0,
                "float": 0.0, "decimal": 0.0, "date": None,
                "logical": False, "time": None, "datetime": None}
    for i in range(nrec):
        pos = first_ptr + i * rec_size
        # leading record flag byte: ' ' active, '*' deleted — deleted
        # records yield default values (reference GetRecordBlock rule)
        deleted = d[pos:pos + 1] != b" "
        pos += 1
        if deleted:
            for name, typ, *_ in fields:
                cols[name].append(_DEFAULT[typ])
            continue
        for name, typ, width, prec in fields:
            if typ == "char":
                raw = d[pos:pos + width]
                cols[name].append(
                    raw.decode(charset, errors="replace").rstrip("\x00")
                    .rstrip())
                pos += width
            elif typ == "integer":
                cols[name].append(struct.unpack_from("<i", d, pos)[0])
                pos += 4
            elif typ == "smallint":
                cols[name].append(struct.unpack_from("<h", d, pos)[0])
                pos += 2
            elif typ == "largeint":
                cols[name].append(struct.unpack_from("<q", d, pos)[0])
                pos += 8
            elif typ == "float":
                cols[name].append(struct.unpack_from("<d", d, pos)[0])
                pos += 8
            elif typ == "decimal":
                raw = d[pos:pos + width].decode("ascii", errors="replace")
                try:
                    cols[name].append(float(raw))
                except ValueError:
                    cols[name].append(None)
                pos += width
            elif typ == "date":
                y, = struct.unpack_from("<h", d, pos)
                mo, dy = d[pos + 2], d[pos + 3]
                cols[name].append(None if (y == 0 and mo == 0 and dy == 0)
                                  else f"{y:04d}-{mo:02d}-{dy:02d}")
                pos += 4
            elif typ == "logical":
                cols[name].append(d[pos:pos + 1] in (b"T", b"t", b"\x01"))
                pos += 1
            elif typ == "time":
                ms, = struct.unpack_from("<i", d, pos)
                cols[name].append(None if ms < 0 else ms)
                pos += 4
            elif typ == "datetime":
                y, = struct.unpack_from("<h", d, pos)
                mo, dy = d[pos + 2], d[pos + 3]
                ms, = struct.unpack_from("<i", d, pos + 4)
                cols[name].append(
                    None if (y == 0 and mo == 0 and dy == 0) else
                    f"{y:04d}-{mo:02d}-{dy:02d}T"
                    f"{ms // 3600000:02d}:{ms // 60000 % 60:02d}:"
                    f"{ms // 1000 % 60:02d}.{ms % 1000:03d}")
                pos += 8
            else:
                raise ValueError(f"unhandled .dat field type {typ!r}")
    return nrec, cols


_ARROW = {"char": pa.string(), "integer": pa.int32(),
          "smallint": pa.int16(), "largeint": pa.int64(),
          "float": pa.float64(), "decimal": pa.float64(),
          "date": pa.string(), "logical": pa.bool_(),
          "time": pa.int32(), "datetime": pa.string()}


def read_tab_local(tab_path: str, geom_col: str = "geometry") -> pa.Table:
    charset, fields = parse_tab(tab_path)
    base = os.path.splitext(tab_path)[0]

    def sibling(ext):
        for cand in (base + ext, base + ext.upper()):
            if os.path.exists(cand):
                return cand
        return None

    nrec, cols = read_dat(sibling(".dat"), fields, charset)
    names = ["fid"]
    arrays = [pa.array(range(1, nrec + 1), pa.int64())]
    id_path, map_path = sibling(".id"), sibling(".map")
    texts = None
    if id_path and map_path and os.path.getsize(map_path) > 512:
        offs = np.fromfile(id_path, "<i4", count=nrec)
        mf = MapFile(map_path)
        geoms, texts = [], []
        for off in offs:
            if off <= 0:
                geoms.append(None)
                texts.append(None)
                continue
            g, txt = mf.read_object(int(off), charset)
            geoms.append(g)
            texts.append(txt)
        names.append(geom_col)
        arrays.append(pa.array(geoms, pa.binary()))
        if any(texts):
            names.append("mi_text")
            arrays.append(pa.array(texts, pa.string()))
    for name, typ, *_ in fields:
        names.append(name)
        arrays.append(pa.array(cols[name], _ARROW[typ]))
    return pa.table(dict(zip(names, arrays)))


def read_tab(paths, geom_col: str = "geometry"):
    """Ray Dataset over one or more .tab datasets (one task each)."""
    import ray.data as rd
    if isinstance(paths, str):
        paths = [paths]
    ds = rd.from_items([{"path": p} for p in paths])

    def load(batch: pa.Table) -> pa.Table:
        tabs = [read_tab_local(p.as_py(), geom_col) for p in batch["path"]]
        return pa.concat_tables(tabs)

    return ds.map_batches(load, batch_format="pyarrow")
