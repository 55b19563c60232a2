"""MicroStation DGN v7 (ISFF) reader — the OGR DGN driver role.

From-scratch re-derivation of the Intergraph Standard File Format
(reference roles: ogr/ogrsf_frmts/dgn/dgnread.cpp DGNLoadRawElement /
DGNParseCore / DGNParseTCB and per-type parses, dgnstroke.cpp
DGNStrokeArc, ogrdgnlayer.cpp ElementToFeature field/geometry
mapping).  No code is copied; element layouts are re-stated and the
output is pinned against the reference autotest's literal smalltest
expectations in tests/test_dgn.py.

Format: a stream of elements, each framed by 4 header bytes —
level = byte0 & 0x3f (complex bit 0x80), type = byte1 & 0x7f (deleted
bit 0x80), int16 word count; 0xFFFF terminates.  32-bit integers use
VAX word order (b2 + b3<<8 + b1<<24 + b0<<16); floating point is VAX
D-float (shared decoder: raster/vicar.py vax_to_ieee64).  The TCB
(type 9) supplies dimension, global origin and the UOR→master-unit
scale 1/(uor_per_subunit × subunits_per_master); every coordinate is
``v*scale - origin``.

Feature mapping (ogrdgnlayer.cpp parity): LINE/LINE_STRING/CURVE →
LINESTRING, SHAPE → POLYGON, ELLIPSE/ARC → stroked LINESTRING
(sweep/5° capped at 90 points), TEXT → anchor POINT + Text field,
COMPLEX_CHAIN_HEADER → merged MULTILINESTRING/LINESTRING,
COMPLEX_SHAPE_HEADER → polygon assembled from child edges.  Fields:
Type, Level, GraphicGroup, ColorIndex, Weight, Style, Text.
OGR_STYLE strings, cells, tags, B-splines and DGNv8 are named
boundaries.  DGNStrokeCurve's spline densification is approximated by
the raw vertex chain (no curve fixtures exist in the reference
autotest data).

Scale: one read task per .dgn file (sequential element stream), the
per-file shard contract of the other vector sources.
"""
from __future__ import annotations

import math
import struct

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as gwkb
from gdal_ray.raster.vicar import vax_to_ieee64

T_CELL_LIBRARY, T_CELL_HEADER, T_LINE, T_LINE_STRING = 1, 2, 3, 4
T_GROUP_DATA, T_SHAPE, T_TEXT_NODE, T_DIGITIZER = 5, 6, 7, 8
T_TCB, T_LEVEL_SYM, T_CURVE, T_CCHAIN = 9, 10, 11, 12
T_CSHAPE, T_ELLIPSE, T_ARC, T_TEXT = 14, 15, 16, 17

_NO_DISPHDR = {0, T_TCB, T_CELL_LIBRARY, T_LEVEL_SYM, 32, 44, 48, 49, 50,
               51, 57, 60, 61, 62, 63}


def _i32(b: bytes, off: int) -> int:
    """VAX-word-order signed int32 (dgnlibp.h DGN_INT32)."""
    v = b[off + 2] + (b[off + 3] << 8) + (b[off + 1] << 24) \
        + (b[off] << 16)
    return v - (1 << 32) if v >= (1 << 31) else v


def _dbl(b: bytes, off: int) -> float:
    return float(vax_to_ieee64(np.frombuffer(b[off:off + 8], np.uint8))[0])


class _Element:
    __slots__ = ("level", "type", "complex", "deleted", "data",
                 "graphic_group", "style", "weight", "color")

    def __init__(self, data: bytes):
        self.data = data
        self.level = data[0] & 0x3F
        self.complex = bool(data[0] & 0x80)
        self.deleted = bool(data[1] & 0x80)
        self.type = data[1] & 0x7F
        if len(data) >= 36 and self.type not in _NO_DISPHDR:
            self.graphic_group = data[28] + data[29] * 256
            self.style = data[34] & 0x7
            self.weight = (data[34] & 0xF8) >> 3
            self.color = data[35]
        else:
            self.graphic_group = 0
            self.style = 0
            self.weight = 0
            self.color = 0


class DgnFile:
    def __init__(self, path: str):
        with open(path, "rb") as f:
            self.raw = f.read()
        if len(self.raw) < 4 or (self.raw[1] & 0x7F) not in (T_TCB, 8, 5):
            # ISFF files open with the TCB (or rarely other control els)
            if (self.raw[0], self.raw[1]) == (0x08, 0x05):
                raise ValueError("DGN v8 file (not ISFF) — unsupported")
        self.dimension = 2
        self.scale = 1.0
        self.origin = (0.0, 0.0, 0.0)
        self.elements: list[_Element] = []
        self._load()

    def _load(self):
        pos = 0
        raw = self.raw
        while pos + 4 <= len(raw):
            if raw[pos] == 0xFF and raw[pos + 1] == 0xFF:
                break
            nwords = raw[pos + 2] + raw[pos + 3] * 256
            data = raw[pos:pos + 4 + 2 * nwords]
            if len(data) < 4 + 2 * nwords:
                break
            el = _Element(data)
            if el.type == T_TCB and self.scale == 1.0:
                self._parse_tcb(data)
            self.elements.append(el)
            pos += 4 + 2 * nwords

    def _parse_tcb(self, d: bytes):
        if len(d) < 1264:
            return
        self.dimension = 3 if d[1214] & 0x40 else 2
        sub_per_master = _i32(d, 1112)
        uor_per_sub = _i32(d, 1116)
        ox, oy, oz = (_dbl(d, 1240), _dbl(d, 1248), _dbl(d, 1256))
        if uor_per_sub and sub_per_master:
            denom = uor_per_sub * sub_per_master
            self.scale = 1.0 / denom
            self.origin = (ox / denom, oy / denom, oz / denom)

    # -- coordinate helpers --------------------------------------------------

    def _xy(self, d: bytes, off: int):
        x = _i32(d, off) * self.scale - self.origin[0]
        y = _i32(d, off + 4) * self.scale - self.origin[1]
        return x, y

    # -- per-element geometry -------------------------------------------------

    def element_feature(self, idx: int):
        """Element → (wkb | None, text | None, consumed_children)."""
        el = self.elements[idx]
        d = el.data
        t = el.type
        dim = self.dimension
        psize = dim * 4

        if t == T_LINE:
            pts = [self._xy(d, 36), self._xy(d, 36 + psize)]
            return gwkb.linestring_wkb(np.array(pts)), None, 0

        if t in (T_LINE_STRING, T_SHAPE, T_CURVE):
            count = d[36] + d[37] * 256
            avail = (len(d) - 38) // psize
            count = min(count, avail)
            pts = np.array([self._xy(d, 38 + i * psize)
                            for i in range(count)])
            if t == T_SHAPE:
                return gwkb.polygon_wkb(pts), None, 0
            return gwkb.linestring_wkb(pts), None, 0

        if t in (T_ELLIPSE, T_ARC):
            if t == T_ELLIPSE:
                prim = _dbl(d, 36) * self.scale
                sec = _dbl(d, 44) * self.scale
                startang, sweepang = 0.0, 360.0
                if dim == 2:
                    rot = _i32(d, 52) / 360000.0
                    ox = _dbl(d, 56)
                    oy = _dbl(d, 64)
                else:
                    rot = 0.0
                    ox = _dbl(d, 68)
                    oy = _dbl(d, 76)
            else:
                startang = _i32(d, 36) / 360000.0
                db = bytearray(d)
                neg = bool(db[41] & 0x80)
                db[41] &= 0x7F
                sweep = _i32(bytes(db), 40)
                if neg:
                    sweep = -sweep
                sweepang = 360.0 if sweep == 0 else sweep / 360000.0
                prim = _dbl(d, 44) * self.scale
                sec = _dbl(d, 52) * self.scale
                if dim == 2:
                    rot = _i32(d, 60) / 360000.0
                    ox = _dbl(d, 64)
                    oy = _dbl(d, 72)
                else:
                    rot = 0.0
                    ox = _dbl(d, 76)
                    oy = _dbl(d, 84)
            ox = ox * self.scale - self.origin[0]
            oy = oy * self.scale - self.origin[1]
            npts = min(90, int(max(1.0, abs(sweepang) / 5.0) + 1.0))
            step = sweepang / (npts - 1)
            rr = rot * math.pi / 180.0
            cr, sr = math.cos(rr), math.sin(rr)
            ang = np.radians(startang + step * np.arange(npts))
            ex = prim * np.cos(ang)
            ey = sec * np.sin(ang)
            pts = np.column_stack([ox + ex * cr - ey * sr,
                                   oy + ex * sr + ey * cr])
            return gwkb.linestring_wkb(pts), None, 0

        if t == T_TEXT:
            if dim == 2:
                nchars = d[58]
                x = _i32(d, 50) * self.scale - self.origin[0]
                y = _i32(d, 54) * self.scale - self.origin[1]
                off = 60
            else:
                nchars = d[74]
                x = _i32(d, 62) * self.scale - self.origin[0]
                y = _i32(d, 66) * self.scale - self.origin[1]
                off = 76
            text = d[off:off + nchars].decode("latin1", "replace")
            return gwkb.point_wkb(x, y), text, 0

        if t in (T_CCHAIN, T_CSHAPE):
            numelems = d[38] + d[39] * 256
            segs = []
            consumed = 0
            j = idx + 1
            for _ in range(numelems):
                if j >= len(self.elements):
                    break
                child_wkb, _txt, sub = self.element_feature(j)
                consumed += 1 + sub
                j += 1 + sub
                if child_wkb is not None and \
                        gwkb.geometry_type(child_wkb) % 1000 == 2:
                    segs.append(child_wkb)
            if not segs:
                return None, None, consumed
            if t == T_CSHAPE:
                ring = _assemble_ring(segs)
                return (gwkb.polygon_wkb(ring) if ring is not None
                        else None), None, consumed
            if len(segs) == 1:
                return segs[0], None, consumed
            return (gwkb.collection_wkb(gwkb.MULTILINESTRING, segs), None,
                    consumed)

        return None, None, 0


def _assemble_ring(segs: list[bytes]):
    """OGRBuildPolygonFromEdges role (simplified): chain edges end to
    start, tolerant of reversed segments, close the ring."""
    lines = []
    for s in segs:
        n = struct.unpack_from("<I", s, 5)[0]
        lines.append(np.frombuffer(s, "<f8", count=2 * n,
                                   offset=9).reshape(-1, 2))
    out = [lines.pop(0)]
    while lines:
        tail = out[-1][-1]
        best = None
        for i, ln in enumerate(lines):
            if np.allclose(ln[0], tail):
                best = (i, ln)
                break
            if np.allclose(ln[-1], tail):
                best = (i, ln[::-1])
                break
        if best is None:
            return None
        lines.pop(best[0])
        out.append(best[1][1:])
    ring = np.vstack(out)
    if not np.array_equal(ring[0], ring[-1]):
        ring = np.vstack([ring, ring[:1]])
    return ring


_GEOM_TYPES = {T_LINE, T_LINE_STRING, T_SHAPE, T_CURVE, T_ELLIPSE, T_ARC,
               T_TEXT, T_CCHAIN, T_CSHAPE}


def read_dgn_local(path: str, geom_col: str = "geometry") -> pa.Table:
    f = DgnFile(path)
    cols = {"fid": [], geom_col: [], "Type": [], "Level": [],
            "GraphicGroup": [], "ColorIndex": [], "Weight": [],
            "Style": [], "Text": []}
    i = 0
    fid = 0
    while i < len(f.elements):
        el = f.elements[i]
        if el.deleted or el.type not in _GEOM_TYPES or el.complex:
            i += 1
            continue
        wkb, text, consumed = f.element_feature(i)
        fid += 1
        cols["fid"].append(fid)
        cols[geom_col].append(wkb)
        cols["Type"].append(el.type)
        cols["Level"].append(el.level)
        cols["GraphicGroup"].append(el.graphic_group)
        cols["ColorIndex"].append(el.color)
        cols["Weight"].append(el.weight)
        cols["Style"].append(el.style)
        cols["Text"].append(text)
        i += 1 + consumed
    return pa.table({
        "fid": pa.array(cols["fid"], pa.int64()),
        geom_col: pa.array(cols[geom_col], pa.binary()),
        "Type": pa.array(cols["Type"], pa.int32()),
        "Level": pa.array(cols["Level"], pa.int32()),
        "GraphicGroup": pa.array(cols["GraphicGroup"], pa.int32()),
        "ColorIndex": pa.array(cols["ColorIndex"], pa.int32()),
        "Weight": pa.array(cols["Weight"], pa.int32()),
        "Style": pa.array(cols["Style"], pa.int32()),
        "Text": pa.array(cols["Text"], pa.string()),
    })


def read_dgn(paths, geom_col: str = "geometry"):
    """Ray Dataset over .dgn files — one task per file."""
    import ray.data as rd
    if isinstance(paths, str):
        paths = [paths]
    ds = rd.from_items([{"path": p} for p in paths])

    def load(batch: pa.Table) -> pa.Table:
        tabs = [read_dgn_local(p.as_py(), geom_col)
                for p in batch["path"]]
        return pa.concat_tables(tabs)

    return ds.map_batches(load, batch_format="pyarrow")
