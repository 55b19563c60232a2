"""ESRI File Geodatabase (.gdb) reader — the OpenFileGDB driver role.

From-scratch re-derivation of the reverse-engineered FileGDB v10 table
container (reference roles: ogr/ogrsf_frmts/openfilegdb/filegdbtable.cpp
FileGDBTable::Open/SelectRow/GetFieldValue,
FileGDBOGRGeometryConverterImpl::GetAsGeometry;
ogr/ogrsf_frmts/openfilegdb/ogropenfilegdblayer.cpp geometry-type
promotion; ogr/ogrpgeogeometry.cpp OGRCreateFromMultiPatch).  No code is
copied — the wire format facts (offsets, varint encodings, shape-type
codes) are re-stated here and every decoded value is pinned against the
reference autotest fixtures in tests/test_filegdb.py.

Container layout (one directory, one table per ``a%08x`` stem):

- ``a%08x.gdbtable``  — 40-byte header (int32 version=3|4, int32 valid
  row count at +4 (V3) / int64 at +16 (V4), int32 max row blob size at
  +8, uint64 field-descriptor offset at +32), a field-descriptor
  section, then length-prefixed row blobs.
- ``a%08x.gdbtablx`` — 16-byte header (int32 version, uint32 number of
  present 1024-row blocks, int32 total row count, uint32 offset width
  4..6), a packed array of offset-width little-endian row offsets, and
  a trailer holding a present-block bitmap for sparse tables.
- ``a00000001.gdbtable`` is the GDB_SystemCatalog: (Name, FileFormat)
  rows whose FID is the hex stem of the corresponding table.

Row blob: null bitmap over the nullable fields (LSB-first), then field
payloads in declaration order.  OBJECTID occupies zero bytes (the FID
is the .gdbtablx slot).  Geometry is a varint-compressed shape stream:
scaled/translated integer coordinates (``round((v - origin) * scale)``,
points biased +1 so 0 encodes EMPTY), per-vertex delta encoding with a
6-bit-sign-bit first byte, and the extended-shapefile type byte with
0x80000000/0x40000000/0x20000000 = Z/M/curves flags.

Scale note: each layer decodes as one read task (FileGDB tables are
single files, seekable only through their own .gdbtablx); a 100-TB
corpus of .gdb archives parallelizes across *datasets*, mirroring the
one-shard-per-file contract of the Shapefile/FlatGeobuf sources.
"""
from __future__ import annotations

import datetime
import math
import os
import struct

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom.ops import organize_polygons, ring_area

# ---------------------------------------------------------------- varints

# field type codes (filegdbtable.h FileGDBFieldType)
FT_INT16, FT_INT32, FT_FLOAT32, FT_FLOAT64, FT_STRING, FT_DATETIME = range(6)
FT_OBJECTID, FT_GEOMETRY, FT_BINARY, FT_RASTER, FT_GUID, FT_GLOBALID = range(6, 12)
FT_XML, FT_INT64, FT_DATE, FT_TIME, FT_DATETIME_OFFSET = range(12, 17)

# extended shape type codes (ogrpgeogeometry.h)
SHPT_NULL = 0
SHPT_POINT, SHPT_POINTM, SHPT_POINTZM, SHPT_POINTZ = 1, 21, 11, 9
SHPT_MULTIPOINT, SHPT_MULTIPOINTM = 8, 28
SHPT_MULTIPOINTZM, SHPT_MULTIPOINTZ = 18, 20
SHPT_ARC, SHPT_ARCM, SHPT_ARCZM, SHPT_ARCZ = 3, 23, 13, 10
SHPT_POLYGON, SHPT_POLYGONM, SHPT_POLYGONZM, SHPT_POLYGONZ = 5, 25, 15, 19
SHPT_MULTIPATCHM, SHPT_MULTIPATCH = 31, 32
SHPT_GENERALPOLYLINE, SHPT_GENERALPOLYGON = 50, 51
SHPT_GENERALPOINT, SHPT_GENERALMULTIPOINT = 52, 53
SHPT_GENERALMULTIPATCH = 54

EXT_Z = 0x80000000
EXT_M = 0x40000000
EXT_CURVE = 0x20000000

SEG_ARC, SEG_BEZIER, SEG_ELLIPSE = 1, 4, 5

_PT_BASE = {SHPT_POINT, SHPT_POINTM, SHPT_POINTZM, SHPT_POINTZ,
            SHPT_GENERALPOINT}
_MP_BASE = {SHPT_MULTIPOINT, SHPT_MULTIPOINTM, SHPT_MULTIPOINTZM,
            SHPT_MULTIPOINTZ, SHPT_GENERALMULTIPOINT}
_ARC_BASE = {SHPT_ARC, SHPT_ARCM, SHPT_ARCZM, SHPT_ARCZ,
             SHPT_GENERALPOLYLINE}
_POLY_BASE = {SHPT_POLYGON, SHPT_POLYGONM, SHPT_POLYGONZM, SHPT_POLYGONZ,
              SHPT_GENERALPOLYGON}
_PATCH_BASE = {SHPT_MULTIPATCH, SHPT_MULTIPATCHM, SHPT_GENERALMULTIPATCH}


def _varuint(buf: bytes, pos: int) -> tuple[int, int]:
    """7-bit little-endian varint (continuation in bit 7)."""
    val = 0
    shift = 0
    while True:
        b = buf[pos]
        pos += 1
        val |= (b & 0x7F) << shift
        if not b & 0x80:
            return val, pos
        shift += 7


def _varint(buf: bytes, pos: int) -> tuple[int, int]:
    """Signed varint: first byte carries 6 value bits + sign in bit 6."""
    b = buf[pos]
    pos += 1
    val = b & 0x3F
    neg = bool(b & 0x40)
    shift = 6
    while b & 0x80:
        b = buf[pos]
        pos += 1
        val |= (b & 0x7F) << shift
        shift += 7
    return (-val if neg else val), pos


def _skip_varuints(buf: bytes, pos: int, n: int) -> int:
    for _ in range(n):
        while buf[pos] & 0x80:
            pos += 1
        pos += 1
    return pos


def _utf16(raw: bytes) -> str:
    return raw.decode("utf-16-le", errors="replace")


# ---------------------------------------------------------------- fields


class GdbField:
    __slots__ = ("name", "alias", "ftype", "nullable", "maxwidth",
                 "wkt", "xorigin", "yorigin", "xyscale",
                 "zorigin", "zscale", "morigin", "mscale", "raster_managed")

    def __init__(self, name: str, alias: str, ftype: int, nullable: bool):
        self.name = name
        self.alias = alias
        self.ftype = ftype
        self.nullable = nullable
        self.maxwidth = 0
        self.wkt = ""
        self.xorigin = self.yorigin = 0.0
        self.xyscale = 1.0
        self.zorigin = self.morigin = 0.0
        self.zscale = self.mscale = 1.0
        self.raster_managed = False


class GdbTable:
    """One parsed .gdbtable/.gdbtablx pair (read path only)."""

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as f:
            data = f.read()
        self.data = data
        version = struct.unpack_from("<i", data, 0)[0]
        if version not in (3, 4):
            raise ValueError(f"unsupported .gdbtable version {version}")
        self.version = version
        if version == 3:
            self.valid_count = struct.unpack_from("<i", data, 4)[0]
        else:
            self.valid_count = struct.unpack_from("<q", data, 16)[0]
        field_off = struct.unpack_from("<Q", data, 32)[0]

        # field-descriptor section
        (self.fdesc_len, sec_version) = struct.unpack_from("<II", data, field_off)
        self.geom_type = data[field_off + 8]
        self.utf8_strings = bool(data[field_off + 9] & 1)
        gflags = data[field_off + 11]
        self.has_m = bool(gflags & (1 << 6))
        self.has_z = bool(gflags & (1 << 7))
        nfields = struct.unpack_from("<H", data, field_off + 12)[0]
        self.fields: list[GdbField] = []
        self.objectid_idx = -1
        self.geom_idx = -1
        pos = field_off + 14
        for _ in range(nfields):
            pos = self._parse_field(data, pos)
        self.row_section = field_off + 14 + (self.fdesc_len - 10)
        self.n_nullable = sum(f.nullable for f in self.fields)
        self.nullmap_bytes = (self.n_nullable + 7) // 8
        self._offsets: np.ndarray | None = None

    # -- field descriptors -------------------------------------------------

    def _parse_field(self, data: bytes, pos: int) -> int:
        n = data[pos]
        pos += 1
        name = _utf16(data[pos:pos + 2 * n])
        pos += 2 * n
        n = data[pos]
        pos += 1
        alias = _utf16(data[pos:pos + 2 * n])
        pos += 2 * n
        ftype = data[pos]
        pos += 1
        if ftype not in (FT_GEOMETRY, FT_RASTER):
            default_len = 0
            if ftype == FT_STRING:
                maxwidth = struct.unpack_from("<i", data, pos)[0]
                flags = data[pos + 4]
                pos += 5
                default_len, pos = _varuint(data, pos)
            elif ftype in (FT_OBJECTID, FT_BINARY, FT_GUID, FT_GLOBALID,
                           FT_XML):
                maxwidth = 0
                flags = data[pos + 1]
                pos += 2
            else:
                maxwidth = 0
                flags = data[pos + 1]
                default_len = data[pos + 2]
                pos += 3
            if flags & 4:  # editable → a default value may follow
                pos += default_len
            fld = GdbField(name, alias, ftype, bool(flags & 1))
            fld.maxwidth = maxwidth
            if ftype == FT_OBJECTID:
                self.objectid_idx = len(self.fields)
            self.fields.append(fld)
            return pos

        flags = data[pos + 1]
        pos += 2
        fld = GdbField(name, alias, ftype, bool(flags & 1))
        if ftype == FT_RASTER:
            n = data[pos]
            pos += 1
            pos += 2 * n  # raster column name
        wkt_len = struct.unpack_from("<H", data, pos)[0]
        pos += 2
        fld.wkt = _utf16(data[pos:pos + wkt_len])
        pos += wkt_len
        gf = data[pos]
        pos += 1
        has_m_osc = bool(gf & 2)
        has_z_osc = bool(gf & 4)
        if ftype == FT_GEOMETRY or gf > 0:
            def rd():
                nonlocal pos
                v = struct.unpack_from("<d", data, pos)[0]
                pos += 8
                return v

            fld.xorigin = rd()
            fld.yorigin = rd()
            fld.xyscale = rd()
            if has_m_osc:
                fld.morigin = rd()
                fld.mscale = rd()
            if has_z_osc:
                fld.zorigin = rd()
                fld.zscale = rd()
            rd()  # xy tolerance
            if has_m_osc:
                rd()  # m tolerance
            if has_z_osc:
                rd()  # z tolerance
        if ftype == FT_GEOMETRY:
            self.geom_idx = len(self.fields)
            pos += 4 * 8  # layer bbox
            if self.has_z:
                pos += 2 * 8
            if self.has_m:
                pos += 2 * 8
            pos += 1  # zero byte
            ngrid = struct.unpack_from("<I", data, pos)[0]
            pos += 4 + 8 * ngrid
        else:  # raster
            pos += 1  # raster type byte
            fld.raster_managed = data[pos - 1] == 1
        self.fields.append(fld)
        return pos

    # -- .gdbtablx ---------------------------------------------------------

    def offsets(self) -> np.ndarray:
        """Row-blob offsets per FID slot (0 = absent/deleted row)."""
        if self._offsets is not None:
            return self._offsets
        tx_path = os.path.splitext(self.path)[0] + ".gdbtablx"
        with open(tx_path, "rb") as f:
            tx = f.read()
        version, blocks, total, osz = struct.unpack_from("<iIiI", tx, 0)
        if not 4 <= osz <= 6:
            raise ValueError(f"bad .gdbtablx offset width {osz}")
        raw = np.frombuffer(tx, np.uint8, count=blocks * 1024 * osz,
                            offset=16).reshape(-1, osz).astype(np.uint64)
        weights = (np.uint64(256) ** np.arange(osz, dtype=np.uint64))
        packed = (raw * weights).sum(axis=1)
        trailer = 16 + osz * 1024 * blocks
        full = packed
        if blocks:
            nbm_words, nbits, blocks2 = struct.unpack_from("<III", tx, trailer)
            if nbm_words:  # sparse table: expand via the present-block map
                bm = np.frombuffer(tx, np.uint8, count=(nbits + 7) // 8,
                                   offset=trailer + 16)
                bits = np.unpackbits(bm, bitorder="little")[:nbits]
                full = np.zeros(nbits * 1024, dtype=np.uint64)
                present = np.flatnonzero(bits)
                for j, blk in enumerate(present):
                    full[blk * 1024:(blk + 1) * 1024] = \
                        packed[j * 1024:(j + 1) * 1024]
        self._offsets = full[:total]
        return self._offsets

    # -- row decode ---------------------------------------------------------

    def rows(self) -> tuple[list[int], list[list]]:
        """Decode every live row → (fids, columns) with raw geometry blobs."""
        offs = self.offsets()
        cols: list[list] = [[] for _ in self.fields]
        fids: list[int] = []
        data = self.data
        fields = self.fields
        nullable_idx = [i for i, f in enumerate(fields) if f.nullable]
        for slot in np.flatnonzero(offs):
            off = int(offs[slot])
            blob_len = struct.unpack_from("<I", data, off)[0]
            if blob_len >= 1 << 31:  # negative length = deleted row
                continue
            pos = off + 4
            end = pos + blob_len
            nullmap = data[pos:pos + self.nullmap_bytes]
            pos += self.nullmap_bytes
            fids.append(int(slot) + 1)
            inull = 0
            for i, f in enumerate(fields):
                if f.nullable:
                    isnull = (nullmap[inull >> 3] >> (inull & 7)) & 1
                    inull += 1
                    if isnull:
                        cols[i].append(None)
                        continue
                t = f.ftype
                if t == FT_OBJECTID:
                    cols[i].append(int(slot) + 1)
                elif t == FT_INT16:
                    cols[i].append(struct.unpack_from("<h", data, pos)[0])
                    pos += 2
                elif t == FT_INT32:
                    cols[i].append(struct.unpack_from("<i", data, pos)[0])
                    pos += 4
                elif t == FT_FLOAT32:
                    cols[i].append(struct.unpack_from("<f", data, pos)[0])
                    pos += 4
                elif t == FT_FLOAT64:
                    cols[i].append(struct.unpack_from("<d", data, pos)[0])
                    pos += 8
                elif t in (FT_DATETIME, FT_DATE, FT_TIME):
                    cols[i].append(struct.unpack_from("<d", data, pos)[0])
                    pos += 8
                elif t == FT_DATETIME_OFFSET:
                    v, tz = struct.unpack_from("<dh", data, pos)
                    pos += 10
                    cols[i].append((v, tz))
                elif t in (FT_STRING, FT_XML):
                    ln, pos = _varuint(data, pos)
                    raw = data[pos:pos + ln]
                    pos += ln
                    if self.utf8_strings or t != FT_STRING:
                        cols[i].append(raw.decode("utf-8", errors="replace"))
                    else:
                        cols[i].append(_utf16(raw))
                elif t in (FT_GEOMETRY, FT_BINARY):
                    ln, pos = _varuint(data, pos)
                    cols[i].append(data[pos:pos + ln])
                    pos += ln
                elif t in (FT_GUID, FT_GLOBALID):
                    b = data[pos:pos + 16]
                    pos += 16
                    cols[i].append(
                        "{%02X%02X%02X%02X-%02X%02X-%02X%02X-%02X%02X-"
                        "%02X%02X%02X%02X%02X%02X}" % (
                            b[3], b[2], b[1], b[0], b[5], b[4], b[7], b[6],
                            b[8], b[9], b[10], b[11], b[12], b[13], b[14],
                            b[15]))
                elif t == FT_INT64:
                    cols[i].append(struct.unpack_from("<q", data, pos)[0])
                    pos += 8
                elif t == FT_RASTER:
                    if f.raster_managed:
                        cols[i].append(struct.unpack_from("<i", data, pos)[0])
                        pos += 4
                    else:
                        ln, pos = _varuint(data, pos)
                        cols[i].append(data[pos:pos + ln])
                        pos += ln
                else:
                    raise ValueError(f"unhandled field type {t}")
                if pos > end:
                    raise ValueError("row blob overrun")
        return fids, cols


# ---------------------------------------------------------------- geometry

def _dt_from_days(v: float) -> datetime.datetime | None:
    """Days since 1899-12-30 → naive datetime (second precision)."""
    secs = (v - 25569.0) * 86400.0
    if math.isnan(secs):
        return None
    secs = math.floor(secs + 0.5)
    return (datetime.datetime(1970, 1, 1)
            + datetime.timedelta(seconds=secs))


class _GeomReader:
    """Decodes the varint-compressed shape stream of one geometry field."""

    def __init__(self, gf: GdbField):
        self.gf = gf

    # raw coordinate array helpers -----------------------------------------

    def _xy(self, buf, pos, n, dx, dy):
        gf = self.gf
        xs = np.empty(n)
        ys = np.empty(n)
        for i in range(n):
            v, pos = _varint(buf, pos)
            dx += v
            v, pos = _varint(buf, pos)
            dy += v
            xs[i] = dx / gf.xyscale + gf.xorigin
            ys[i] = dy / gf.xyscale + gf.yorigin
        return xs, ys, pos, dx, dy

    def _axis(self, buf, pos, n, dz, scale, origin):
        zs = np.empty(n)
        for i in range(n):
            v, pos = _varint(buf, pos)
            dz += v
            zs[i] = dz / scale + origin
        return zs, pos, dz

    def decode(self, blob: bytes) -> bytes | None:
        """Geometry blob → ISO WKB (with the OGR layer-type promotion)."""
        if not blob:
            return None
        gf = self.gf
        gtype, pos = _varuint(blob, 0)
        base = gtype & 0xFF
        if base == SHPT_NULL:
            return None
        has_z = bool(gtype & EXT_Z) or base in (
            SHPT_POINTZ, SHPT_POINTZM, SHPT_MULTIPOINTZ, SHPT_MULTIPOINTZM,
            SHPT_ARCZ, SHPT_ARCZM, SHPT_POLYGONZ, SHPT_POLYGONZM,
            SHPT_MULTIPATCH, SHPT_MULTIPATCHM)
        has_m = bool(gtype & EXT_M) or base in (
            SHPT_POINTM, SHPT_POINTZM, SHPT_MULTIPOINTM, SHPT_MULTIPOINTZM,
            SHPT_ARCM, SHPT_ARCZM, SHPT_POLYGONM, SHPT_POLYGONZM)
        dims = "xy" + ("z" if has_z else "") + ("m" if has_m else "")

        if base in _PT_BASE:
            return self._point(blob, pos, has_z, has_m, dims)
        if base in _MP_BASE:
            return self._multipoint(blob, pos, has_z, has_m, dims)
        if base in _PATCH_BASE:
            return self._multipatch(blob, pos)
        if base not in _ARC_BASE and base not in _POLY_BASE:
            raise ValueError(f"unhandled shape type {base}")

        is_poly = base in _POLY_BASE
        has_curves = bool(gtype & EXT_CURVE)
        npoints, pos = _varuint(blob, pos)
        if npoints == 0:
            return gwkb.collection_wkb(
                gwkb.MULTIPOLYGON if is_poly else gwkb.MULTILINESTRING, [],
                dims)
        nparts, pos = _varuint(blob, pos)
        ncurves = 0
        if has_curves:
            ncurves, pos = _varuint(blob, pos)
        pos = _skip_varuints(blob, pos, 4)  # integer bbox
        counts = []
        rem = npoints
        for _ in range(nparts - 1):
            c, pos = _varuint(blob, pos)
            counts.append(c)
            rem -= c
        counts.append(rem)
        xs, ys, pos, _, _ = self._xy(blob, pos, npoints, 0, 0)
        zs = ms = None
        if has_z:
            zs, pos, _ = self._axis(blob, pos, npoints, 0,
                                    gf.zscale or 1.0, gf.zorigin)
        if has_m:
            # absent M marked by a lone 0x42 byte (curve path tests the
            # byte itself; plain path uses the remaining-length rule)
            if (has_curves and blob[pos] == 66) or \
                    (not has_curves and len(blob) - pos < npoints):
                if has_curves:
                    pos += 1
                has_m = False
                dims = dims.replace("m", "")
            else:
                ms, pos, _ = self._axis(blob, pos, npoints, 0,
                                        gf.mscale or 1.0, gf.morigin)
        curves = []
        for _ in range(ncurves):
            sidx, pos = _varuint(blob, pos)
            ctype, pos = _varuint(blob, pos)
            if ctype == SEG_ARC:
                params = struct.unpack_from("<ddI", blob, pos)
                pos += 20
            elif ctype == SEG_BEZIER:
                params = struct.unpack_from("<dddd", blob, pos)
                pos += 32
            elif ctype == SEG_ELLIPSE:
                params = struct.unpack_from("<dddddI", blob, pos)
                pos += 44
            else:
                raise ValueError(f"unknown curve segment type {ctype}")
            curves.append((sidx, ctype, params))

        parts = []
        at = 0
        for c in counts:
            coords = np.column_stack(
                [xs[at:at + c], ys[at:at + c]]
                + ([zs[at:at + c]] if zs is not None else [])
                + ([ms[at:at + c]] if ms is not None else []))
            parts.append((at, coords))
            at += c

        if curves:
            return self._curved(parts, curves, dims, is_poly)
        if is_poly:
            return _multipolygon([p for _, p in parts], dims)
        segs = [gwkb.linestring_wkb_d(p, dims) for _, p in parts]
        return gwkb.collection_wkb(gwkb.MULTILINESTRING, segs, dims)

    # point ------------------------------------------------------------------

    def _point(self, blob, pos, has_z, has_m, dims):
        gf = self.gf
        x, pos = _varuint(blob, pos)
        y, pos = _varuint(blob, pos)
        cx = float("nan") if x == 0 else (x - 1) / gf.xyscale + gf.xorigin
        cy = float("nan") if y == 0 else (y - 1) / gf.xyscale + gf.yorigin
        coords = [cx, cy]
        if has_z:
            z, pos = _varuint(blob, pos)
            coords.append(float("nan") if z == 0 else
                          (z - 1) / (gf.zscale or 1.0) + gf.zorigin)
        if has_m:
            m, pos = _varuint(blob, pos)
            coords.append(float("nan") if m == 0 else
                          (m - 1) / (gf.mscale or 1.0) + gf.morigin)
        return gwkb.point_wkb_d(coords, dims)

    # multipoint ---------------------------------------------------------------

    def _multipoint(self, blob, pos, has_z, has_m, dims):
        gf = self.gf
        n, pos = _varuint(blob, pos)
        if n == 0:
            return gwkb.collection_wkb(gwkb.MULTIPOINT, [], dims)
        pos = _skip_varuints(blob, pos, 4)
        xs, ys, pos, _, _ = self._xy(blob, pos, n, 0, 0)
        zs = ms = None
        if has_z:
            zs, pos, _ = self._axis(blob, pos, n, 0, gf.zscale or 1.0,
                                    gf.zorigin)
        if has_m:
            if len(blob) - pos >= n:
                ms, pos, _ = self._axis(blob, pos, n, 0, gf.mscale or 1.0,
                                        gf.morigin)
            else:
                dims = dims.replace("m", "")
        pts = []
        for i in range(n):
            c = [xs[i], ys[i]]
            if zs is not None:
                c.append(zs[i])
            if ms is not None:
                c.append(ms[i])
            pts.append(gwkb.point_wkb_d(c, dims))
        return gwkb.collection_wkb(gwkb.MULTIPOINT, pts, dims)

    # multipatch -----------------------------------------------------------

    def _multipatch(self, blob, pos):
        gf = self.gf
        npoints, pos = _varuint(blob, pos)
        if npoints == 0:
            return gwkb.polygon_wkb_d([], "xyz")
        pos = _skip_varuints(blob, pos, 1)
        nparts, pos = _varuint(blob, pos)
        pos = _skip_varuints(blob, pos, 4)
        counts = []
        rem = npoints
        for _ in range(nparts - 1):
            c, pos = _varuint(blob, pos)
            counts.append(c)
            rem -= c
        counts.append(rem)
        ptypes = []
        for _ in range(nparts):
            t, pos = _varuint(blob, pos)
            ptypes.append(t & 0xF)
        xs, ys, pos, _, _ = self._xy(blob, pos, npoints, 0, 0)
        zs, pos, _ = self._axis(blob, pos, npoints, 0, gf.zscale or 1.0,
                                gf.zorigin)
        return _multipatch_wkb(counts, ptypes, xs, ys, zs)

    # curves ---------------------------------------------------------------

    def _curved(self, parts, curves, dims, is_poly):
        """Faithful OGRShapeCreateCompoundCurve role (ogrpgeogeometry.cpp):
        each part becomes a CompoundCurve of chord-run LineStrings,
        3/5-point CircularStrings (interior-point and deprecated
        center-point arc forms), tessellated cubic beziers (4° default
        arc step heuristic) and tessellated ellipse arcs; a part with
        no circular arc is flattened to one LineString.  Lines →
        MULTICURVE / MULTILINESTRING, polygons → MULTISURFACE
        (CURVEPOLYGON (...)), matching the OpenFileGDB layer
        promotion.  Synthesized arc points carry the start vertex's
        Z/M (reference behavior)."""
        kept = []
        for sidx, ctype, params in curves:
            if ctype == SEG_ARC:
                bits = params[2]
                if bits & 0x80 and not bits & 0x20:      # interior point
                    kept.append((sidx, "arc_ip", params))
                elif not bits & (0x1 | 0x20 | 0x40):     # center point
                    kept.append((sidx, "arc_center", params))
            elif ctype == SEG_BEZIER:
                kept.append((sidx, "bezier", params))
            elif ctype == SEG_ELLIPSE:
                bits = params[5]
                if not bits & (0x200 | 0x400):           # center-defined
                    kept.append((sidx, "ellipse", params))
        if not kept:
            if is_poly:
                return _multipolygon([p for _, p in parts], dims)
            return gwkb.collection_wkb(
                gwkb.MULTILINESTRING,
                [gwkb.linestring_wkb_d(p, dims) for _, p in parts], dims)

        out_parts = []
        any_arc_total = False
        for at, coords in parts:
            n = len(coords)
            segs: list[tuple[str, np.ndarray]] = []  # (kind, coords)
            last = 0  # local index after the last consumed curve
            has_arc = False
            for sidx, kind, params in kept:
                i = sidx - at
                if i < 0 or i >= n or i + 1 >= n:
                    continue
                if i > last:
                    segs.append(("line", coords[last:i + 1]))
                p1, p3 = coords[i], coords[i + 1]
                # synthesized arc points: Z from the start vertex, M=0
                # (reference 3-arg OGRPoint constructors)
                tail = list(p1[2:])
                if dims.endswith("m"):
                    tail[-1] = 0.0
                if kind == "arc_ip":
                    x, y = params[0], params[1]
                    if p1[0] == p3[0] and p1[1] == p3[1]:
                        if x != p1[0] or y != p1[1]:  # full circle → 5 pts
                            cx, cy = (p1[0] + x) / 2, (p1[1] + y) / 2
                            i1 = [cx - (y - cy), cy + (p1[0] - cx)] + tail
                            i2 = [cx + (y - cy), cy - (p1[0] - cx)] + tail
                            segs.append(("arc", np.array(
                                [list(p1), i1, [x, y] + tail, i2,
                                 list(p3)])))
                            has_arc = True
                    else:
                        segs.append(("arc", np.array(
                            [list(p1), [x, y] + tail, list(p3)])))
                        has_arc = True
                elif kind == "arc_center":
                    cx, cy = params[0], params[1]
                    ccw = bool(params[2] & 0x8)
                    a0 = math.atan2(p1[1] - cy, p1[0] - cx)
                    a1 = math.atan2(p3[1] - cy, p3[0] - cx)
                    r = math.hypot(p3[0] - cx, p3[1] - cy)
                    if ccw:
                        if a0 >= a1:
                            a1 += 2 * math.pi
                    else:
                        if a0 <= a1:
                            a1 -= 2 * math.pi
                    am = (a0 + a1) / 2
                    segs.append(("arc", np.array(
                        [list(p1),
                         [cx + r * math.cos(am), cy + r * math.sin(am)]
                         + tail, list(p3)])))
                    has_arc = True
                elif kind == "bezier":
                    segs.append(("line", _bezier_points(
                        p1, p3, params, len(dims))))
                else:  # ellipse by center
                    segs.append(("line", _ellipse_points(
                        p1, p3, params, len(dims))))
                last = i + 1
            if last < n - 1 or not segs:
                segs.append(("line", coords[last:]))
            if has_arc:
                any_arc_total = True
                wkbs = [gwkb.circularstring_wkb(c, dims) if k == "arc"
                        else gwkb.linestring_wkb_d(c, dims)
                        for k, c in segs]
                out_parts.append(("cc", gwkb.collection_wkb(
                    gwkb.COMPOUNDCURVE, wkbs, dims)))
            else:  # forceTo(LineString): concatenate, dropping dup joins
                pts = [segs[0][1]]
                for _, c in segs[1:]:
                    pts.append(c[1:] if len(c) > 1 and
                               np.array_equal(c[0], pts[-1][-1]) else c)
                merged = np.vstack(pts)
                out_parts.append(
                    ("ls", gwkb.linestring_wkb_d(merged, dims)))

        if is_poly:
            # one CurvePolygon per shell of organize_polygons, winding
            # and containment tested on the stored vertices (chords)
            wkbs = [w for _, w in out_parts]
            return gwkb.collection_wkb(gwkb.MULTISURFACE, [
                gwkb.collection_wkb(gwkb.CURVEPOLYGON,
                                    [wkbs[i] for i in grp], dims)
                for grp in organize_polygons([c[:, :2] for _, c in parts],
                                             by_winding=True)], dims)
        # MULTICURVE only when some part kept a circular arc
        return gwkb.collection_wkb(
            gwkb.MULTICURVE if any_arc_total else gwkb.MULTILINESTRING,
            [w for _, w in out_parts], dims)


def _bezier_points(p1, p3, params, width: int) -> np.ndarray:
    """Cubic bezier tessellation with the reference's step heuristic
    (ogrpgeogeometry.cpp CURVE_BEZIER branch; default 4° arc step)."""
    x0, y0 = p1[0], p1[1]
    x1, y1, x2, y2 = params
    x3, y3 = p3[0], p3[1]
    a0 = math.atan2(y1 - y0, x1 - x0)
    a1 = math.atan2(y3 - y2, x3 - x2)
    if a0 + math.pi < a1:
        a0 += 2 * math.pi
    elif a1 + math.pi < a0:
        a1 += 2 * math.pi
    step = 4.0 / 180.0 * math.pi
    lts = (x1 - x0) ** 2 + (y1 - y0) ** 2
    lte = (x3 - x2) ** 2 + (y3 - y2) ** 2
    ln = (x3 - x0) ** 2 + (y3 - y0) ** 2
    if ln < 1e-9:
        nsteps = 1
    else:
        nsteps = int(min(1000.0, math.ceil(
            max(2.0, abs(a1 - a0) / step)
            * max(1.0, 5.0 * (lts + lte) / ln))))
    # interior bezier points get Z=0/M=0 (reference 2-arg setPoint);
    # only the endpoints keep their stored Z/M
    out = np.zeros((nsteps + 1, width))
    out[0, :len(p1)] = p1
    for j in range(1, nsteps):
        t = j / nsteps
        u = 1 - t
        out[j, 0] = (u * u * u * x0 + 3 * u * u * t * x1
                     + 3 * u * t * t * x2 + t * t * t * x3)
        out[j, 1] = (u * u * u * y0 + 3 * u * u * t * y1
                     + 3 * u * t * t * y2 + t * t * t * y3)
    out[nsteps, :len(p3)] = p3
    return out


def _ellipse_points(p1, p3, params, width: int) -> np.ndarray:
    """Ellipse-arc tessellation (CURVE_ELLIPSE_BY_CENTER role →
    approximateArcAngles with the default 4° step, endpoints snapped)."""
    cx, cy, rot_rad, semimajor, ratio, bits = params
    semiminor = semimajor * ratio
    rot_deg = -(rot_rad / math.pi * 180.0)
    is_minor = bool(bits & 0x1000)
    is_complete = bool(bits & 0x2000)

    def angle_on(px, py):
        if semimajor == 0 or semiminor == 0:
            return 0.0
        rr = rot_deg * math.pi / 180.0
        cr, sr = math.cos(rr), math.sin(rr)
        dx, dy = px - cx, py - cy
        cos_a = (cr * dx - sr * dy) / semimajor
        sin_a = (sr * dx + cr * dy) / semiminor
        a = math.atan2(sin_a, cos_a) / math.pi * 180.0
        return a + 360.0 if a < -180.0 else a

    a_start = -angle_on(p1[0], p1[1])
    a_end = -angle_on(p3[0], p3[1])
    if is_complete:
        a_end = a_start + 360.0
    elif is_minor:
        if a_end > a_start + 180.0:
            a_end -= 360.0
        elif a_end < a_start - 180.0:
            a_end += 360.0
    else:
        if a_start < a_end < a_start + 180.0:
            a_end -= 360.0
        elif a_start - 180.0 < a_end < a_start:
            a_end += 360.0

    full_circle = abs(a_end - a_start) == 360.0
    s, e = -a_start, -a_end  # approximateArcAngles direction switch
    nverts = max(2, int(math.ceil(abs(e - s) / 4.0) + 1))
    dslice = (e - s) / (nverts - 1)
    if full_circle:
        nverts -= 1
    rr = rot_deg * math.pi / 180.0
    cr, sr = math.cos(rr), math.sin(rr)
    # interior ellipse points carry the start vertex Z with M=0
    # (approximateArcAngles 3-arg setPoint role)
    out = np.zeros((nverts + (1 if full_circle else 0), width))
    if width > 2:
        out[:, 2] = p1[2] if len(p1) > 2 else 0.0
    for i in range(nverts):
        a = (s + i * dslice) * math.pi / 180.0
        ex = math.cos(a) * semimajor
        ey = math.sin(a) * semiminor
        out[i, 0] = cx + ex * cr + ey * sr
        out[i, 1] = cy - ex * sr + ey * cr
    if full_circle:
        out[-1] = out[0]
    if len(out) >= 2:  # snap endpoints to the exact stored vertices
        out[0, :len(p1)] = p1
        out[-1, :len(p3)] = p3
    return out


def _multipolygon(rings: list[np.ndarray], dims: str) -> bytes:
    """Spec winding (clockwise = shell) → MULTIPOLYGON (the OpenFileGDB
    layer promotes every polygon)."""
    return gwkb.collection_wkb(gwkb.MULTIPOLYGON, [
        gwkb.polygon_wkb_d([rings[i] for i in group], dims)
        for group in organize_polygons([r[:, :2] for r in rings],
                                       by_winding=True)], dims)


def _multipatch_wkb(counts, ptypes, xs, ys, zs) -> bytes:
    """OGRCreateFromMultiPatch role: rings → MULTIPOLYGON Z member,
    tri-strips/fans → TIN Z members, whole-patch 4-point outer rings
    forming an edge-connected set → one TIN Z."""
    def tri(p1, p2, p3) -> bytes:
        ring = np.array([p1, p2, p3, p1])
        return gwkb.polygon_wkb_d([ring], "xyz")

    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    # whole-geometry TIN candidate: every part a 4-point closed outer ring
    if len(counts) >= 2 and all(
            t == 2 and c == 4 for t, c in zip(ptypes, counts)):
        tris = []
        seen = set()
        dup = True
        for s in starts:
            key = tuple(np.round(
                [xs[s], ys[s], zs[s], xs[s + 1], ys[s + 1], zs[s + 1],
                 xs[s + 2], ys[s + 2], zs[s + 2]], 12))
            closed = (xs[s] == xs[s + 3] and ys[s] == ys[s + 3]
                      and zs[s] == zs[s + 3])
            if not closed:
                dup = False
                break
            if key in seen:
                continue
            seen.add(key)
            tris.append(tri([xs[s], ys[s], zs[s]],
                            [xs[s + 1], ys[s + 1], zs[s + 1]],
                            [xs[s + 2], ys[s + 2], zs[s + 2]]))
        if dup and _tin_connected(starts, counts, xs, ys, zs):
            return gwkb.collection_wkb(gwkb.TIN, tris, "xyz")

    members: list[bytes] = []
    cur_polys: list[list[np.ndarray]] = []

    def flush_polys():
        if cur_polys:
            members.append(gwkb.collection_wkb(
                gwkb.MULTIPOLYGON,
                [gwkb.polygon_wkb_d(rs, "xyz") for rs in cur_polys], "xyz"))
            cur_polys.clear()

    for s, c, t in zip(starts, counts, ptypes):
        pts = np.column_stack([xs[s:s + c], ys[s:s + c], zs[s:s + c]])
        if t == 0:  # triangle strip
            flush_polys()
            tris = [tri(pts[i], pts[i + 1], pts[i + 2])
                    for i in range(c - 2)]
            members.append(gwkb.collection_wkb(gwkb.TIN, tris, "xyz"))
        elif t == 1:  # triangle fan
            flush_polys()
            tris = [tri(pts[0], pts[i + 1], pts[i + 2])
                    for i in range(c - 2)]
            members.append(gwkb.collection_wkb(gwkb.TIN, tris, "xyz"))
        elif t in (2, 4):  # outer / first ring starts a new polygon
            cur_polys.append([pts])
        elif t in (3, 5):  # inner / subsequent ring
            if cur_polys:
                cur_polys[-1].append(pts)
            else:
                cur_polys.append([pts])
        else:  # triangles (SHPP part type 6)
            flush_polys()
            tris = [tri(pts[i], pts[i + 1], pts[i + 2])
                    for i in range(0, c - 2, 3)]
            members.append(gwkb.collection_wkb(gwkb.TIN, tris, "xyz"))
    flush_polys()
    if len(members) == 1:
        return members[0]
    return gwkb.collection_wkb(gwkb.GEOMETRYCOLLECTION, members, "xyz")


def _tin_connected(starts, counts, xs, ys, zs) -> bool:
    """Edge-connectivity test of the whole-patch TIN candidate
    (OGRCreateFromMultiPatch RegisterEdge/GetEdgeOwners role)."""
    edges: dict[tuple, list[int]] = {}
    keys = []
    uniq = {}
    for ipart, s in enumerate(starts):
        key = tuple(np.round(
            [xs[s + j] for j in range(3)] + [ys[s + j] for j in range(3)]
            + [zs[s + j] for j in range(3)], 12))
        if key in uniq:
            keys.append(None)  # duplicated triangle: skipped
            continue
        uniq[key] = ipart
        keys.append(key)
        for j in range(3):
            a = (xs[s + j], ys[s + j], zs[s + j])
            b = (xs[s + (j + 1) % 3], ys[s + (j + 1) % 3],
                 zs[s + (j + 1) % 3])
            e = (min(a, b), max(a, b))
            owners = edges.setdefault(e, [])
            if len(owners) >= 2:
                return False
            owners.append(ipart)
    live = [i for i, k in enumerate(keys) if k is not None]
    if not live:
        return False
    seen = {live[0]}
    stack = [live[0]]
    adj: dict[int, set[int]] = {i: set() for i in live}
    for owners in edges.values():
        if len(owners) == 2:
            adj[owners[0]].add(owners[1])
            adj[owners[1]].add(owners[0])
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(live)


# ---------------------------------------------------------------- dataset


_SYSTEM_TABLES = {
    "GDB_SystemCatalog", "GDB_DBTune", "GDB_SpatialRefs", "GDB_Items",
    "GDB_ItemTypes", "GDB_ItemRelationships", "GDB_ItemRelationshipTypes",
    "GDB_ReplicaLog",
}


def list_layers(gdb_path: str) -> dict[str, str]:
    """Layer name → .gdbtable path, from the GDB_SystemCatalog."""
    cat = GdbTable(os.path.join(gdb_path, "a00000001.gdbtable"))
    fids, cols = cat.rows()
    name_idx = next(i for i, f in enumerate(cat.fields)
                    if f.name.lower() == "name")
    out = {}
    for fid, name in zip(fids, cols[name_idx]):
        if name is None or name in _SYSTEM_TABLES or name.startswith("GDB_"):
            continue
        path = os.path.join(gdb_path, "a%08x.gdbtable" % fid)
        if os.path.exists(path):
            out[name] = path
    return out


_ARROW_TYPES = {
    FT_INT16: pa.int16(), FT_INT32: pa.int32(), FT_FLOAT32: pa.float32(),
    FT_FLOAT64: pa.float64(), FT_STRING: pa.string(),
    FT_OBJECTID: pa.int64(), FT_BINARY: pa.binary(),
    FT_GUID: pa.string(), FT_GLOBALID: pa.string(), FT_XML: pa.string(),
    FT_INT64: pa.int64(),
}


def table_to_arrow(tbl: GdbTable, geom_col: str = "geometry") -> pa.Table:
    fids, cols = tbl.rows()
    names = ["fid"]
    arrays: list[pa.Array] = [pa.array(fids, pa.int64())]
    reader = _GeomReader(tbl.fields[tbl.geom_idx]) if tbl.geom_idx >= 0 \
        else None
    for i, f in enumerate(tbl.fields):
        if f.ftype == FT_OBJECTID:
            continue  # the fid column already carries it
        if f.ftype == FT_GEOMETRY:
            names.append(geom_col)
            arrays.append(pa.array(
                [reader.decode(b) if b is not None else None
                 for b in cols[i]], pa.binary()))
        elif f.ftype == FT_DATETIME:
            names.append(f.name)
            arrays.append(pa.array(
                [_dt_from_days(v) if v is not None else None
                 for v in cols[i]], pa.timestamp("ms")))
        elif f.ftype == FT_DATE:
            names.append(f.name)
            arrays.append(pa.array(
                [_dt_from_days(v).date() if v is not None else None
                 for v in cols[i]], pa.date32()))
        elif f.ftype == FT_TIME:
            names.append(f.name)
            arrays.append(pa.array(
                [datetime.time(int(v * 24) % 24, int(v * 1440) % 60,
                               round(v * 86400) % 60)
                 if v is not None else None for v in cols[i]],
                pa.time32("s")))
        elif f.ftype == FT_DATETIME_OFFSET:
            names.append(f.name)
            arrays.append(pa.array(
                [_dt_from_days(v[0]).replace(tzinfo=datetime.timezone(
                    datetime.timedelta(minutes=v[1])))
                 if v is not None else None for v in cols[i]],
                pa.timestamp("ms", tz="UTC")))
        elif f.ftype == FT_RASTER:
            names.append(f.name)
            arrays.append(pa.array(
                cols[i],
                pa.int32() if f.raster_managed else pa.binary()))
        else:
            names.append(f.name)
            arrays.append(pa.array(cols[i], _ARROW_TYPES[f.ftype]))
    return pa.table(dict(zip(names, arrays)))


def read_filegdb_local(gdb_path: str, layer: str,
                       geom_col: str = "geometry") -> pa.Table:
    layers = list_layers(gdb_path)
    if layer not in layers:
        raise ValueError(f"no layer {layer!r} in {gdb_path} "
                         f"(have {sorted(layers)})")
    return table_to_arrow(GdbTable(layers[layer]), geom_col)


def layer_srs_wkt(gdb_path: str, layer: str) -> str:
    """ESRI WKT of the layer's geometry field (empty if aspatial)."""
    tbl = GdbTable(list_layers(gdb_path)[layer])
    return tbl.fields[tbl.geom_idx].wkt if tbl.geom_idx >= 0 else ""


def read_filegdb(gdb_path: str, layer: str | None = None,
                 geom_col: str = "geometry"):
    """Ray Dataset over one layer (or the first) — one task per table,
    the per-file shard contract shared with the Shapefile source."""
    import ray.data as rd
    layers = list_layers(gdb_path)
    if layer is None:
        layer = next(iter(layers))
    path = layers[layer]
    ds = rd.from_items([{"path": path}])

    def load(batch: pa.Table) -> pa.Table:
        tabs = [table_to_arrow(GdbTable(p.as_py()), geom_col)
                for p in batch["path"]]
        return pa.concat_tables(tabs)

    return ds.map_batches(load, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# WRITE path (round 5) — a minimal-but-valid V3 .gdb: GDB_SystemCatalog
# (a00000001) + one a%08x.gdbtable/.gdbtablx pair per layer, with the
# same field-descriptor, null-bitmap, varint-geometry and offset-table
# layouts the read path decodes (filegdbtable.cpp roles).  Scope: XY
# Point/MultiPoint/LineString/MultiLineString/Polygon/MultiPolygon
# geometries and int32/int64/float64/string/binary attributes; the
# GDB_Items/.spx/.atx side tables are NOT emitted (our reader and the
# reference's OpenFileGDB catalog fallback list layers from the system
# catalog alone).
# ---------------------------------------------------------------------------


def _wvaruint(v: int) -> bytes:
    out = bytearray()
    v = int(v)
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _wvarint(v: int) -> bytes:
    """Signed varint twin of _varint (6 value bits + sign in byte 0)."""
    v = int(v)
    neg = v < 0
    if neg:
        v = -v
    first = (v & 0x3F) | (0x40 if neg else 0)
    v >>= 6
    out = bytearray()
    if v:
        out.append(first | 0x80)
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    else:
        out.append(first)
    return bytes(out)


def _w_utf16_name(s: str) -> bytes:
    enc = s.encode("utf-16-le")
    return bytes([len(s)]) + enc


class _GdbTableWriter:
    """Accumulates field defs + rows, emits .gdbtable/.gdbtablx."""

    XYSCALE = 1e9  # (xy resolution 1e-9 — the reference default)
    XYORIGIN = -400.0

    def __init__(self, fields: list[tuple], has_geometry: bool,
                 wkt: str = ""):
        # fields: (name, ftype, nullable)
        self.fields = fields
        self.has_geometry = has_geometry
        self.wkt = wkt
        self.rows: list[bytes] = []

    def _field_section(self) -> bytes:
        out = bytearray()
        geom_code = 4 if self.has_geometry else 0
        body = bytearray()
        body += struct.pack("<B", geom_code)   # +8 geometry type
        body += struct.pack("<B", 1)           # +9 utf8 strings
        body += b"\x00"                        # +10
        body += b"\x00"                        # +11 gflags (XY)
        body += struct.pack("<H", len(self.fields))
        for name, ftype, nullable in self.fields:
            body += _w_utf16_name(name)
            body += _w_utf16_name("")          # alias
            body += struct.pack("<B", ftype)
            flags = 1 if nullable else 0
            if ftype == FT_STRING:
                body += struct.pack("<iB", 65536, flags)
                body += _wvaruint(0)           # no default value
            elif ftype in (FT_OBJECTID, FT_BINARY, FT_GUID,
                           FT_GLOBALID, FT_XML):
                body += bytes([4, flags])
            elif ftype == FT_GEOMETRY:
                body += bytes([0, flags])
                wkt16 = self.wkt.encode("utf-16-le")
                body += struct.pack("<H", len(wkt16)) + wkt16
                body += bytes([1])             # origins follow, XY
                body += struct.pack("<3d", self.XYORIGIN,
                                    self.XYORIGIN, self.XYSCALE)
                body += struct.pack("<d", 1e-9)  # xy tolerance
                body += struct.pack("<4d", 0, 0, 0, 0)  # layer bbox
                body += b"\x00"
                body += struct.pack("<I", 0)   # no spatial grids
            else:
                size = {FT_INT16: 2, FT_INT32: 4, FT_FLOAT32: 4,
                        FT_FLOAT64: 8, FT_DATETIME: 8,
                        FT_INT64: 8}.get(ftype, 4)
                body += bytes([size, flags, 0])
        # fdesc_len counts everything after the u32 length word
        fdesc = struct.pack("<II", len(body) + 4, 4) + bytes(body)
        out += fdesc
        return bytes(out)

    def add_row(self, values: list) -> None:
        """values parallel to self.fields (OBJECTID value ignored)."""
        nullable_fields = [f for f in self.fields if f[2]]
        nullmap = bytearray((len(nullable_fields) + 7) // 8)
        body = bytearray()
        inull = 0
        for (name, ftype, nullable), v in zip(self.fields, values):
            if nullable:
                if v is None:
                    nullmap[inull >> 3] |= 1 << (inull & 7)
                    inull += 1
                    continue
                inull += 1
            if ftype == FT_OBJECTID:
                continue
            if v is None:
                raise ValueError(f"null in non-nullable field {name}")
            if ftype == FT_INT16:
                body += struct.pack("<h", int(v))
            elif ftype == FT_INT32:
                body += struct.pack("<i", int(v))
            elif ftype == FT_INT64:
                body += struct.pack("<q", int(v))
            elif ftype == FT_FLOAT32:
                body += struct.pack("<f", float(v))
            elif ftype in (FT_FLOAT64, FT_DATETIME):
                body += struct.pack("<d", float(v))
            elif ftype == FT_STRING:
                enc = str(v).encode("utf-8")
                body += _wvaruint(len(enc)) + enc
            elif ftype in (FT_BINARY, FT_GEOMETRY):
                body += _wvaruint(len(v)) + bytes(v)
            else:
                raise ValueError(f"unwritable field type {ftype}")
        self.rows.append(bytes(nullmap) + bytes(body))

    def geometry_blob(self, wkb: bytes | None) -> bytes | None:
        """ISO WKB → gdbtable varint shape stream (XY subset)."""
        if wkb is None:
            return None
        g = gwkb.parse(wkb)
        sc, org = self.XYSCALE, self.XYORIGIN

        def q(v):
            return int(round((v - org) * sc))

        t = g["type"]
        if t == gwkb.POINT:
            x, y = g["coords"][0]
            return (_wvaruint(SHPT_POINT) + _wvaruint(q(x) + 1)
                    + _wvaruint(q(y) + 1))
        if t == gwkb.MULTIPOINT:
            pts = np.array([p["coords"][0] for p in g["parts"]])
            return self._packed(SHPT_MULTIPOINT, [pts], multipoint=True)
        if t == gwkb.LINESTRING:
            return self._packed(SHPT_ARC, [g["coords"]])
        if t == gwkb.MULTILINESTRING:
            return self._packed(SHPT_ARC,
                                [p["coords"] for p in g["parts"]])
        if t == gwkb.POLYGON:
            return self._packed(SHPT_POLYGON,
                                self._wind_rings(g["rings"]))
        if t == gwkb.MULTIPOLYGON:
            rings = []
            for p in g["parts"]:
                rings.extend(self._wind_rings(p["rings"]))
            return self._packed(SHPT_POLYGON, rings)
        raise ValueError(f"FileGDB write: unsupported geometry {t}")

    @staticmethod
    def _wind_rings(rings: list) -> list:
        # shapefile/gdb convention: CW exteriors, CCW holes — the
        # reader's ONLY_CCW ring organization relies on it
        out = []
        for i, ring in enumerate(rings):
            r = np.asarray(ring, np.float64)
            cw = ring_area(r) < 0
            want_cw = i == 0
            out.append(r if cw == want_cw else r[::-1])
        return out

    def _packed(self, shptype: int, parts: list,
                multipoint: bool = False) -> bytes:
        sc, org = self.XYSCALE, self.XYORIGIN

        def q(v):
            return int(round((v - org) * sc))

        allc = np.vstack(parts)
        npoints = len(allc)
        out = bytearray(_wvaruint(shptype))
        out += _wvaruint(npoints)
        if not multipoint:
            out += _wvaruint(len(parts))
        # integer bbox: xmin, ymin, then extents
        xs = [q(v) for v in allc[:, 0]]
        ys = [q(v) for v in allc[:, 1]]
        out += _wvaruint(min(xs)) + _wvaruint(min(ys))
        out += _wvaruint(max(xs) - min(xs)) + _wvaruint(max(ys) - min(ys))
        if not multipoint:
            for p in parts[:-1]:
                out += _wvaruint(len(p))
        dx = dy = 0
        for x, y in allc:
            qx, qy = q(x), q(y)
            out += _wvarint(qx - dx) + _wvarint(qy - dy)
            dx, dy = qx, qy
        return bytes(out)

    def write(self, path: str) -> None:
        blobs = bytearray()
        header_len = 40
        offsets = []
        pos = 0
        for row in self.rows:
            offsets.append(pos)
            blobs += struct.pack("<I", len(row)) + row
            pos += 4 + len(row)
        fdesc = self._field_section()
        field_off = header_len + len(blobs)
        header = bytearray(40)
        struct.pack_into("<i", header, 0, 3)          # version
        struct.pack_into("<i", header, 4, len(self.rows))
        struct.pack_into("<i", header, 8, 0)
        struct.pack_into("<i", header, 12, 5)          # file marker
        struct.pack_into("<Q", header, 24,
                         header_len + len(blobs) + len(fdesc))
        struct.pack_into("<Q", header, 32, field_off)
        with open(path, "wb") as f:
            f.write(bytes(header) + bytes(blobs) + fdesc)
        # .gdbtablx: dense 1024-entry blocks of 5-byte offsets
        n = len(self.rows)
        blocks = (n + 1023) // 1024
        osz = 5
        tx = bytearray(struct.pack("<iIiI", 3, blocks, n, osz))
        for i in range(blocks * 1024):
            v = header_len + offsets[i] if i < n else 0
            tx += int(v).to_bytes(osz, "little")
        tx += struct.pack("<III", 0, 0, blocks)  # dense trailer
        with open(os.path.splitext(path)[0] + ".gdbtablx", "wb") as f:
            f.write(bytes(tx))


_WRITE_ARROW = {
    "int16": FT_INT16, "int32": FT_INT32, "int64": FT_INT64,
    "float": FT_FLOAT32, "double": FT_FLOAT64, "string": FT_STRING,
    "large_string": FT_STRING, "binary": FT_BINARY,
}


def write_filegdb(ds_or_table, gdb_path: str, layer: str = "layer",
                  wkt: str = "", geom_col: str = "geometry") -> int:
    """Dataset / Arrow table → a new .gdb directory (single writer —
    the format is one catalog file; partition upstream and write one
    .gdb per partition at scale).  Returns the feature count."""
    if hasattr(ds_or_table, "to_arrow_refs"):
        import ray

        tables = [t for t in ray.get(ds_or_table.to_arrow_refs())
                  if t.num_rows]
        table = pa.concat_tables(tables, promote_options="default")
    else:
        table = ds_or_table
    os.makedirs(gdb_path, exist_ok=True)

    # ---- the layer table (fid 5, a00000005) ----
    names = [n for n in table.schema.names if n != geom_col]
    fields = [("OBJECTID", FT_OBJECTID, False)]
    for n in names:
        at = str(table.schema.field(n).type)
        fields.append((n, _WRITE_ARROW.get(at, FT_STRING), True))
    has_geom = geom_col in table.schema.names
    if has_geom:
        fields.append(("SHAPE", FT_GEOMETRY, True))
    tw = _GdbTableWriter(fields, has_geom, wkt)
    cols = {n: table.column(n).to_pylist() for n in names}
    geoms = (table.column(geom_col).to_pylist() if has_geom else None)
    for i in range(table.num_rows):
        vals: list = [None]  # OBJECTID virtual
        for n in names:
            v = cols[n][i]
            ftype = dict((f[0], f[1]) for f in tw.fields)[n]
            if ftype == FT_STRING and v is not None:
                v = str(v)
            vals.append(v)
        if has_geom:
            vals.append(tw.geometry_blob(geoms[i]))
        tw.add_row(vals)
    tw.write(os.path.join(gdb_path, "a00000005.gdbtable"))

    # ---- the system catalog (fid 1) ----
    cat = _GdbTableWriter(
        [("ID", FT_OBJECTID, False), ("Name", FT_STRING, True),
         ("FileFormat", FT_INT32, True)], has_geometry=False)
    for name in ("GDB_SystemCatalog", "GDB_DBTune", "GDB_SpatialRefs",
                 "GDB_Items"):
        cat.add_row([None, name, 0])
    cat.add_row([None, layer, 0])
    cat.write(os.path.join(gdb_path, "a00000001.gdbtable"))
    return table.num_rows
