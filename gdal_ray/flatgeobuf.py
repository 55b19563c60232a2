"""FlatGeobuf reader — from the PUBLIC spec (flatgeobuf.org/spec:
header.fbs / feature.fbs + the packed Hilbert R-tree layout), not the
reference driver (ogr/ogrsf_frmts/flatgeobuf/ is the C++ role model
only; its generated flatbuffers code has no line correspondence here).

File layout (spec):
  magic  8 bytes  66 67 62 03 66 67 62 00  ("fgb", version 3)
  header uint32 LE size + FlatBuffers Header table
  index  (optional) packed Hilbert R-tree: per node 40 bytes =
         4 float64 (minx miny maxx maxy) + uint64 (leaf: byte offset
         of the feature relative to the feature section)
  data   per feature: uint32 LE size + FlatBuffers Feature table

FlatBuffers wire format (public): root uint32 offset → table; table
starts with int32 soffset back to its vtable; vtable = uint16 size,
uint16 table size, uint16 per-field in-table offsets (0 = absent);
strings/vectors/subtables are uint32 forward offsets.

Scale shape: the header + R-tree index are O(features/node_size) and
read once on the driver; leaf nodes carry every feature's byte offset,
so the feature section shards into independent byte ranges that Ray
tasks read in parallel (one ``read_binary_files``-style range per
block). A spatial filter traverses the R-tree driver-side and prunes
to intersecting leaves before any feature bytes move.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

MAGIC = b"fgb\x03fgb\x00"

GEOM_POINT = 1
GEOM_LINESTRING = 2
GEOM_POLYGON = 3
GEOM_MULTIPOINT = 4
GEOM_MULTILINESTRING = 5
GEOM_MULTIPOLYGON = 6
GEOM_COLLECTION = 7

# ColumnType enum (header.fbs)
CT_BYTE, CT_UBYTE, CT_BOOL, CT_SHORT, CT_USHORT, CT_INT, CT_UINT, \
    CT_LONG, CT_ULONG, CT_FLOAT, CT_DOUBLE, CT_STRING, CT_JSON, \
    CT_DATETIME, CT_BINARY = range(15)

_SCALAR_FMT = {
    CT_BYTE: ("b", 1), CT_UBYTE: ("B", 1), CT_BOOL: ("?", 1),
    CT_SHORT: ("h", 2), CT_USHORT: ("H", 2), CT_INT: ("i", 4),
    CT_UINT: ("I", 4), CT_LONG: ("q", 8), CT_ULONG: ("Q", 8),
    CT_FLOAT: ("f", 4), CT_DOUBLE: ("d", 8),
}

_ARROW_TYPE = {
    CT_BYTE: pa.int8(), CT_UBYTE: pa.uint8(), CT_BOOL: pa.bool_(),
    CT_SHORT: pa.int16(), CT_USHORT: pa.uint16(), CT_INT: pa.int32(),
    CT_UINT: pa.uint32(), CT_LONG: pa.int64(), CT_ULONG: pa.uint64(),
    CT_FLOAT: pa.float32(), CT_DOUBLE: pa.float64(),
    CT_STRING: pa.string(), CT_JSON: pa.string(),
    CT_DATETIME: pa.string(), CT_BINARY: pa.binary(),
}


# --------------------------------------------------------------- fb core


class _Tbl:
    """Minimal FlatBuffers table accessor."""

    __slots__ = ("buf", "pos", "vt", "vt_len")

    def __init__(self, buf: bytes, pos: int):
        self.buf = buf
        self.pos = pos
        soff = struct.unpack_from("<i", buf, pos)[0]
        self.vt = pos - soff
        self.vt_len = struct.unpack_from("<H", buf, self.vt)[0]

    def _field(self, idx: int) -> int:
        """→ absolute position of field idx's data, or 0 if absent."""
        vo = 4 + 2 * idx
        if vo >= self.vt_len:
            return 0
        off = struct.unpack_from("<H", buf := self.buf, self.vt + vo)[0]
        del buf
        return self.pos + off if off else 0

    def scalar(self, idx: int, fmt: str, default=0):
        p = self._field(idx)
        if not p:
            return default
        return struct.unpack_from("<" + fmt, self.buf, p)[0]

    def _indirect(self, p: int) -> int:
        return p + struct.unpack_from("<I", self.buf, p)[0]

    def string(self, idx: int) -> str | None:
        p = self._field(idx)
        if not p:
            return None
        sp = self._indirect(p)
        n = struct.unpack_from("<I", self.buf, sp)[0]
        return self.buf[sp + 4 : sp + 4 + n].decode("utf-8")

    def vector(self, idx: int, dtype) -> np.ndarray | None:
        p = self._field(idx)
        if not p:
            return None
        vp = self._indirect(p)
        n = struct.unpack_from("<I", self.buf, vp)[0]
        dt = np.dtype(dtype).newbyteorder("<")
        return np.frombuffer(self.buf, dtype=dt,
                             count=n, offset=vp + 4)

    def table(self, idx: int) -> "_Tbl | None":
        p = self._field(idx)
        if not p:
            return None
        return _Tbl(self.buf, self._indirect(p))

    def table_vector(self, idx: int) -> "list[_Tbl]":
        p = self._field(idx)
        if not p:
            return []
        vp = self._indirect(p)
        n = struct.unpack_from("<I", self.buf, vp)[0]
        out = []
        for i in range(n):
            ep = vp + 4 + 4 * i
            out.append(_Tbl(self.buf, self._indirect(ep)))
        return out


def _root(buf: bytes) -> _Tbl:
    return _Tbl(buf, struct.unpack_from("<I", buf, 0)[0])


# ------------------------------------------------------------- header


@dataclass
class FgbColumn:
    name: str
    type: int


@dataclass
class FgbHeader:
    name: str | None
    envelope: np.ndarray | None
    geometry_type: int
    has_z: bool
    has_m: bool
    columns: list[FgbColumn]
    features_count: int
    index_node_size: int
    crs_org: str | None = None
    crs_code: int = 0
    crs_wkt: str | None = None
    header_end: int = 0          # byte offset where the index starts
    index_size: int = 0          # bytes of the packed R-tree

    @property
    def data_start(self) -> int:
        return self.header_end + self.index_size


def _tree_level_sizes(n_items: int, node_size: int) -> list[int]:
    """Packed-Hilbert-R-tree node counts per level, leaf level first
    (spec's generateLevelBounds)."""
    if n_items == 0:
        return []
    sizes = [n_items]
    n = n_items
    while True:  # spec do-while: even a single feature gets a root level
        n = (n + node_size - 1) // node_size
        sizes.append(n)
        if n == 1:
            break
    return sizes


def packed_rtree_size(n_items: int, node_size: int) -> int:
    return 40 * sum(_tree_level_sizes(n_items, node_size))


def read_header(buf: bytes) -> FgbHeader:
    if buf[:8] != MAGIC:
        raise ValueError("not a FlatGeobuf file (bad magic)")
    hsize = struct.unpack_from("<I", buf, 8)[0]
    h = _root(buf[12 : 12 + hsize])
    cols = [
        FgbColumn(c.string(0) or "", c.scalar(1, "B"))
        for c in h.table_vector(7)
    ]
    feat_count = h.scalar(8, "Q", 0)
    node_size = h.scalar(9, "H", 16)
    crs = h.table(10)
    env = h.vector(1, np.float64)
    hdr = FgbHeader(
        name=h.string(0),
        envelope=env.copy() if env is not None else None,
        geometry_type=h.scalar(2, "B", 0),
        has_z=bool(h.scalar(3, "?", False)),
        has_m=bool(h.scalar(4, "?", False)),
        columns=cols,
        features_count=int(feat_count),
        index_node_size=int(node_size),
        crs_org=crs.string(0) if crs else None,
        crs_code=crs.scalar(1, "i", 0) if crs else 0,
        crs_wkt=crs.string(4) if crs else None,
        header_end=12 + hsize,
    )
    if node_size > 0 and feat_count > 0:
        hdr.index_size = packed_rtree_size(int(feat_count), int(node_size))
    return hdr


def read_index(buf: bytes, hdr: FgbHeader):
    """→ (boxes (n,4) float64, offsets (n,) uint64) of the LEAF nodes
    (one per feature, Hilbert order — offsets relative to data_start)."""
    sizes = _tree_level_sizes(hdr.features_count, hdr.index_node_size)
    if not sizes:
        return np.zeros((0, 4)), np.zeros(0, np.uint64)
    n_upper = sum(sizes[1:])
    start = hdr.header_end + 40 * n_upper
    raw = np.frombuffer(
        buf, dtype=np.dtype("<f8"), count=hdr.features_count * 5,
        offset=start,
    ).reshape(hdr.features_count, 5)
    boxes = raw[:, :4].copy()
    offsets = raw[:, 4:].copy().view(np.uint64).reshape(-1)
    return boxes, offsets


# ------------------------------------------------------------ geometry


def _geom_to_wkb(g: _Tbl | None, gtype: int) -> bytes | None:
    """FlatGeobuf Geometry table → little-endian 2-D WKB."""
    from gdal_ray.geom import wkb as W

    if g is None:
        return None
    t = g.scalar(6, "B", 0) or gtype
    if t == GEOM_COLLECTION:
        parts = [
            _geom_to_wkb(p, p.scalar(6, "B", 0)) for p in g.table_vector(7)
        ]
        return W.geometrycollection_wkb([p for p in parts if p])
    if t == GEOM_MULTIPOLYGON:
        parts = g.table_vector(7)
        if parts:
            polys = []
            for p in parts:
                rings = _rings(p)
                polys.append((rings[0], rings[1:]))
            return W.multipolygon_wkb(polys)
        rings = _rings(g)
        return W.multipolygon_wkb([(rings[0], rings[1:])])
    xy = g.vector(1, np.float64)
    if xy is None:
        return None
    pts = xy.reshape(-1, 2)
    if t == GEOM_POINT:
        return W.point_wkb(float(pts[0, 0]), float(pts[0, 1]))
    if t == GEOM_LINESTRING:
        return W.linestring_wkb(pts)
    if t == GEOM_POLYGON:
        rings = _rings(g)
        return W.polygon_wkb(rings[0], rings[1:])
    if t == GEOM_MULTIPOINT:
        return _multipoint_wkb(pts)
    if t == GEOM_MULTILINESTRING:
        ends = g.vector(0, np.uint32)
        chains = _split_by_ends(pts, ends)
        return _multilinestring_wkb(chains)
    raise NotImplementedError(f"FlatGeobuf geometry type {t}")


def _split_by_ends(pts: np.ndarray, ends) -> list[np.ndarray]:
    if ends is None or len(ends) == 0:
        return [pts]
    out = []
    start = 0
    for e in ends:
        out.append(pts[start : int(e)])
        start = int(e)
    return out


def _rings(g: _Tbl) -> list[np.ndarray]:
    xy = g.vector(1, np.float64).reshape(-1, 2)
    return _split_by_ends(xy, g.vector(0, np.uint32))


def _multipoint_wkb(pts: np.ndarray) -> bytes:
    out = bytearray(struct.pack("<BII", 1, 4, len(pts)))
    for x, y in pts:
        out += struct.pack("<BIdd", 1, 1, x, y)
    return bytes(out)


def _multilinestring_wkb(chains: list[np.ndarray]) -> bytes:
    from gdal_ray.geom import wkb as W

    out = bytearray(struct.pack("<BII", 1, 5, len(chains)))
    for c in chains:
        out += W.linestring_wkb(c)
    return bytes(out)


# ----------------------------------------------------------- properties


def _decode_properties(props: bytes, columns: list[FgbColumn]) -> dict:
    out: dict = {}
    pos = 0
    n = len(props)
    while pos + 2 <= n:
        ci = struct.unpack_from("<H", props, pos)[0]
        pos += 2
        col = columns[ci]
        if col.type in _SCALAR_FMT:
            fmt, w = _SCALAR_FMT[col.type]
            out[col.name] = struct.unpack_from("<" + fmt, props, pos)[0]
            pos += w
        else:  # String/Json/DateTime/Binary: uint32 len + bytes
            ln = struct.unpack_from("<I", props, pos)[0]
            pos += 4
            raw = props[pos : pos + ln]
            pos += ln
            out[col.name] = (
                raw if col.type == CT_BINARY else raw.decode("utf-8")
            )
    return out


def parse_feature(buf: bytes, pos: int, hdr: FgbHeader):
    """→ (row dict incl. 'geometry' WKB, next position)."""
    size = struct.unpack_from("<I", buf, pos)[0]
    fbuf = buf[pos + 4 : pos + 4 + size]
    f = _root(fbuf)
    row: dict = {}
    props_vec = f.vector(1, np.uint8)
    cols = f.table_vector(2)
    columns = (
        [FgbColumn(c.string(0) or "", c.scalar(1, "B")) for c in cols]
        if cols else hdr.columns
    )
    if props_vec is not None and len(props_vec):
        row.update(_decode_properties(props_vec.tobytes(), columns))
    row["geometry"] = _geom_to_wkb(f.table(0), hdr.geometry_type)
    return row, pos + 4 + size


# ------------------------------------------------------------- dataset


def _schema_fields(hdr: FgbHeader) -> list[pa.Field]:
    fields = [pa.field(c.name, _ARROW_TYPE[c.type]) for c in hdr.columns]
    fields.append(pa.field("geometry", pa.binary()))
    return fields


def read_flatgeobuf(
    path: str,
    bbox: tuple[float, float, float, float] | None = None,
    rows_per_block: int = 4096,
):
    """FlatGeobuf → Ray Dataset of (attributes…, geometry WKB).

    The driver touches only the header + R-tree index (O(features /
    node_size) bytes); feature BYTES never land on the driver for
    plain files — each task opens the file and ``seek``-reads its own
    offset list (the OS page cache coalesces). With an index the leaf
    offsets shard the feature section directly and a ``bbox`` prunes
    via the leaf envelopes before any feature bytes move (the spatial
    -filter pushdown role, ogrflatgeobuflayer.cpp). Without an index,
    offsets come from one cheap size-prefix walk (4 bytes per feature
    read sequentially — no parsing), then the same sharded load runs.
    VSI paths (in-memory/archive) are broadcast once via ``ray.put``.
    """
    import ray
    import ray.data as rd

    from gdal_ray.vsi import is_vsi, vsi_read_bytes

    vsi_path = is_vsi(path)
    if vsi_path:
        buf = vsi_read_bytes(path)
        head = buf
    else:
        with open(path, "rb") as f:
            head = f.read(12)
            hsize = struct.unpack_from("<I", head, 8)[0]
            f.seek(0)
            head = f.read(12 + hsize)
    hdr = read_header(head if not vsi_path else buf)
    schema = pa.schema(_schema_fields(hdr))

    if hdr.index_size and hdr.features_count:
        if vsi_path:
            idx_bytes = buf
        else:
            with open(path, "rb") as f:
                f.seek(0)
                idx_bytes = f.read(hdr.header_end + hdr.index_size)
        boxes, offsets = read_index(idx_bytes, hdr)
        keep = np.arange(hdr.features_count)
        if bbox is not None:
            minx, miny, maxx, maxy = bbox
            m = ~(
                (boxes[:, 2] < minx) | (boxes[:, 0] > maxx)
                | (boxes[:, 3] < miny) | (boxes[:, 1] > maxy)
            )
            keep = keep[m]
        offs = np.sort(offsets[keep].astype(np.int64)) + hdr.data_start
    else:
        # size-prefix walk: offsets without parsing any feature
        offs_list = []
        if vsi_path:
            pos = hdr.data_start
            n = len(buf)
            while pos + 4 <= n:
                offs_list.append(pos)
                (sz,) = struct.unpack_from("<I", buf, pos)
                pos += 4 + sz
        else:
            with open(path, "rb") as f:
                f.seek(0, 2)
                n = f.tell()
                pos = hdr.data_start
                while pos + 4 <= n:
                    offs_list.append(pos)
                    f.seek(pos)
                    (sz,) = struct.unpack("<I", f.read(4))
                    pos += 4 + sz
        offs = np.array(offs_list, np.int64)

    if len(offs) == 0:
        return rd.from_arrow(schema.empty_table())

    buf_ref = ray.put(buf) if vsi_path else None

    def load(batch: pa.Table) -> pa.Table:
        rows = []
        if buf_ref is not None:
            data = ray.get(buf_ref)
            for p in batch["pos"].to_pylist():
                row, _ = parse_feature(data, int(p), hdr)
                rows.append(row)
        else:
            with open(path, "rb") as f:
                for p in batch["pos"].to_pylist():
                    f.seek(int(p))
                    (sz,) = struct.unpack("<I", f.read(4))
                    fbuf = struct.pack("<I", sz) + f.read(sz)
                    row, _ = parse_feature(fbuf, 0, hdr)
                    rows.append(row)
        return pa.Table.from_pylist(rows, schema=schema)

    pos_ds = rd.from_arrow(pa.table({"pos": pa.array(offs)}))
    if len(offs) > rows_per_block:
        pos_ds = pos_ds.repartition(max(1, len(offs) // rows_per_block))
    return pos_ds.map_batches(load, batch_format="pyarrow")


# ------------------------------------------------------------- writer
# Minimal back-to-front FlatBuffers builder (the standard algorithm:
# objects prepend, positions are distances from the buffer end, a u32
# reference = field_end_distance − target_end_distance). Only what the
# FlatGeobuf tables need: scalar fields, strings, scalar vectors,
# table fields and vectors of tables.


class FBBuilder:
    def __init__(self):
        self.buf = bytearray()   # grows at the FRONT (prepend)
        self.minalign = 4

    def _prepend(self, b: bytes):
        self.buf[:0] = b

    def _align(self, size: int, extra: int = 0):
        self.minalign = max(self.minalign, size)
        while (len(self.buf) + extra) % size:
            self._prepend(b"\0")

    @property
    def pos(self) -> int:
        return len(self.buf)

    def string(self, s: str) -> int:
        raw = s.encode("utf-8") + b"\0"
        self._align(4, 4 + len(raw))
        self._prepend(struct.pack("<I", len(raw) - 1) + raw)
        return self.pos

    def vector_scalar(self, arr: np.ndarray) -> int:
        data = np.ascontiguousarray(arr).astype(
            arr.dtype.newbyteorder("<"), copy=False).tobytes()
        self._align(max(4, arr.dtype.itemsize), 4 + len(data))
        self._prepend(struct.pack("<I", len(arr)) + data)
        return self.pos

    def vector_offsets(self, positions: list[int]) -> int:
        self._align(4, 4 + 4 * len(positions))
        body = bytearray(struct.pack("<I", len(positions)))
        base = self.pos + 4 + 4 * len(positions)
        for i, p in enumerate(positions):
            field_pos = base - 4 - 4 * i
            body += struct.pack("<I", field_pos - p)
        self._prepend(bytes(body))
        return self.pos

    def table(self, fields: dict[int, tuple]) -> int:
        """fields: idx → ("u8"|"u16"|"u32"|"u64"|"i32"|"f64"|"bool",
        value) for scalars, or ("ref", position) for
        strings/vectors/subtables. Returns the table position."""
        fmts = {"u8": ("B", 1), "bool": ("?", 1), "u16": ("H", 2),
                "u32": ("I", 4), "i32": ("i", 4), "u64": ("Q", 8),
                "f64": ("d", 8)}
        # lay out fields after the 4-byte soffset, biggest first for
        # tight alignment
        order = sorted(
            fields,
            key=lambda i: -(4 if fields[i][0] == "ref"
                            else fmts[fields[i][0]][1]),
        )
        off = 4
        slots: dict[int, int] = {}
        for i in order:
            kind = fields[i][0]
            size = 4 if kind == "ref" else fmts[kind][1]
            off = (off + size - 1) // size * size
            slots[i] = off
            off += size
        tbl_size = off
        n_slots = (max(fields) + 1) if fields else 0
        vt_size = 4 + 2 * n_slots
        # prepend table body (fields filled below), then vtable BELOW
        # it in prepend order → vtable at lower final address,
        # soffset = table_addr − vtable_addr = vt_size > 0
        self._align(8, tbl_size)          # largest scalar alignment
        body = bytearray(tbl_size)
        table_pos_after = self.pos + tbl_size   # position of table start
        for i, (kind, val) in fields.items():
            o = slots[i]
            if kind == "ref":
                field_pos = table_pos_after - o
                struct.pack_into("<I", body, o, field_pos - val)
            else:
                struct.pack_into("<" + fmts[kind][0], body, o, val)
        struct.pack_into("<i", body, 0, vt_size)
        self._prepend(bytes(body))
        tpos = self.pos
        vt = bytearray(struct.pack("<HH", vt_size, tbl_size))
        for i in range(n_slots):
            vt += struct.pack("<H", slots.get(i, 0))
        self._prepend(bytes(vt))
        return tpos

    def finish(self, root_pos: int) -> bytes:
        self._align(self.minalign, 4)
        self._prepend(struct.pack("<I", self.pos + 4 - root_pos))
        return bytes(self.buf)


_CT_OF_ARROW = {
    pa.int8(): CT_BYTE, pa.uint8(): CT_UBYTE, pa.bool_(): CT_BOOL,
    pa.int16(): CT_SHORT, pa.uint16(): CT_USHORT, pa.int32(): CT_INT,
    pa.uint32(): CT_UINT, pa.int64(): CT_LONG, pa.uint64(): CT_ULONG,
    pa.float32(): CT_FLOAT, pa.float64(): CT_DOUBLE,
    pa.string(): CT_STRING, pa.binary(): CT_BINARY,
}


def _build_geometry(b: FBBuilder, wkb_buf: bytes) -> tuple[int, int]:
    """WKB → (Geometry table position, FlatGeobuf geometry type)."""
    from gdal_ray.geom import wkb as W

    g = W.parse(wkb_buf)
    t = g["type"]
    if t == W.POINT:
        xy = b.vector_scalar(np.asarray(g["coords"],
                                        np.float64).reshape(-1))
        return b.table({1: ("ref", xy), 6: ("u8", GEOM_POINT)}), GEOM_POINT
    if t == W.LINESTRING:
        xy = b.vector_scalar(np.asarray(g["coords"],
                                        np.float64).reshape(-1))
        return (b.table({1: ("ref", xy), 6: ("u8", GEOM_LINESTRING)}),
                GEOM_LINESTRING)
    if t == W.POLYGON:
        rings = g["rings"]
        flat = np.vstack(rings).astype(np.float64).reshape(-1)
        fields: dict[int, tuple] = {6: ("u8", GEOM_POLYGON)}
        if len(rings) > 1:
            ends = np.cumsum([len(r) for r in rings]).astype(np.uint32)
            fields[0] = ("ref", b.vector_scalar(ends))
        fields[1] = ("ref", b.vector_scalar(flat))
        return b.table(fields), GEOM_POLYGON
    if t == W.MULTIPOLYGON:
        parts = []
        for part in g["parts"]:
            rings = part["rings"]
            flat = np.vstack(rings).astype(np.float64).reshape(-1)
            f: dict[int, tuple] = {6: ("u8", GEOM_POLYGON)}
            if len(rings) > 1:
                ends = np.cumsum([len(r) for r in rings]).astype(
                    np.uint32)
                f[0] = ("ref", b.vector_scalar(ends))
            f[1] = ("ref", b.vector_scalar(flat))
            parts.append(b.table(f))
        pv = b.vector_offsets(parts)
        return (b.table({6: ("u8", GEOM_MULTIPOLYGON), 7: ("ref", pv)}),
                GEOM_MULTIPOLYGON)
    if t == W.MULTILINESTRING:
        chains = [p["coords"] for p in g["parts"]]
        flat = np.vstack(chains).astype(np.float64).reshape(-1)
        ends = np.cumsum([len(c) for c in chains]).astype(np.uint32)
        return (b.table({
            0: ("ref", b.vector_scalar(ends)),
            1: ("ref", b.vector_scalar(flat)),
            6: ("u8", GEOM_MULTILINESTRING),
        }), GEOM_MULTILINESTRING)
    if t == W.MULTIPOINT:
        pts = np.vstack([p["coords"] for p in g["parts"]]).astype(
            np.float64)
        return (b.table({
            1: ("ref", b.vector_scalar(pts.reshape(-1))),
            6: ("u8", GEOM_MULTIPOINT),
        }), GEOM_MULTIPOINT)
    raise NotImplementedError(f"FlatGeobuf write: geometry type {t}")


def _encode_properties(row: dict, columns: list[FgbColumn]) -> bytes:
    out = bytearray()
    for ci, col in enumerate(columns):
        v = row.get(col.name)
        if v is None:
            continue
        out += struct.pack("<H", ci)
        if col.type in _SCALAR_FMT:
            fmt, _ = _SCALAR_FMT[col.type]
            out += struct.pack("<" + fmt, v)
        elif col.type == CT_BINARY:
            out += struct.pack("<I", len(v)) + bytes(v)
        else:
            raw = str(v).encode("utf-8")
            out += struct.pack("<I", len(raw)) + raw
    return bytes(out)


def hilbert_sort_order(boxes: np.ndarray,
                       extent: np.ndarray) -> np.ndarray:
    """Feature order of the spec's packed Hilbert R-tree: 16-bit
    Hilbert code of each bbox CENTER scaled over the layer extent with
    hilbertMax = 2^16-1 and plain floor (flatgeobuf packedrtree
    hilbertSort — same public-domain bit-twiddle curve as
    geom.ops._hilbert_xy, different scaling than GDAL's
    alg/hilbert.cpp round-and-reserve variant). The spec
    implementation's comparator is DESCENDING (``ha > hb``) —
    pinned against the leaf order of the reference-generated
    testfgb/poly.fgb fixture."""
    from gdal_ray.geom.ops import _hilbert_xy

    hmax = (1 << 16) - 1
    w = extent[2] - extent[0]
    h = extent[3] - extent[1]
    cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
    cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
    xi = (np.floor(hmax * (cx - extent[0]) / w).astype(np.uint32)
          if w > 0 else np.zeros(len(boxes), np.uint32))
    yi = (np.floor(hmax * (cy - extent[1]) / h).astype(np.uint32)
          if h > 0 else np.zeros(len(boxes), np.uint32))
    return np.argsort(-_hilbert_xy(xi, yi).astype(np.int64),
                      kind="stable")


def build_packed_rtree(boxes: np.ndarray, feat_offsets: np.ndarray,
                       node_size: int) -> bytes:
    """(n,4) leaf boxes in Hilbert order + feature byte offsets →
    packed-R-tree bytes (spec generateNodes): flat node array, root
    first, leaves last; internal node offset = flat index of its first
    child node, leaf offset = feature byte offset from data start."""
    n = len(boxes)
    sizes = _tree_level_sizes(n, node_size)
    num_nodes = sum(sizes)
    level_starts = []          # flat start index per level, leaf first
    acc = num_nodes
    for s in sizes:
        acc -= s
        level_starts.append(acc)
    data = np.zeros((num_nodes, 5), dtype="<f8")
    off_view = data[:, 4].view(np.uint64)
    leaf0 = level_starts[0]
    data[leaf0:leaf0 + n, :4] = boxes
    off_view[leaf0:leaf0 + n] = feat_offsets.astype(np.uint64)
    for li in range(len(sizes) - 1):
        start, end = level_starts[li], level_starts[li] + sizes[li]
        wpos = level_starts[li + 1]
        pos = start
        while pos < end:
            chunk = data[pos:min(pos + node_size, end), :4]
            data[wpos, 0] = chunk[:, 0].min()
            data[wpos, 1] = chunk[:, 1].min()
            data[wpos, 2] = chunk[:, 2].max()
            data[wpos, 3] = chunk[:, 3].max()
            off_view[wpos] = pos
            wpos += 1
            pos += node_size
    return data.tobytes()


def write_flatgeobuf(table: pa.Table, path: str, name: str = "layer",
                     geom_col: str = "geometry",
                     crs_code: int = 0,
                     index_node_size: int = 0) -> None:
    """Arrow table (attributes + WKB geometry) → FlatGeobuf.

    ``index_node_size=0`` (default) is the spec's streamed indexless
    layout. ``index_node_size>0`` (16 = spec default) Hilbert-sorts the
    features and embeds the packed R-tree so any spec reader — ours
    included — gets bbox pushdown; requires every row to carry a
    geometry (the spec's node array has exactly one leaf per feature).
    """
    from gdal_ray.geom import wkb as W

    columns = [
        FgbColumn(f.name, _CT_OF_ARROW[f.type])
        for f in table.schema if f.name != geom_col
    ]
    rows = table.to_pylist()
    geoms = [row[geom_col] for row in rows]
    if index_node_size and any(g is None for g in geoms):
        raise ValueError("indexed FlatGeobuf requires non-null "
                         "geometry on every feature")
    gtypes = set()
    env = [np.inf, np.inf, -np.inf, -np.inf]
    boxes = np.zeros((len(rows), 4), np.float64)
    for i, gbuf in enumerate(geoms):
        if gbuf is not None:
            boxes[i] = W.bounds(gbuf)
            env[0] = min(env[0], boxes[i, 0])
            env[1] = min(env[1], boxes[i, 1])
            env[2] = max(env[2], boxes[i, 2])
            env[3] = max(env[3], boxes[i, 3])
    if index_node_size and len(rows):
        order = hilbert_sort_order(boxes, np.array(env))
        rows = [rows[i] for i in order]
        boxes = boxes[order]
    out = bytearray(MAGIC)
    # header
    hb = FBBuilder()
    col_pos = []
    for c in columns:
        npos = hb.string(c.name)
        col_pos.append(hb.table({0: ("ref", npos), 1: ("u8", c.type)}))
    cols_vec = hb.vector_offsets(col_pos) if col_pos else None
    for g in geoms:
        if g is not None:
            gtypes.add(W.geometry_type(g) % 1000)
    gtype = gtypes.pop() if len(gtypes) == 1 else 0
    hfields: dict[int, tuple] = {
        2: ("u8", gtype),
        8: ("u64", len(rows)),
        9: ("u16", index_node_size if len(rows) else 0),
    }
    hfields[0] = ("ref", hb.string(name))
    if np.isfinite(env[0]):
        hfields[1] = ("ref", hb.vector_scalar(np.array(env, np.float64)))
    if cols_vec is not None:
        hfields[7] = ("ref", cols_vec)
    if crs_code:
        org = hb.string("EPSG")
        hfields[10] = ("ref", hb.table({0: ("ref", org),
                                        1: ("i32", crs_code)}))
    hdr_bytes = hb.finish(hb.table(hfields))
    out += struct.pack("<I", len(hdr_bytes)) + hdr_bytes
    # features (serialized first so the index knows each byte offset)
    feat_bufs = []
    feat_offsets = np.zeros(len(rows), np.int64)
    pos = 0
    for i, row in enumerate(rows):
        fb = FBBuilder()
        ffields: dict[int, tuple] = {}
        props = _encode_properties(row, columns)
        if props:
            ffields[1] = ("ref", fb.vector_scalar(
                np.frombuffer(props, np.uint8)))
        if row[geom_col] is not None:
            gpos, _ = _build_geometry(fb, row[geom_col])
            ffields[0] = ("ref", gpos)
        fbytes = fb.finish(fb.table(ffields))
        feat_bufs.append(struct.pack("<I", len(fbytes)) + fbytes)
        feat_offsets[i] = pos
        pos += len(feat_bufs[-1])
    if index_node_size and len(rows):
        out += build_packed_rtree(boxes, feat_offsets, index_node_size)
    for fb_ in feat_bufs:
        out += fb_
    from gdal_ray.vsi import is_vsi, vsi_open

    if is_vsi(path):
        with vsi_open(path, "wb") as f:
            f.write(bytes(out))
    else:
        with open(path + ".tmp", "wb") as f:
            f.write(bytes(out))
        os.replace(path + ".tmp", path)


def write_flatgeobuf_dataset(ds, path: str) -> None:
    write_flatgeobuf(pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow", batch_size=None)), path)

