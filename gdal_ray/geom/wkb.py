"""The one WKB codec: every WKB byte the engine reads or writes is
laid out here (ogr/ogr_wkb.cpp role).

Writes little-endian ISO WKB (ogr/ogrgeometryfactory.cpp): Point,
LineString and Polygon from coordinate arrays, every container type
(Multi*, GeometryCollection, CompoundCurve, CurvePolygon, MultiCurve,
MultiSurface, PolyhedralSurface, TIN) from its parts through
``collection_wkb``, with XY / Z / M / ZM dims as ISO type offsets
(1000 = Z, 2000 = M, 3000 = ZM). ``to_ewkb`` writes the PostGIS EWKB
dialect (Z flag bit, SRID after the type code) that PGDump emits.

``parse`` reads either byte order, ISO offsets and EWKB flag bits
with or without an SRID.

Hot paths (per-page points) are fully vectorized: a batch of N points
encodes as one (N, 21) uint8 matrix; decoding slices fixed offsets.
Polygon parsing is per-geometry Python (used only on small broadcast
sides — admin boundaries — never in the per-page hot path).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

POINT = 1
LINESTRING = 2
POLYGON = 3
MULTIPOINT = 4
MULTILINESTRING = 5
MULTIPOLYGON = 6
GEOMETRYCOLLECTION = 7
# ISO SQL/MM curve types (ogr/ogr_core.h:422-512)
CIRCULARSTRING = 8
COMPOUNDCURVE = 9
CURVEPOLYGON = 10
MULTICURVE = 11
MULTISURFACE = 12
# ISO surface containers (ogr/ogr_core.h:513-524)
POLYHEDRALSURFACE = 15
TIN = 16

_EWKB_Z = 0x80000000
_EWKB_M = 0x40000000
_EWKB_SRID = 0x20000000


def _decode_type(gtype: int) -> tuple[int, bool, bool]:
    """WKB type code → (base, has_z, has_m).  Handles ISO offsets
    (1000=Z, 2000=M, 3000=ZM — ogr/ogr_core.h wkbPointZM etc.) and
    PostGIS EWKB flag bits."""
    has_z = bool(gtype & _EWKB_Z)
    has_m = bool(gtype & _EWKB_M)
    base = gtype & ~(_EWKB_Z | _EWKB_M | _EWKB_SRID)
    k, base = divmod(base, 1000)
    if k == 1:
        has_z = True
    elif k == 2:
        has_m = True
    elif k == 3:
        has_z = has_m = True
    return base, has_z, has_m


def _iso_code(base: int, dims: str) -> int:
    return base + 1000 * int("z" in dims) + 2000 * int("m" in dims)


def to_ewkb(buf: bytes, srid: int = 0, z: bool = False) -> bytes:
    """ISO WKB → little-endian PostGIS EWKB. The output has Z exactly
    when ``z``: the Z flag bit is set and a geometry without Z gets
    Z = 0 (GDAL's DIM=3); M is dropped. An ``srid`` > 0 sets the SRID
    flag and follows the outer type code (parts carry no SRID)."""
    return _ewkb(parse(buf), srid, z)


def _ewkb(g: dict, srid: int, z: bool) -> bytes:
    etype = g["type"] | (_EWKB_Z if z else 0) | (_EWKB_SRID if srid > 0
                                                 else 0)
    out = [struct.pack("<BI", 1, etype)]
    if srid > 0:
        out.append(struct.pack("<i", srid))

    def coords(xy, zs) -> bytes:
        if z:
            xy = np.column_stack([xy, np.zeros(len(xy)) if zs is None
                                  else zs])
        return np.ascontiguousarray(xy, "<f8").tobytes()

    if "parts" in g:
        out.append(struct.pack("<I", len(g["parts"])))
        out += [_ewkb(p, 0, z) for p in g["parts"]]
    elif "rings" in g:
        out.append(struct.pack("<I", len(g["rings"])))
        for i, r in enumerate(g["rings"]):
            out.append(struct.pack("<I", len(r)) + coords(
                r, g["rings_z"][i] if "rings_z" in g else None))
    else:
        if g["type"] != POINT:
            out.append(struct.pack("<I", len(g["coords"])))
        out.append(coords(g["coords"], g.get("z")))
    return b"".join(out)


_POINT_SIZE = 21  # 1 + 4 + 16

OGC_WKB_METADATA = {b"ARROW:extension:name": b"ogc.wkb"}


def wkb_field(name: str = "geometry") -> pa.Field:
    """Arrow field carrying GDAL's geometry metadata convention."""
    return pa.field(name, pa.binary(), metadata=OGC_WKB_METADATA)


# ---------------------------------------------------------------------------
# points (vectorized)


def encode_points(lon, lat) -> pa.Array:
    """N (lon, lat) pairs → Arrow binary array of WKB Points.

    One (N, 21) uint8 matrix, no per-row Python. NaN coordinates
    produce a null entry (GDAL: empty geometry field).
    """
    lon = np.ascontiguousarray(lon, dtype=np.float64)
    lat = np.ascontiguousarray(lat, dtype=np.float64)
    n = len(lon)
    buf = np.empty((n, _POINT_SIZE), dtype=np.uint8)
    buf[:, 0] = 1  # little endian
    buf[:, 1:5] = np.frombuffer(
        struct.pack("<I", POINT), dtype=np.uint8
    )  # broadcast type
    buf[:, 5:13] = lon.view(np.uint8).reshape(n, 8)
    buf[:, 13:21] = lat.view(np.uint8).reshape(n, 8)
    valid = np.isfinite(lon) & np.isfinite(lat)
    flat = buf.reshape(-1)
    offsets = np.arange(0, (n + 1) * _POINT_SIZE, _POINT_SIZE, dtype=np.int32)
    arr = pa.Array.from_buffers(
        pa.binary(),
        n,
        [
            pa.py_buffer(np.packbits(valid, bitorder="little").tobytes()),
            pa.py_buffer(offsets.tobytes()),
            pa.py_buffer(flat.tobytes()),
        ],
        null_count=int((~valid).sum()),
    )
    return arr


def decode_points(wkb: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Arrow binary array of WKB Points → (lon, lat) float64 arrays.

    Fast path: uniform 21-byte little-endian points decode as one
    strided view. Mixed input falls back to per-row parsing.
    Null/invalid rows → NaN.
    """
    if isinstance(wkb, pa.ChunkedArray):
        wkb = wkb.combine_chunks()
    n = len(wkb)
    lon = np.full(n, np.nan)
    lat = np.full(n, np.nan)
    vals = wkb.to_pylist()  # fallback-general; fast path below when uniform
    lens = np.array([len(v) if v is not None else 0 for v in vals])
    uniform = (lens == _POINT_SIZE).all() if n else True
    if uniform and n:
        raw = np.frombuffer(b"".join(vals), dtype=np.uint8).reshape(n, _POINT_SIZE)
        le = raw[:, 0] == 1
        lon_all = raw[:, 5:13].copy().view(np.float64).ravel()
        lat_all = raw[:, 13:21].copy().view(np.float64).ravel()
        lon = np.where(le, lon_all, lon_all.byteswap())
        lat = np.where(le, lat_all, lat_all.byteswap())
        return lon, lat
    for i, v in enumerate(vals):
        if v is None:
            continue
        g = parse(v)
        if g["type"] == POINT:
            lon[i], lat[i] = g["coords"][0]
    return lon, lat


# ---------------------------------------------------------------------------
# scalar builders (small sides, fixtures)


def _ring_bytes(coords: np.ndarray) -> bytes:
    coords = np.asarray(coords, dtype=np.float64)
    return struct.pack("<I", len(coords)) + coords.tobytes()


def polygon_wkb(exterior, holes: list | None = None) -> bytes:
    """Rings are (n,2) arrays; exterior must be closed (first==last)."""
    rings = [np.asarray(exterior, dtype=np.float64)] + [
        np.asarray(h, dtype=np.float64) for h in (holes or [])
    ]
    out = struct.pack("<BII", 1, POLYGON, len(rings))
    for r in rings:
        out += _ring_bytes(r)
    return out


def box_polygon_wkb(minx: float, miny: float, maxx: float, maxy: float) -> bytes:
    """Axis-aligned box as a closed CCW polygon (FIXTURES.md §3)."""
    ring = np.array(
        [
            [minx, miny],
            [maxx, miny],
            [maxx, maxy],
            [minx, maxy],
            [minx, miny],
        ]
    )
    return polygon_wkb(ring)


def linestring_wkb(coords) -> bytes:
    coords = np.asarray(coords, dtype=np.float64)
    return struct.pack("<BI", 1, LINESTRING) + _ring_bytes(coords)


def point_wkb(lon: float, lat: float) -> bytes:
    return struct.pack("<BIdd", 1, POINT, lon, lat)


def closed_line_to_polygon(buf: bytes) -> bytes | None:
    """A little-endian 2-D LineString whose first and last points are
    equal and that has at least 4 points → the one-ring Polygon of the
    same points (a header splice, no coordinate copy); None for any
    other line."""
    npts = int.from_bytes(buf[5:9], "little")
    if npts < 4 or buf[9:25] != buf[-16:]:
        return None
    return struct.pack("<BII", 1, POLYGON, 1) + buf[5:]


def multipolygon_wkb(polys: list) -> bytes:
    """polys: list of (exterior, holes) tuples or exterior arrays."""
    parts = []
    for p in polys:
        if isinstance(p, tuple):
            parts.append(polygon_wkb(p[0], p[1]))
        else:
            parts.append(polygon_wkb(p))
    return collection_wkb(MULTIPOLYGON, parts)


def collection_wkb(code: int, parts: list[bytes], dims: str = "xy") -> bytes:
    """Container of ISO base type ``code`` (Multi*, GeometryCollection,
    CompoundCurve, CurvePolygon, MultiCurve, MultiSurface,
    PolyhedralSurface, TIN) over full WKB ``parts``; ``parts=[]`` is
    the empty form (``MULTIPOINT EMPTY``). Parts are not checked
    against the container: a CompoundCurve's segments must share
    endpoints and a CurvePolygon's rings must close, as in OGR's
    lazily validated constructors."""
    return (struct.pack("<BII", 1, _iso_code(code, dims), len(parts))
            + b"".join(parts))


# --- dims-aware builders (Z / M / ZM and ISO curve types) --------------


def _full_coords(coords, dims: str) -> np.ndarray:
    c = np.asarray(coords, dtype=np.float64)
    if c.ndim == 1:
        c = c.reshape(1, -1)
    if c.shape[1] != len(dims):
        raise ValueError(f"coords width {c.shape[1]} != dims {dims!r}")
    return c


def point_wkb_d(coords, dims: str = "xy") -> bytes:
    c = _full_coords(coords, dims)
    return struct.pack("<BI", 1, _iso_code(POINT, dims)) + c.tobytes()


def linestring_wkb_d(coords, dims: str = "xy") -> bytes:
    c = _full_coords(coords, dims)
    return (struct.pack("<BII", 1, _iso_code(LINESTRING, dims), len(c))
            + c.tobytes())


def circularstring_wkb(coords, dims: str = "xy") -> bytes:
    """ISO CircularString: odd point count >= 3; consecutive point
    triplets define arcs (ogr/ogr_geometry.h OGRCircularString)."""
    c = _full_coords(coords, dims)
    if len(c) < 3 or len(c) % 2 == 0:
        raise ValueError("CircularString needs an odd point count >= 3")
    return (struct.pack("<BII", 1, _iso_code(CIRCULARSTRING, dims), len(c))
            + c.tobytes())


def polygon_wkb_d(rings: list, dims: str = "xy") -> bytes:
    out = struct.pack("<BII", 1, _iso_code(POLYGON, dims), len(rings))
    for r in rings:
        c = _full_coords(r, dims)
        out += struct.pack("<I", len(c)) + c.tobytes()
    return out


# ---------------------------------------------------------------------------
# generic parser (python; small sides only)


def parse(buf: bytes, offset: int = 0) -> dict:
    """Parse one WKB geometry → dict with keys:

    - ``type``: geometry type code (2-D base type; curve types 8-12
      parse natively — linearize with geom.curves.linearize)
    - ``dims``: "xy" / "xyz" / "xym" / "xyzm"
    - ``coords``: (n,2) array (point/linestring/circularstring)
    - ``z`` / ``m``: (n,) arrays when the dims carry them
    - ``rings``: list of (n,2) arrays (polygon); ``rings_z`` /
      ``rings_m`` parallel lists when present
    - ``parts``: list of parsed children (multi*/collection/compound
      curve/curve polygon)
    - ``end``: offset just past this geometry
    """
    bo = "<" if buf[offset] == 1 else ">"
    (gtype,) = struct.unpack_from(bo + "I", buf, offset + 1)
    base, has_z, has_m = _decode_type(gtype)
    dim = 2 + has_z + has_m
    dims = "xy" + ("z" if has_z else "") + ("m" if has_m else "")
    pos = offset + 5 + (4 if gtype & _EWKB_SRID else 0)

    def read_coords(count):
        nonlocal pos
        a = np.frombuffer(buf, dtype=bo + "f8", count=count * dim, offset=pos)
        pos += count * dim * 8
        return a.reshape(count, dim).astype(np.float64)

    def split(full):
        out = {"coords": full[:, :2]}
        if has_z:
            out["z"] = full[:, 2]
        if has_m:
            out["m"] = full[:, 2 + has_z]
        return out

    if base == POINT:
        return {"type": POINT, "dims": dims, **split(read_coords(1)), "end": pos}
    if base in (LINESTRING, CIRCULARSTRING):
        (npts,) = struct.unpack_from(bo + "I", buf, pos)
        pos += 4
        return {"type": base, "dims": dims, **split(read_coords(npts)),
                "end": pos}
    if base == POLYGON:
        (nrings,) = struct.unpack_from(bo + "I", buf, pos)
        pos += 4
        rings, rings_z, rings_m = [], [], []
        for _ in range(nrings):
            (npts,) = struct.unpack_from(bo + "I", buf, pos)
            pos += 4
            s = split(read_coords(npts))
            rings.append(s["coords"])
            if has_z:
                rings_z.append(s["z"])
            if has_m:
                rings_m.append(s["m"])
        out = {"type": POLYGON, "dims": dims, "rings": rings, "end": pos}
        if has_z:
            out["rings_z"] = rings_z
        if has_m:
            out["rings_m"] = rings_m
        return out
    if base in (MULTIPOINT, MULTILINESTRING, MULTIPOLYGON,
                GEOMETRYCOLLECTION, COMPOUNDCURVE, CURVEPOLYGON,
                MULTICURVE, MULTISURFACE, POLYHEDRALSURFACE, TIN):
        (nparts,) = struct.unpack_from(bo + "I", buf, pos)
        pos += 4
        parts = []
        for _ in range(nparts):
            g = parse(buf, pos)
            pos = g["end"]
            parts.append(g)
        return {"type": base, "dims": dims, "parts": parts, "end": pos}
    raise ValueError(f"unsupported WKB geometry type {gtype}")


def _header(buf: bytes) -> tuple[int, bool, bool]:
    bo = "<" if buf[0] == 1 else ">"
    (gtype,) = struct.unpack_from(bo + "I", buf, 1)
    return _decode_type(gtype)


def geometry_type(buf: bytes) -> int:
    return _header(buf)[0]


def geometry_dims(buf: bytes) -> str:
    """"xy" / "xyz" / "xym" / "xyzm", from the header alone."""
    _, has_z, has_m = _header(buf)
    return "xy" + "z" * has_z + "m" * has_m


def polygon_rings(buf: bytes) -> list[np.ndarray]:
    """All rings of a Polygon/MultiPolygon (exteriors + holes, in WKB
    order) — the PIP kernel input."""
    g = parse(buf)
    if g["type"] == POLYGON:
        return g["rings"]
    if g["type"] == MULTIPOLYGON:
        out = []
        for p in g["parts"]:
            out.extend(p["rings"])
        return out
    raise ValueError("not a polygon geometry")


def bounds(buf: bytes) -> tuple[float, float, float, float]:
    """Envelope (minx, miny, maxx, maxy) — OGRGeometry::getEnvelope."""
    g = parse(buf)

    def coords_of(node):
        if "coords" in node:
            yield node["coords"]
        if "rings" in node:
            yield from node["rings"]
        for p in node.get("parts", []):
            yield from coords_of(p)

    allc = np.vstack(list(coords_of(g)))
    return (
        float(allc[:, 0].min()),
        float(allc[:, 1].min()),
        float(allc[:, 0].max()),
        float(allc[:, 1].max()),
    )
