"""ESRI Shapefile reader (.shp + .dbf + .prj) — the reference's
classic vector driver (reference role: ogr/ogrsf_frmts/shape +
shapelib; format re-derived from the public ESRI Shapefile Technical
Description (July 1998) and the dBASE III/IV header layout, no code
ported).

Scope: shape types Point/PolyLine/Polygon/MultiPoint and their Z/M
variants, dBASE C/N/F/L/D fields, .prj ESRI-WKT → EPSG for the
common frames.  Geometries convert to the engine's ISO WKB column;
polygon ring winding follows the spec (clockwise outer, counter-
clockwise holes — holes attached to the ring containing them, the
shapelib organize-polygons role).

Ray layout: one .shp = one read task (`read_shapefile` →
`ray.data.read_binary_files` on the pair + per-file parse); shard
many files to parallelize, exactly like the reference's per-file
layers."""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as W

SHAPE_NULL = 0
_BASE = {1: "point", 3: "line", 5: "polygon", 8: "multipoint"}
_VARIANT = {}
for code, kind in _BASE.items():
    _VARIANT[code] = (kind, "xy")
_VARIANT.update({11: ("point", "xyz"), 13: ("line", "xyz"),
                 15: ("polygon", "xyz"), 18: ("multipoint", "xyz"),
                 21: ("point", "xym"), 23: ("line", "xym"),
                 25: ("polygon", "xym"), 28: ("multipoint", "xym")})


def _ring_is_cw(r: np.ndarray) -> bool:
    x, y = r[:, 0], r[:, 1]
    return float(np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]))) > 0.0


def _point_in_ring(pt: np.ndarray, r: np.ndarray) -> bool:
    x, y = pt
    xs, ys = r[:-1, 0], r[:-1, 1]
    xe, ye = r[1:, 0], r[1:, 1]
    cond = (ys > y) != (ye > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = xs + (y - ys) / (ye - ys) * (xe - xs)
    return bool(np.count_nonzero(cond & (x < xi)) & 1)


def _full(xy: np.ndarray, z, m, dims: str) -> np.ndarray:
    cols = [xy]
    if "z" in dims:
        cols.append(np.asarray(z)[:, None])
    if "m" in dims:
        cols.append(np.asarray(m)[:, None])
    return np.hstack(cols)


def _polygon_wkb(rings: list[np.ndarray], zs, ms, dims: str) -> bytes:
    """Spec winding: CW = outer, CCW = hole; holes join the outer
    ring containing their first vertex. One outer → Polygon, many →
    MultiPolygon (the reference driver's SHPReadOGRObject shape)."""
    outers = []
    holes = []
    for i, r in enumerate(rings):
        (outers if _ring_is_cw(r) else holes).append(i)
    if not outers:       # degenerate: treat every ring as outer
        outers, holes = list(range(len(rings))), []
    # winding can lie (OrganizePolygons AUTO role): if any "hole" is
    # not inside any "outer", reclassify by containment depth — even
    # depth = outer, odd = hole of the ring directly containing it
    valid = all(
        any(_point_in_ring(rings[h][0], rings[o]) for o in outers)
        for h in holes
    )
    if not valid and len(rings) > 1:
        depth = [
            sum(1 for j in range(len(rings))
                if j != i and _point_in_ring(rings[i][0], rings[j]))
            for i in range(len(rings))
        ]
        outers = [i for i in range(len(rings)) if depth[i] % 2 == 0]
        holes = [i for i in range(len(rings)) if depth[i] % 2 == 1]
    polys: list[list[int]] = [[i] for i in outers]
    for h in holes:
        target = 0
        if len(outers) > 1:
            for k, o in enumerate(outers):
                if _point_in_ring(rings[h][0], rings[o]):
                    target = k
                    break
        polys[target].append(h)
    built = []
    for ring_ids in polys:
        built.append(W.polygon_wkb_d(
            [_full(rings[i], zs[i] if zs else None,
                   ms[i] if ms else None, dims) for i in ring_ids],
            dims))
    if len(built) == 1:
        return built[0]
    head = b"\x01" + W._iso_code(W.MULTIPOLYGON, dims).to_bytes(4, "little")
    return head + len(built).to_bytes(4, "little") + b"".join(built)


def parse_shp(data: bytes) -> list[bytes | None]:
    """.shp bytes → list of WKB geometries (None for null shapes)."""
    (code,) = struct.unpack_from(">i", data, 0)
    if code != 9994:
        raise ValueError("not a shapefile (.shp magic 9994 missing)")
    (flen_words,) = struct.unpack_from(">i", data, 24)
    end = flen_words * 2
    pos = 100
    out: list[bytes | None] = []
    while pos + 8 <= min(end, len(data)):
        _rec, clen = struct.unpack_from(">ii", data, pos)
        pos += 8
        body = data[pos : pos + clen * 2]
        pos += clen * 2
        (stype,) = struct.unpack_from("<i", body, 0)
        if stype == SHAPE_NULL:
            out.append(None)
            continue
        if stype not in _VARIANT:
            raise ValueError(f"unsupported shape type {stype}")
        kind, dims = _VARIANT[stype]
        try:
            out.append(_parse_shape(body, kind, dims))
        except (IndexError, ValueError, struct.error) as ex:
            raise ValueError(
                f"corrupt shapefile record {_rec}: {ex}") from ex
    return out


def _parse_shape(body: bytes, kind: str, dims: str) -> bytes:
    if kind == "point":
        x, y = struct.unpack_from("<dd", body, 4)
        extra = []
        off = 20
        if "z" in dims:
            extra.append(struct.unpack_from("<d", body, off)[0])
            off += 8
            # spec: the M block of *Z types is optional — detect by
            # record length (the reference reader does the same)
            if "m" not in dims and off + 8 <= len(body):
                dims = "xyzm"
        if "m" in dims:
            val = struct.unpack_from("<d", body, off)[0] if off + 8 <= len(body) else 0.0
            extra.append(val)
        return W.point_wkb_d(np.array([[x, y, *extra]]), dims)

    if kind == "multipoint":
        (npts,) = struct.unpack_from("<i", body, 36)
        xy = np.frombuffer(body, "<f8", npts * 2, 40).reshape(npts, 2)
        off = 40 + npts * 16
        z = m = None
        if "z" in dims:
            z = np.frombuffer(body, "<f8", npts, off + 16)
            off += 16 + npts * 8
            if "m" not in dims and off + 16 + npts * 8 <= len(body):
                dims = "xyzm"  # optional M block present
        if "m" in dims:
            m = (np.frombuffer(body, "<f8", npts, off + 16)
                 if off + 16 + npts * 8 <= len(body)
                 else np.zeros(npts))
        pts = [W.point_wkb_d(
            np.array([_full(xy[i : i + 1], None, None, "xy")[0].tolist()
                      + ([z[i]] if z is not None and "z" in dims else [])
                      + ([m[i]] if m is not None and "m" in dims else [])]),
            dims) for i in range(npts)]
        head = b"\x01" + W._iso_code(W.MULTIPOINT, dims).to_bytes(4, "little")
        return head + npts.to_bytes(4, "little") + b"".join(pts)

    # line / polygon: bbox(32) numparts numpoints parts points [Z][M]
    nparts, npts = struct.unpack_from("<ii", body, 36)
    parts = np.frombuffer(body, "<i4", nparts, 44)
    off = 44 + nparts * 4
    xy = np.frombuffer(body, "<f8", npts * 2, off).reshape(npts, 2)
    off += npts * 16
    z = m = None
    if "z" in dims:
        z = np.frombuffer(body, "<f8", npts, off + 16)
        off += 16 + npts * 8
        if "m" not in dims and off + 16 + npts * 8 <= len(body):
            dims = "xyzm"  # optional M block present
    if "m" in dims:
        m = (np.frombuffer(body, "<f8", npts, off + 16)
             if off + 16 + npts * 8 <= len(body) else np.zeros(npts))
    bounds = list(parts) + [npts]
    segs = [np.array(xy[bounds[i]: bounds[i + 1]]) for i in range(nparts)]
    zsegs = ([z[bounds[i]: bounds[i + 1]] for i in range(nparts)]
             if z is not None else None)
    msegs = ([m[bounds[i]: bounds[i + 1]] for i in range(nparts)]
             if m is not None else None)
    if kind == "line":
        if nparts == 1:
            return W.linestring_wkb_d(
                _full(segs[0], zsegs[0] if zsegs else None,
                      msegs[0] if msegs else None, dims), dims)
        lines = [W.linestring_wkb_d(
            _full(segs[i], zsegs[i] if zsegs else None,
                  msegs[i] if msegs else None, dims), dims)
            for i in range(nparts)]
        head = b"\x01" + W._iso_code(W.MULTILINESTRING, dims).to_bytes(
            4, "little")
        return head + nparts.to_bytes(4, "little") + b"".join(lines)
    return _polygon_wkb(segs, zsegs, msegs, dims)


def parse_dbf(data: bytes) -> pa.Table:
    """.dbf bytes → attribute table (C→string, N/F→int64/float64,
    L→bool, D→date32-as-string)."""
    nrec, hsize, rsize = struct.unpack_from("<IHH", data, 4)
    fields = []
    pos = 32
    while pos < hsize - 1 and data[pos] != 0x0D:
        raw = data[pos : pos + 32]
        name = raw[:11].split(b"\0")[0].decode("latin-1").strip()
        ftype = chr(raw[11])
        flen = raw[16]
        fdec = raw[17]
        fields.append((name, ftype, flen, fdec))
        pos += 32
    cols: dict[str, list] = {n: [] for n, *_ in fields}
    for r in range(nrec):
        base = hsize + r * rsize
        rec = data[base : base + rsize]
        if not rec or rec[0:1] == b"*":      # deleted
            continue
        off = 1
        for name, ftype, flen, fdec in fields:
            raw = rec[off : off + flen]
            off += flen
            txt = raw.decode("latin-1").strip()
            if ftype in ("N", "F"):
                if not txt or txt == "*" * len(txt):
                    cols[name].append(None)
                elif ftype == "N" and fdec == 0 and "." not in txt:
                    cols[name].append(int(txt))
                else:
                    cols[name].append(float(txt))
            elif ftype == "L":
                cols[name].append(
                    None if txt in ("", "?") else txt in "YyTt")
            else:                             # C, D and the rest
                cols[name].append(txt or None)
    return pa.table({n: pa.array(v) for n, v in cols.items()})


# minimal ESRI-WKT → EPSG mapping (the geo_normalize role; unmatched
# text is preserved verbatim so nothing is silently lost)
_PRJ_HINTS = (
    ("GCS_WGS_1984", "EPSG:4326"), ('GEOGCS["WGS 84"', "EPSG:4326"),
    ("GCS_North_American_1983", "EPSG:4269"),
    ("GCS_North_American_1927", "EPSG:4267"),
    ("WGS_1984_Web_Mercator_Auxiliary_Sphere", "EPSG:3857"),
    ("British_National_Grid", "EPSG:27700"),
    ("GCS_OSGB_1936", "EPSG:4277"), ("OSGB_1936", "EPSG:27700"),
    ("ETRS_1989_LAEA", "EPSG:3035"),
)


def parse_prj(text: str) -> str:
    for needle, code in _PRJ_HINTS:
        if needle.lower() in text.lower():
            return code
    import re

    m = re.search(r'AUTHORITY\["EPSG",\s*"?(\d+)"?\]\]$', text.strip())
    if m:
        return f"EPSG:{m.group(1)}"
    return text.strip()


def read_shapefile_local(shp_path: str, geom_col: str = "geometry") -> pa.Table:
    """One shapefile (+ sidecars if present) → Arrow table.

    ``shp_path`` may be a VSI path (e.g. ``/vsizip/data.zip/poly.shp``)
    — sidecars are resolved through the same virtual filesystem."""
    from gdal_ray.vsi import vsi_exists, vsi_read_bytes

    if shp_path.lower().endswith(".dbf"):
        # bare .dbf = attribute-only layer (the reference's ESRI
        # Shapefile driver opens .dbf without geometry)
        return parse_dbf(vsi_read_bytes(shp_path))
    geoms = parse_shp(vsi_read_bytes(shp_path))
    base = shp_path[:-4]
    table = None
    for ext in (".dbf", ".DBF"):
        if vsi_exists(base + ext):
            table = parse_dbf(vsi_read_bytes(base + ext))
            break
    if table is None:
        table = pa.table({"fid": pa.array(range(len(geoms)), pa.int64())})
    if len(table) != len(geoms):
        raise ValueError(
            f"dbf rows ({len(table)}) != shp records ({len(geoms)})")
    crs = ""
    for ext in (".prj", ".PRJ"):
        if vsi_exists(base + ext):
            crs = parse_prj(
                vsi_read_bytes(base + ext).decode("latin-1"))
            break
    table = table.append_column(geom_col, pa.array(geoms, pa.binary()))
    if crs:
        table = table.replace_schema_metadata(
            {**(table.schema.metadata or {}), b"crs": crs.encode()})
    return table


def read_shapefile(paths, geom_col: str = "geometry"):
    """Shapefile(s) → Dataset (one .shp = one read task; pass many
    paths to parallelize)."""
    import ray.data as rd

    if isinstance(paths, str):
        paths = [paths]

    ds = rd.from_items([{"path": p} for p in paths])

    def load(batch: pa.Table) -> pa.Table:
        tables = [read_shapefile_local(p.as_py(), geom_col)
                  for p in batch["path"]]
        return pa.concat_tables(tables, promote_options="default")

    return ds.map_batches(load, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# writer (.shp + .shx + .dbf) — XY Point/PolyLine/Polygon/MultiPoint


_WRITE_CODES = {"point": 1, "line": 3, "polygon": 5, "multipoint": 8}


def _shape_record(geom: bytes | None):
    """WKB → (shape type code, record body bytes) in XY."""
    if geom is None:
        return SHAPE_NULL, b""
    g = W.parse(geom)
    t = g["type"]

    def bbox(pts: np.ndarray) -> bytes:
        return struct.pack("<4d", pts[:, 0].min(), pts[:, 1].min(),
                           pts[:, 0].max(), pts[:, 1].max())

    if t == W.POINT:
        c = g["coords"][0]
        return 1, struct.pack("<2d", float(c[0]), float(c[1]))
    if t in (W.LINESTRING, W.MULTILINESTRING):
        parts = ([g["coords"]] if t == W.LINESTRING
                 else [p["coords"] for p in g["parts"]])
        return 3, _poly_body(parts)
    if t in (W.POLYGON, W.MULTIPOLYGON):
        rings: list[np.ndarray] = []
        polys = [g] if t == W.POLYGON else g["parts"]
        for p in polys:
            for i, r in enumerate(p["rings"]):
                r = np.asarray(r, dtype=np.float64)
                # spec winding: CW outer, CCW holes
                cw = _ring_is_cw(r)
                if (i == 0 and not cw) or (i > 0 and cw):
                    r = r[::-1]
                rings.append(r)
        return 5, _poly_body(rings)
    if t == W.MULTIPOINT:
        pts = np.vstack([p["coords"] for p in g["parts"]])
        body = bbox(pts) + struct.pack("<i", len(pts))
        body += np.ascontiguousarray(pts[:, :2]).tobytes()
        return 8, body
    raise ValueError(f"shapefile writer: unsupported WKB type {t}")


def _poly_body(parts: list[np.ndarray]) -> bytes:
    allp = np.vstack(parts)
    body = struct.pack("<4d", allp[:, 0].min(), allp[:, 1].min(),
                       allp[:, 0].max(), allp[:, 1].max())
    body += struct.pack("<2i", len(parts), sum(len(p) for p in parts))
    off = 0
    for p in parts:
        body += struct.pack("<i", off)
        off += len(p)
    for p in parts:
        body += np.ascontiguousarray(
            np.asarray(p, np.float64)[:, :2]).tobytes()
    return body


def write_shapefile(table: pa.Table, shp_path: str,
                    geom_col: str = "geometry",
                    crs_wkt: str | None = None) -> None:
    """pa.Table → .shp/.shx/.dbf triple (+ .prj when crs_wkt given).
    Attribute mapping: int → N(18), float → N(24,9) fixed-point text,
    string → C(254); the dBASE III layout the reader parses."""
    import os

    geoms = table[geom_col].to_pylist()
    recs = [_shape_record(g) for g in geoms]
    codes = {c for c, _b in recs if c != SHAPE_NULL}
    if len(codes) > 1:
        raise ValueError(f"mixed shape types {codes} in one shapefile")
    shp_type = codes.pop() if codes else 1

    # --- .shp + .shx
    shp_body = bytearray()
    shx_body = bytearray()
    minx = miny = np.inf
    maxx = maxy = -np.inf
    for i, (code, body) in enumerate(recs):
        content = struct.pack("<i", code) + body
        off_words = (100 + len(shp_body)) // 2
        shx_body += struct.pack(">2i", off_words, len(content) // 2)
        shp_body += struct.pack(">2i", i + 1, len(content) // 2)
        shp_body += content
        if code in (3, 5, 8):
            bx = struct.unpack("<4d", body[:32])
            minx, miny = min(minx, bx[0]), min(miny, bx[1])
            maxx, maxy = max(maxx, bx[2]), max(maxy, bx[3])
        elif code == 1:
            x, y = struct.unpack("<2d", body)
            minx, miny = min(minx, x), min(miny, y)
            maxx, maxy = max(maxx, x), max(maxy, y)
    if not np.isfinite(minx):
        minx = miny = maxx = maxy = 0.0

    def header(total_words: int) -> bytes:
        h = struct.pack(">i", 9994) + b"\0" * 20
        h += struct.pack(">i", total_words)
        h += struct.pack("<2i", 1000, shp_type)
        h += struct.pack("<4d", minx, miny, maxx, maxy)
        h += struct.pack("<4d", 0, 0, 0, 0)  # Z/M ranges
        return h

    from gdal_ray.vsi import vsi_write_bytes

    vsi_write_bytes(shp_path,
                    header((100 + len(shp_body)) // 2) + bytes(shp_body))
    base = os.path.splitext(shp_path)[0]
    vsi_write_bytes(base + ".shx",
                    header((100 + len(shx_body)) // 2) + bytes(shx_body))

    # --- .dbf (dBASE III)
    fields = []
    for name in table.column_names:
        if name == geom_col:
            continue
        col = table[name]
        if pa.types.is_integer(col.type):
            fields.append((name[:10], b"N", 18, 0))
        elif pa.types.is_floating(col.type):
            fields.append((name[:10], b"N", 24, 9))
        else:
            fields.append((name[:10], b"C", 254, 0))
    n = table.num_rows
    hdr_len = 32 + 32 * len(fields) + 1
    rec_len = 1 + sum(f[2] for f in fields)
    dbf = bytearray()
    dbf += struct.pack("<B3BIHH20x", 3, 24, 1, 1, n, hdr_len, rec_len)
    for name, typ, length, dec in fields:
        fd = bytearray(32)
        fd[0:len(name.encode())] = name.encode()[:10]
        fd[11] = typ[0]
        fd[16] = length
        fd[17] = dec
        dbf += fd
    dbf += b"\x0d"
    for i in range(n):
        dbf += b" "
        for (name, typ, length, dec) in fields:
            v = table[name][i].as_py()
            if v is None:
                s = b" " * length
            elif typ == b"N":
                txt = (f"{v:.{dec}f}" if dec else str(int(v)))
                s = txt.rjust(length).encode("ascii")[:length]
            else:
                s = str(v).encode("utf-8", "replace")[:length].ljust(
                    length)
            dbf += s
    dbf += b"\x1a"
    vsi_write_bytes(base + ".dbf", bytes(dbf))
    if crs_wkt:
        vsi_write_bytes(base + ".prj", crs_wkt.encode())


def write_shapefile_dataset(ds, shp_path: str) -> None:
    write_shapefile(pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow", batch_size=None)), shp_path)
