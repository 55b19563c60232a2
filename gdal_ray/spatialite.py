"""SQLite / Spatialite vector driver — reference role
ogr/ogrsf_frmts/sqlite (ogrsqlitedatasource.cpp layer discovery,
ogrsqlitelayer.cpp ImportSpatiaLiteGeometry/ExportSpatiaLiteGeometry,
ogrsqlitetablelayer.cpp), re-derived from the published SpatiaLite
BLOB-Geometry layout (spatialite.org docs) and the OGR FDO metadata
convention:

SpatiaLite geometry BLOB:
  0x00 | endian (0x01 LE / 0x00 BE) | u32 SRID | f64 minx miny maxx
  maxy | 0x7C | u32 class type | body | 0xFE
  - class = base 1..7 (+1000 Z, +2000 M, +3000 ZM, +1000000
    compressed); collection children are embedded as 0x69 + u32 type
    + body (no per-child endian/SRID)
  - compressed variants store every vertex after the first as f32
    DELTAS for x/y/z (m stays f64) — gaiaCompress role

Metadata discovery (ogrsqlitedatasource.cpp OpenTable rules):
  - spatialite layout: ``geometry_columns(f_table_name,
    f_geometry_column, type|geometry_type, coord_dimension, srid,
    spatial_index_enabled)`` — legacy 2.3 text types ("POLYGON",
    "XY") and v4 numeric codes both read
  - OGR/FDO layout: ``geometry_columns(..., geometry_format)`` with
    'WKB'/'WKT'/'SpatiaLite' per-table formats
  - databases with no geometry_columns expose every user table as an
    attribute-only layer

The reader is rowid-range sharded into a Ray Dataset exactly like
gpkg.py (sqlite supports concurrent readers; each task scans one
slice).  The writer emits a minimal self-consistent spatialite-style
database (spatial_ref_sys + legacy geometry_columns + blobs) or the
FDO 'WKB' layout — single sqlite writer by format; partition
upstream and write one file per partition at scale.

Parity: the reference's own poly_spatialite.sqlite /
poly_spatialite4.sqlite / first_geometry_null.db fixtures decode to
the same features as the independent Shapefile reader (tests/
test_spatialite.py)."""

from __future__ import annotations

import os
import sqlite3
import struct

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as W

_GEOM_TEXT = {"POINT": 1, "LINESTRING": 2, "POLYGON": 3,
              "MULTIPOINT": 4, "MULTILINESTRING": 5,
              "MULTIPOLYGON": 6, "GEOMETRYCOLLECTION": 7}


# ---------------------------------------------------------------------------
# BLOB geometry codec
# ---------------------------------------------------------------------------


def _sl_parse_class(buf: bytes, pos: int, bo: str) -> tuple[bytes, int]:
    """One class geometry at ``pos`` → (ISO little-endian WKB, end)."""
    (gtype,) = struct.unpack_from(bo + "I", buf, pos)
    pos += 4
    compressed = gtype >= 1000000
    base_dim = gtype % 1000000
    base = base_dim % 1000
    dim_code = base_dim // 1000  # 0=XY 1=XYZ 2=XYM 3=XYZM
    has_z = dim_code in (1, 3)
    has_m = dim_code in (2, 3)
    ncoord = 2 + has_z + has_m
    dims = "xy" + "z" * has_z + "m" * has_m

    def read_points(n: int) -> np.ndarray:
        nonlocal pos
        if not compressed or n <= 2:
            a = np.frombuffer(buf, bo + "f8", n * ncoord, pos)
            pos += n * ncoord * 8
            return a.astype(np.float64).reshape(n, ncoord)
        # compressed (gaiaCompress / ogrsqlitelayer.cpp:1417): first
        # and LAST vertices are uncompressed absolute f64; every
        # intermediate vertex is f32 DELTAS vs the previous point for
        # x/y(/z) — m (if any) stays absolute f64
        ncomp = 2 + has_z
        full = np.empty((n, ncoord), np.float64)
        full[0] = np.frombuffer(buf, bo + "f8", ncoord, pos)
        pos += ncoord * 8
        for i in range(1, n - 1):
            d = np.frombuffer(buf, bo + "f4", ncomp, pos)
            pos += ncomp * 4
            full[i, :ncomp] = full[i - 1, :ncomp] + d.astype(np.float64)
            if has_m:
                (mv,) = struct.unpack_from(bo + "d", buf, pos)
                pos += 8
                full[i, ncoord - 1] = mv
        full[n - 1] = np.frombuffer(buf, bo + "f8", ncoord, pos)
        pos += ncoord * 8
        return full

    def count() -> int:
        nonlocal pos
        (n,) = struct.unpack_from(bo + "I", buf, pos)
        pos += 4
        return n

    if base == 1:  # point (never compressed in practice)
        return W.point_wkb_d(read_points(1), dims), pos
    if base == 2:  # linestring
        return W.linestring_wkb_d(read_points(count()), dims), pos
    if base == 3:  # polygon
        rings = [read_points(count()) for _ in range(count())]
        return W.polygon_wkb_d(rings, dims), pos
    if base in (4, 5, 6, 7):  # multi* / collection
        parts = []
        for _ in range(count()):
            if buf[pos] != 0x69:
                raise ValueError("SpatiaLite: missing 0x69 entity mark")
            pos += 1
            child, pos = _sl_parse_class(buf, pos, bo)
            parts.append(child)
        return W.collection_wkb(base, parts, dims), pos
    raise ValueError(f"SpatiaLite: unsupported class type {gtype}")


def spatialite_to_wkb(blob: bytes | None) -> bytes | None:
    """SpatiaLite BLOB geometry → ISO WKB (little-endian)."""
    if blob is None or len(blob) < 45 or blob[0] != 0x00:
        return None if blob is None else blob  # already WKB? pass
    bo = "<" if blob[1] == 0x01 else ">"
    if blob[38] != 0x7C:
        raise ValueError("SpatiaLite: missing MBR end marker")
    wkb, pos = _sl_parse_class(blob, 39, bo)
    if pos < len(blob) and blob[pos] != 0xFE:
        raise ValueError("SpatiaLite: missing end marker")
    return wkb


def spatialite_srid(blob: bytes) -> int:
    bo = "<" if blob[1] == 0x01 else ">"
    return struct.unpack_from(bo + "I", blob, 2)[0]


def _sl_emit_class(g: dict) -> bytes:
    dims = g["dims"]
    has_z = "z" in dims
    has_m = "m" in dims
    gtype = g["type"] + (3000 if has_z and has_m
                         else 1000 if has_z else 2000 if has_m else 0)
    out = [struct.pack("<I", gtype)]

    def emit_points(node, key="coords"):
        c = node[key] if key in node else node["coords"]
        n = len(c)
        full = np.empty((n, 2 + has_z + has_m))
        full[:, :2] = c
        col = 2
        if has_z:
            full[:, col] = node["z"]
            col += 1
        if has_m:
            full[:, col] = node["m"]
        return full.astype("<f8").tobytes()

    base = g["type"]
    if base == W.POINT:
        out.append(emit_points(g))
    elif base == W.LINESTRING:
        out.append(struct.pack("<I", len(g["coords"])))
        out.append(emit_points(g))
    elif base == W.POLYGON:
        out.append(struct.pack("<I", len(g["rings"])))
        for i, ring in enumerate(g["rings"]):
            node = {"coords": ring}
            if has_z:
                node["z"] = g["rings_z"][i]
            if has_m:
                node["m"] = g["rings_m"][i]
            out.append(struct.pack("<I", len(ring)))
            out.append(emit_points(node))
    else:  # multi*/collection
        out.append(struct.pack("<I", len(g["parts"])))
        for p in g["parts"]:
            out.append(b"\x69")
            out.append(_sl_emit_class(p))
    return b"".join(out)


def wkb_to_spatialite(wkb: bytes | None, srid: int = 0) -> bytes | None:
    """ISO WKB → SpatiaLite BLOB geometry (little-endian)."""
    if wkb is None:
        return None
    g = W.parse(wkb)
    minx, miny, maxx, maxy = W.bounds(wkb)
    return (b"\x00\x01" + struct.pack("<I", srid)
            + struct.pack("<4d", minx, miny, maxx, maxy)
            + b"\x7C" + _sl_emit_class(g) + b"\xFE")


# ---------------------------------------------------------------------------
# read
# ---------------------------------------------------------------------------


def _local_path(path: str) -> str:
    from gdal_ray.gpkg import _local_path as lp

    return lp(path)


def _crs_of(con: sqlite3.Connection, srid) -> str:
    if not srid:
        return ""
    try:
        row = con.execute(
            "SELECT auth_name, auth_srid FROM spatial_ref_sys "
            "WHERE srid = ?", (int(srid),)).fetchone()
    except sqlite3.Error:
        row = None
    if row and row[0]:
        return f"{row[0]}:{row[1]}"
    return f"EPSG:{int(srid)}"


def _geom_meta(con: sqlite3.Connection) -> dict[str, tuple]:
    """{table: (geom_col, srid, format)} — format 'SpatiaLite', 'WKB'
    or 'WKT' (ogrsqlitedatasource.cpp FDO-vs-spatialite sniff)."""
    try:
        cols = [r[1].lower() for r in
                con.execute("PRAGMA table_info(geometry_columns)")]
    except sqlite3.Error:
        return {}
    if not cols:
        return {}
    fdo = "geometry_format" in cols
    out = {}
    if fdo:
        for t, c, fmt, srid in con.execute(
                "SELECT f_table_name, f_geometry_column, "
                "geometry_format, srid FROM geometry_columns"):
            out[t] = (c, srid, fmt)
    else:
        for t, c, srid in con.execute(
                "SELECT f_table_name, f_geometry_column, srid "
                "FROM geometry_columns"):
            out[t] = (c, srid, "SpatiaLite")
    return out


_META_TABLES = {
    "geometry_columns", "spatial_ref_sys", "spatialite_history",
    "sqlite_sequence", "geometry_columns_auth", "sql_statements_log",
    "vector_layers", "spatialite_metadata", "elementarygeometries",
}


def feature_layers(path: str) -> list[str]:
    path = _local_path(path)
    con = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        meta = _geom_meta(con)
        if meta:
            return list(meta)
        names = [r[0] for r in con.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")]
        return [n for n in names
                if n not in _META_TABLES
                and not n.startswith(("idx_", "views_geometry",
                                      "virts_geometry", "sqlite_"))]
    finally:
        con.close()


def read_sqlite_local(path: str, layer: str | None = None,
                      geom_col_out: str = "geometry",
                      rowid_range: tuple[int, int] | None = None
                      ) -> pa.Table:
    """One layer (optionally one rowid slice) → Arrow table with ISO
    WKB geometry."""
    path = _local_path(path)
    con = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        if layer is None:
            layers = feature_layers(path)
            if not layers:
                raise ValueError(f"no layers in {path}")
            layer = layers[0]
        meta = _geom_meta(con).get(layer)
        gcol, srid, fmt = meta if meta else (None, 0, None)
        crs = _crs_of(con, srid) if meta else ""
        where = ""
        args: tuple = ()
        if rowid_range is not None:
            where = "WHERE _rowid_ >= ? AND _rowid_ < ?"
            args = rowid_range
        cur = con.execute(f'SELECT * FROM "{layer}" {where}', args)
        names = [d[0] for d in cur.description]
        rows = cur.fetchall()
        cols: dict[str, list] = {n: [] for n in names}
        for r in rows:
            for n, v in zip(names, r):
                cols[n].append(v)
        out: dict[str, pa.Array] = {}
        for n in names:
            if gcol is not None and n.lower() == gcol.lower():
                if fmt == "WKB":
                    vals = cols[n]
                elif fmt == "WKT":
                    from gdal_ray.geom.wkt import from_wkt

                    vals = [from_wkt(v) if v else None
                            for v in cols[n]]
                else:
                    vals = [spatialite_to_wkb(v) for v in cols[n]]
                out[geom_col_out] = pa.array(vals, pa.binary())
            else:
                out[n] = pa.array(cols[n])
        t = pa.table(out)
        if crs:
            t = t.replace_schema_metadata(
                {**(t.schema.metadata or {}), b"crs": crs.encode()})
        return t
    finally:
        con.close()


def read_sqlite(path: str, layer: str | None = None, shards: int = 8,
                geom_col: str = "geometry"):
    """SQLite/Spatialite layer → Dataset, sharded by rowid range
    (identical scale shape to gpkg.read_gpkg: sqlite concurrent
    readers, one slice per task)."""
    import ray.data as rd

    meta_path = _local_path(path)
    con = sqlite3.connect(f"file:{meta_path}?mode=ro", uri=True)
    try:
        if layer is None:
            layer = feature_layers(path)[0]
        lo, hi = con.execute(
            f'SELECT COALESCE(MIN(_rowid_), 0), '
            f'COALESCE(MAX(_rowid_), -1) FROM "{layer}"').fetchone()
    finally:
        con.close()
    if hi < lo:
        ranges = [(0, 0)]
    else:
        span = max(1, (hi - lo + shards) // shards)
        ranges = [(lo + i * span, lo + (i + 1) * span)
                  for i in range(shards)
                  if lo + i * span <= hi]
        ranges[-1] = (ranges[-1][0], hi + 1)

    items = [{"path": path, "layer": layer, "lo": a, "hi": b}
             for a, b in ranges]
    ds = rd.from_items(items)

    def load(batch: pa.Table) -> pa.Table:
        tables = []
        for i in range(len(batch)):
            tables.append(read_sqlite_local(
                batch["path"][i].as_py(), batch["layer"][i].as_py(),
                geom_col,
                (batch["lo"][i].as_py(), batch["hi"][i].as_py())))
        return pa.concat_tables(tables, promote_options="default")

    return ds.map_batches(load, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# write
# ---------------------------------------------------------------------------

_ARROW_SQL = {"int64": "INTEGER", "int32": "INTEGER", "double": "REAL",
              "float": "REAL", "string": "TEXT", "bool": "INTEGER",
              "binary": "BLOB"}

_TYPE_NAME = {1: "POINT", 2: "LINESTRING", 3: "POLYGON",
              4: "MULTIPOINT", 5: "MULTILINESTRING",
              6: "MULTIPOLYGON", 7: "GEOMETRYCOLLECTION"}


def write_sqlite(ds_or_table, path: str, layer: str = "layer",
                 crs: str = "EPSG:4326", geom_col: str = "geometry",
                 spatialite: bool = True) -> int:
    """Dataset / Arrow table → new SQLite database.  ``spatialite``
    writes the legacy-2.3 spatialite metadata layout + BLOB
    geometries; False writes the OGR/FDO layout with plain WKB blobs
    and geometry_format='WKB'.  Single sqlite writer by format —
    partition upstream for scale.  Returns the feature count."""
    srid = int(crs.split(":")[1]) if ":" in crs else 0
    if hasattr(ds_or_table, "to_arrow_refs"):
        import ray

        tables = [t for t in ray.get(ds_or_table.to_arrow_refs())
                  if t.num_rows]
        table = (pa.concat_tables(tables, promote_options="default")
                 if tables else None)
    else:
        table = ds_or_table
    if table is None or table.num_rows == 0:
        raise ValueError("write_sqlite: empty input")
    if os.path.exists(path):
        os.remove(path)
    con = sqlite3.connect(path)
    try:
        con.execute(
            "CREATE TABLE spatial_ref_sys (srid INTEGER UNIQUE, "
            "auth_name TEXT, auth_srid INTEGER, ref_sys_name TEXT, "
            "proj4text TEXT)")
        auth = crs.split(":")[0] if ":" in crs else "EPSG"
        con.execute("INSERT INTO spatial_ref_sys VALUES (?,?,?,?,?)",
                    (srid, auth, srid, crs, ""))
        names = table.schema.names
        # an incoming OGC_FID column (e.g. a re-written sqlite read)
        # becomes the primary key instead of a synthesized one
        fid_in = next((n for n in names if n.upper() == "OGC_FID"),
                      None)
        attrs = [n for n in names if n != geom_col and n != fid_in]
        defs = []
        for n in attrs:
            sql_t = _ARROW_SQL.get(
                str(table.schema.field(n).type), "TEXT")
            defs.append(f'"{n}" {sql_t}')
        gdef = f', "{geom_col}" BLOB' if geom_col in names else ""
        con.execute(
            f'CREATE TABLE "{layer}" (OGC_FID INTEGER PRIMARY KEY'
            + ("," if defs else "") + ",".join(defs) + gdef + ")")
        gtype = 0
        wkbs = None
        if geom_col in names:
            wkbs = table.column(geom_col).to_pylist()
            for wkbv in wkbs:
                if wkbv:
                    gtype = W.geometry_type(wkbv)
                    break
            if spatialite:
                con.execute(
                    "CREATE TABLE geometry_columns (f_table_name TEXT, "
                    "f_geometry_column TEXT, type TEXT, "
                    "coord_dimension TEXT, srid INTEGER, "
                    "spatial_index_enabled INTEGER)")
                con.execute(
                    "INSERT INTO geometry_columns VALUES (?,?,?,?,?,0)",
                    (layer, geom_col,
                     _TYPE_NAME.get(gtype, "GEOMETRY"), "XY", srid))
            else:
                con.execute(
                    "CREATE TABLE geometry_columns (f_table_name TEXT, "
                    "f_geometry_column TEXT, geometry_type INTEGER, "
                    "coord_dimension INTEGER, srid INTEGER, "
                    "geometry_format TEXT)")
                con.execute(
                    "INSERT INTO geometry_columns VALUES (?,?,?,?,?,"
                    "'WKB')", (layer, geom_col, gtype, 2, srid))
        cols = {n: table.column(n).to_pylist() for n in attrs}
        fids = (table.column(fid_in).to_pylist() if fid_in
                else None)
        nrows = table.num_rows
        ph = ",".join("?" * (1 + len(attrs) + (1 if wkbs else 0)))
        ins = f'INSERT INTO "{layer}" VALUES ({ph})'
        for i in range(nrows):
            row = [fids[i] if fids else i + 1] + [cols[n][i]
                                                  for n in attrs]
            if wkbs is not None:
                gv = wkbs[i]
                row.append(wkb_to_spatialite(gv, srid)
                           if spatialite else gv)
            con.execute(ins, row)
        con.commit()
        return nrows
    finally:
        con.close()
