"""GeoJSON / GeoJSONSeq / CSV vector drivers — the most-used rows of
the reference's format zoo (reference roles: ogr GeoJSON driver
ogrgeojsonreader.cpp / ogrgeojsonwriter.cpp, GeoJSONSeq driver, CSV
driver with a WKT geometry column).

Ray-Data-first layout:

- ``read_geojson``: one FeatureCollection file = one read task
  (GeoJSON is a single JSON object — not splittable; the reference
  streams it single-threaded too).  Many files parallelize.
- ``read_geojson_seq``: newline-delimited features
  (RFC 8142 / GeoJSONSeq) via ``ray.data.read_text`` — splittable by
  block, the scalable text layout.
- ``write_geojson_seq``: per-block atomic part files under a
  directory (resumable-sink convention of state/lineage.py).
- ``read_csv_geom`` / ``write_csv_geom``: ``ray.data.read_csv`` /
  ``Dataset.write_csv`` with a WKT geometry column converted to/from
  the engine's WKB column.

Geometries convert through geom/wkb.py; curve types (CircularString…)
are linearized on write since GeoJSON cannot carry them — the
ogr2ogr linearize-on-output semantics."""

from __future__ import annotations

import json
import os
import uuid

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as W

_GJ_NAME = {
    W.POINT: "Point",
    W.LINESTRING: "LineString",
    W.POLYGON: "Polygon",
    W.MULTIPOINT: "MultiPoint",
    W.MULTILINESTRING: "MultiLineString",
    W.MULTIPOLYGON: "MultiPolygon",
    W.GEOMETRYCOLLECTION: "GeometryCollection",
}
_GJ_CODE = {v: k for k, v in _GJ_NAME.items()}


# ---------------------------------------------------------------------------
# geometry conversion
# ---------------------------------------------------------------------------


def _coords_list(g: dict) -> list:
    c = g["coords"]
    if "z" in g:
        return [[float(x), float(y), float(z)]
                for (x, y), z in zip(c, g["z"])]
    return [[float(x), float(y)] for x, y in c]


def _ring_list(g: dict, i: int) -> list:
    r = g["rings"][i]
    if "rings_z" in g:
        return [[float(x), float(y), float(z)]
                for (x, y), z in zip(r, g["rings_z"][i])]
    return [[float(x), float(y)] for x, y in r]


def wkb_to_geojson_geom(buf: bytes) -> dict:
    """One WKB geometry → GeoJSON geometry dict (curves linearized,
    M dropped — GeoJSON carries x/y/z only)."""
    base = W.geometry_type(buf)
    if base in (W.CIRCULARSTRING, W.COMPOUNDCURVE, W.CURVEPOLYGON,
                W.MULTICURVE, W.MULTISURFACE):
        from gdal_ray.geom.curves import linearize

        buf = linearize(buf)
    g = W.parse(buf)
    t = g["type"]
    if t == W.POINT:
        return {"type": "Point", "coordinates": _coords_list(g)[0]}
    if t == W.LINESTRING:
        return {"type": "LineString", "coordinates": _coords_list(g)}
    if t == W.POLYGON:
        return {"type": "Polygon",
                "coordinates": [_ring_list(g, i)
                                for i in range(len(g["rings"]))]}
    if t == W.GEOMETRYCOLLECTION:
        return {"type": "GeometryCollection",
                "geometries": [wkb_to_geojson_geom(_child(c))
                               for c in g["parts"]]}
    if t in (W.MULTIPOINT, W.MULTILINESTRING, W.MULTIPOLYGON):
        subs = [wkb_to_geojson_geom(_child(c)) for c in g["parts"]]
        return {"type": _GJ_NAME[t],
                "coordinates": [s["coordinates"] for s in subs]}
    raise ValueError(f"unsupported WKB type {t} for GeoJSON export")


def _child(g: dict) -> bytes:
    """Re-encode a parsed child geometry to standalone WKB."""
    from gdal_ray.geom.curves import _child_wkb

    return _child_wkb(g)


def _c2(pt) -> tuple:
    """GeoJSON position → (n,) tuple; ignore >3 elements per spec."""
    return tuple(float(v) for v in pt[:3])


def geojson_geom_to_wkb(g: dict) -> bytes:
    """GeoJSON geometry dict → ISO WKB bytes (2-D or Z)."""
    t = g["type"]
    if t == "GeometryCollection":
        return W.collection_wkb(W.GEOMETRYCOLLECTION, [
            geojson_geom_to_wkb(s) for s in g["geometries"]])
    c = g["coordinates"]
    if t == "Point":
        dims = "xyz" if len(c) > 2 else "xy"
        return W.point_wkb_d(np.array([_c2(c)]), dims)
    if t == "LineString":
        a = np.array([_c2(p) for p in c])
        return W.linestring_wkb_d(a, "xyz" if a.shape[1] > 2 else "xy")
    if t == "Polygon":
        rings = [np.array([_c2(p) for p in r]) for r in c]
        dims = "xyz" if rings and rings[0].shape[1] > 2 else "xy"
        return W.polygon_wkb_d(rings, dims)
    if t in ("MultiPoint", "MultiLineString", "MultiPolygon"):
        sub = t[5:]  # Point / LineString / Polygon
        parts = [geojson_geom_to_wkb({"type": sub, "coordinates": s})
                 for s in c]
        # ISO Z code when the first position carries a third element
        probe = c
        while probe and isinstance(probe[0], (list, tuple)):
            probe = probe[0]
        dims = "xyz" if len(probe) > 2 else "xy"
        return W.collection_wkb(_GJ_CODE[t], parts, dims)
    raise ValueError(f"unsupported GeoJSON geometry type {t!r}")


# ---------------------------------------------------------------------------
# feature <-> row tables
# ---------------------------------------------------------------------------


def _features_to_table(feats: list[dict], geom_col: str,
                       columns: list[str] | None) -> pa.Table:
    keys: list[str] = []
    seen = set()
    for f in feats:
        for k in (f.get("properties") or {}):
            if k not in seen:
                seen.add(k)
                keys.append(k)
    if columns is not None:
        keys = [k for k in keys if k in columns]
    cols: dict[str, list] = {k: [] for k in keys}
    geoms = []
    for f in feats:
        p = f.get("properties") or {}
        for k in keys:
            cols[k].append(p.get(k))
        g = f.get("geometry")
        geoms.append(None if g is None else geojson_geom_to_wkb(g))
    out = {k: pa.array(v) for k, v in cols.items()}
    out[geom_col] = pa.array(geoms, pa.binary())
    return pa.table(out)


def _binary_ds(paths):
    """paths → Dataset with a ``bytes`` column; VSI paths (/vsizip/,
    /vsimem/, /vsigzip/, …) are resolved through gdal_ray.vsi inside
    the read task (port/cpl_vsil.cpp dispatcher role)."""
    import ray.data as rd

    from gdal_ray.vsi import is_vsi, vsi_read_bytes

    if isinstance(paths, str):
        paths = [paths]
    if not any(is_vsi(p) for p in paths):
        return rd.read_binary_files(paths)
    ds = rd.from_items([{"path": p} for p in paths])

    def load(batch: pa.Table) -> pa.Table:
        data = [vsi_read_bytes(p) for p in batch["path"].to_pylist()]
        return pa.table({"bytes": pa.array(data, pa.binary())})

    return ds.map_batches(load, batch_format="pyarrow")


def read_geojson(paths, geom_col: str = "geometry",
                 columns: list[str] | None = None):
    """FeatureCollection file(s) → Dataset with a WKB geometry column.

    One file = one task (GeoJSON is unsplittable); shard inputs to
    parallelize, exactly like the reference's per-file reads. Paths
    may be VSI (e.g. ``/vsizip/archive.zip/data.geojson``)."""
    ds = _binary_ds(paths)

    def parse(batch: pa.Table) -> pa.Table:
        tables = []
        for data in batch["bytes"]:
            obj = json.loads(bytes(data.as_py()).decode("utf-8"))
            if obj.get("type") == "FeatureCollection":
                feats = obj["features"]
            elif obj.get("type") == "Feature":
                feats = [obj]
            else:  # bare geometry
                feats = [{"type": "Feature", "geometry": obj,
                          "properties": {}}]
            tables.append(_features_to_table(feats, geom_col, columns))
        return pa.concat_tables(tables, promote_options="default")

    return ds.map_batches(parse, batch_format="pyarrow")


def read_geojson_seq(paths, geom_col: str = "geometry",
                     columns: list[str] | None = None):
    """Newline-delimited GeoJSON features (GeoJSONSeq / RFC 8142,
    optional ``\\x1e`` record separators) → Dataset. VSI paths are
    read whole-file (a gzip/zip member isn't line-splittable anyway)."""
    import ray.data as rd

    from gdal_ray.vsi import is_vsi

    if isinstance(paths, str):
        paths = [paths]
    use_vsi = any(is_vsi(p) for p in paths)
    ds = _binary_ds(paths) if use_vsi else rd.read_text(paths)

    def parse(batch: pa.Table) -> pa.Table:
        if use_vsi:
            lines = []
            for data in batch["bytes"].to_pylist():
                lines.extend(bytes(data).decode("utf-8").splitlines())
        else:
            lines = batch["text"].to_pylist()
        feats = []
        for line in lines:
            line = line.strip().lstrip("\x1e")
            if line:
                feats.append(json.loads(line))
        return _features_to_table(feats, geom_col, columns)

    return ds.map_batches(parse, batch_format="pyarrow")


def _block_features(t: pa.Table, geom_col: str) -> list[str]:
    cols = [c for c in t.column_names if c != geom_col]
    props = t.select(cols).to_pylist() if cols else [{} for _ in range(len(t))]
    lines = []
    for g, p in zip(t[geom_col].to_pylist(), props):
        feat = {
            "type": "Feature",
            "geometry": None if g is None else wkb_to_geojson_geom(g),
            "properties": p,
        }
        lines.append(json.dumps(feat, separators=(",", ":")))
    return lines


def write_geojson_seq(ds, out_dir: str, geom_col: str = "geometry") -> int:
    """Dataset → directory of ``part-*.geojsonl`` files (one per
    block, atomic tmp+rename — the resumable-sink convention).
    Returns total features written."""
    os.makedirs(out_dir, exist_ok=True)

    def write_block(t: pa.Table) -> pa.Table:
        lines = _block_features(t, geom_col)
        name = f"part-{uuid.uuid4().hex}.geojsonl"
        tmp = os.path.join(out_dir, "." + name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + ("\n" if lines else ""))
        os.replace(tmp, os.path.join(out_dir, name))
        return pa.table({"rows": pa.array([len(lines)], pa.int64())})

    manifest = ds.map_batches(write_block, batch_format="pyarrow")
    return sum(r["rows"] for r in manifest.take_all())


def write_geojson(table_or_ds, path: str, geom_col: str = "geometry") -> int:
    """Small-side sink: ONE FeatureCollection file, streamed feature
    by feature through ``iter_batches`` (GeoJSON's single-object
    framing forces a single writer — use write_geojson_seq for scale)."""
    if isinstance(table_or_ds, pa.Table):
        batches = [table_or_ds]
    else:
        batches = table_or_ds.iter_batches(batch_format="pyarrow")
    tmp = path + ".tmp"
    n = 0
    with open(tmp, "w", encoding="utf-8") as f:
        f.write('{"type":"FeatureCollection","features":[\n')
        for t in batches:
            t = pa.table(t) if not isinstance(t, pa.Table) else t
            for line in _block_features(t, geom_col):
                f.write(("," if n else "") + line + "\n")
                n += 1
        f.write("]}\n")
    os.replace(tmp, path)
    return n


# ---------------------------------------------------------------------------
# CSV with a WKT geometry column (OGR CSV driver role)
# ---------------------------------------------------------------------------


def read_csv_geom(paths, wkt_col: str = "WKT", geom_col: str = "geometry",
                  **kw):
    """CSV file(s) with a WKT column → Dataset with WKB geometry."""
    import ray.data as rd

    from gdal_ray.geom.wkt import from_wkt

    ds = rd.read_csv(paths, **kw)

    def conv(t: pa.Table) -> pa.Table:
        geoms = [
            None if s is None or s == "" else from_wkt(s)
            for s in t[wkt_col].to_pylist()
        ]
        t = t.drop_columns([wkt_col])
        return t.append_column(geom_col, pa.array(geoms, pa.binary()))

    return ds.map_batches(conv, batch_format="pyarrow")


def write_csv_geom(ds, out_dir: str, geom_col: str = "geometry",
                   wkt_col: str = "WKT"):
    """Dataset with WKB geometry → CSV directory (geometry as WKT)."""
    from gdal_ray.geom.wkt import to_wkt

    def conv(t: pa.Table) -> pa.Table:
        if geom_col not in t.schema.names:
            return t  # attribute-only layer (spreadsheets, .dbf)
        wkts = [
            None if b is None else to_wkt(b)
            for b in t[geom_col].to_pylist()
        ]
        t = t.drop_columns([geom_col])
        return t.append_column(wkt_col, pa.array(wkts, pa.string()))

    ds.map_batches(conv, batch_format="pyarrow").write_csv(out_dir)
