"""OGC Features & Geometries JSON (JSON-FG) vector driver.

Reference role: ogr/ogrsf_frmts/jsonfg (OGRJSONFGDataset /
OGRJSONFGReader / OGRJSONFGWriteLayer, GDAL 3.13) implementing the
public OGC JSON-FG 1.0 spec (ogc-json-fg-1-0.1 .. 0.3).  Semantics
replicated from the published spec and pinned against the reference's
autotest fixtures (autotest/ogr/data/jsonfg/*, ogr_jsonfg.py):

- ``coordRefSys`` forms: ``"[EPSG:n]"``, OGC URI
  ``http://www.opengis.net/def/crs/EPSG/0/n``, a Reference object
  ``{"type": "Reference", "href": ..., "epoch": ...}``, or a compound
  two-element array [horizontal, vertical].  Invalid forms degrade to
  no-CRS with a recorded warning (ogr_jsonfg.py valid/invalid tables).
- geometry-vs-place: a non-null ``place`` carries coordinates in the
  declared CRS **in authority axis order** (lat,lon for geographic
  EPSG codes - swapped to GIS x=lon order on read); a null ``place``
  falls back to the ``geometry`` member (always CRS84 lon,lat),
  reprojected into the layer CRS when that is projected.  When
  features declare mixed CRSs: a collection-level coordRefSys wins
  and every feature is reprojected into it; with no collection CRS
  the layer has no single CRS and a per-feature ``jsonfg_crs`` column
  is emitted (crs_* fixture matrix in ogr_jsonfg.py).
- ``featureType`` (feature- or collection-level) splits the document
  into layers (two_feature_types.json).
- ``time``: instants ({"date"} / {"timestamp"}) become a ``time``
  column ("jsonfg_time" on a properties collision); intervals become
  ``time_start`` / ``time_end``; open ends ("..") are NULL.  Values
  are rendered in OGR text form (``2023/06/05``,
  ``2023/06/05 12:34:56+00``; date-instants promoted into a mixed
  datetime column render ``2023/06/05 00:00:00``).
- Curve geometry types (CircularString / CompoundCurve / CurvePolygon
  / MultiCurve / MultiSurface) with Z and/or measures
  (``measures.enabled`` - M coordinates trail each position), and the
  3-D ``Prism`` type: Point base -> LINESTRING Z pillar, LineString
  base -> MULTIPOLYGON Z wall, Polygon base -> POLYHEDRALSURFACE Z
  closed solid shell (pylon/fence/prism_with_polygon_base fixtures).

Ray shape: one file = one task (a JSON document is unsplittable),
exactly like gdal_ray.formats.read_geojson; shard inputs across files
to parallelize.  The writer streams Dataset blocks feature-by-feature
into a single FeatureCollection file.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as W
from gdal_ray.proj.epsg_db import GEOGRAPHIC_CODES

_URI_RE = re.compile(r"^https?://www\.opengis\.net/def/crs/EPSG/[^/]+/(\d+)$")
_BRACKET_RE = re.compile(r"^\[EPSG:(\d+)\]$")
_OGC_CRS84 = ("http://www.opengis.net/def/crs/OGC/0/CRS84",
              "http://www.opengis.net/def/crs/OGC/0/CRS84h",
              "[OGC:CRS84]")

# GeoJSON-representable types (everything else must live in ``place``)
_GEOJSON_TYPES = {"Point", "LineString", "Polygon", "MultiPoint",
                  "MultiLineString", "MultiPolygon",
                  "GeometryCollection"}


# ---------------------------------------------------------------------------
# coordRefSys parsing
# ---------------------------------------------------------------------------


def parse_coordrefsys(v):
    """coordRefSys JSON value -> (epsg:int|None, epoch:float|None,
    valid:bool).  CRS84/CRS84h resolve to 4326 (traditional GIS axis
    order - no lat/lon swap, see _is_latlon)."""
    if v is None:
        return None, None, True  # absent = CRS84 default, not an error
    if isinstance(v, str):
        if v in _OGC_CRS84:
            # lon,lat by definition - never axis-swapped (sentinel,
            # normalized to 4326 for the layer CRS)
            return "CRS84", None, True
        m = _BRACKET_RE.match(v) or _URI_RE.match(v)
        if m and int(m.group(1)) != 0:
            return int(m.group(1)), None, True
        return None, None, False
    if isinstance(v, dict):
        if v.get("type") != "Reference" or not isinstance(
                v.get("href"), str):
            return None, None, False
        code, _, ok = parse_coordrefsys(v["href"])
        epoch = v.get("epoch")
        if epoch is not None and not isinstance(epoch, (int, float)):
            return None, None, False
        return code, epoch, ok
    if isinstance(v, list):
        if len(v) != 2:
            return None, None, False
        h_code, h_epoch, h_ok = parse_coordrefsys(v[0])
        v_code, v_epoch, v_ok = parse_coordrefsys(v[1])
        if not (h_ok and v_ok) or h_code is None or v_code is None:
            return None, None, False
        # horizontal member drives axis order / reprojection
        return h_code, h_epoch or v_epoch, True
    return None, None, False


def _is_latlon(code) -> bool:
    """True when the EPSG code is a geographic CRS whose authority
    axis order is lat,lon (place coordinates need the GIS swap).
    CRS84 arrives as the string sentinel "CRS84" and never swaps."""
    # 3-D geographic CRSs (lat,lon,h) the 2-D registry doesn't carry
    _geog3d = {4979, 4937, 4959, 4957, 7912, 9989}
    return isinstance(code, int) and (code in GEOGRAPHIC_CODES
                                      or code in _geog3d)


# ---------------------------------------------------------------------------
# geometry conversion
# ---------------------------------------------------------------------------


def _coord_width(g: dict) -> int:
    c = g.get("coordinates")
    if c is None:
        w = 0
        for s in g.get("geometries", []):
            w = max(w, _coord_width(s))
        return w
    probe = c
    while probe and isinstance(probe[0], (list, tuple)):
        probe = probe[0]
    return len(probe) if isinstance(probe, (list, tuple)) else 0


def _dims_for(width: int, measures: bool) -> str:
    if measures:
        return "xyzm" if width >= 4 else "xym"
    return "xyz" if width >= 3 else "xy"


def _arr(coords, dims: str) -> np.ndarray:
    a = np.asarray(coords, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    return a[:, : len(dims)]


_CODE = {"MultiPoint": W.MULTIPOINT, "MultiLineString": W.MULTILINESTRING,
         "MultiPolygon": W.MULTIPOLYGON, "CompoundCurve": W.COMPOUNDCURVE,
         "CurvePolygon": W.CURVEPOLYGON, "MultiCurve": W.MULTICURVE,
         "MultiSurface": W.MULTISURFACE,
         "PolyhedralSurface": W.POLYHEDRALSURFACE}


def fg_geom_to_wkb(g: dict, measures: bool = False,
                   dims: str | None = None) -> bytes:
    """JSON-FG geometry object -> ISO WKB (curve types, Z/M/ZM)."""
    t = g["type"]
    if dims is None:
        dims = _dims_for(_coord_width(g), measures)
    if t == "Point":
        return W.point_wkb_d(_arr(g["coordinates"], dims)[0], dims)
    if t == "LineString":
        return W.linestring_wkb_d(_arr(g["coordinates"], dims), dims)
    if t == "CircularString":
        return W.circularstring_wkb(_arr(g["coordinates"], dims), dims)
    if t == "Polygon":
        rings = [_arr(r, dims) for r in g["coordinates"]]
        return W.polygon_wkb_d(rings, dims)
    if t in ("MultiPoint", "MultiLineString", "MultiPolygon"):
        sub = t[5:]
        parts = [fg_geom_to_wkb({"type": sub, "coordinates": s},
                                measures, dims)
                 for s in g["coordinates"]]
        return W.collection_wkb(_CODE[t], parts, dims)
    if t == "GeometryCollection":
        return W.collection_wkb(W.GEOMETRYCOLLECTION, [
            fg_geom_to_wkb(s, measures) for s in g["geometries"]])
    _CHILD_OK = {
        "CompoundCurve": {"LineString", "CircularString"},
        "CurvePolygon": {"LineString", "CircularString", "CompoundCurve"},
        "MultiCurve": {"LineString", "CircularString", "CompoundCurve"},
        "MultiSurface": {"Polygon", "CurvePolygon"},
        "PolyhedralSurface": {"Polygon"},
    }
    if t in _CHILD_OK:
        for s in g["geometries"]:
            if s["type"] not in _CHILD_OK[t]:
                # the reference warns and nulls the geometry
                # (test_jsonfg_read_bad_geoms)
                raise ValueError(
                    f"invalid {s['type']!r} child inside {t!r}")
        parts = [fg_geom_to_wkb(s, measures, dims)
                 for s in g["geometries"]]
        return W.collection_wkb(_CODE[t], parts, dims)
    raise ValueError(f"unsupported JSON-FG geometry type {t!r}")


def prism_to_wkb(place: dict) -> bytes:
    """Prism -> WKB per the reference's extrusion rules
    (ogr_jsonfg.py pylon/fence/prism tests): Point base -> vertical
    LINESTRING Z; LineString base -> MULTIPOLYGON Z of one wall quad
    per segment; Polygon base -> closed POLYHEDRALSURFACE Z (bottom
    face, one wall per exterior-ring edge, top face)."""
    base = place["base"]
    lo = float(place.get("lower", 0.0))
    hi = float(place["upper"])
    t = base["type"]
    if t == "Point":
        x, y = base["coordinates"][:2]
        return W.linestring_wkb_d(
            np.array([[x, y, lo], [x, y, hi]]), "xyz")
    if t == "LineString":
        c = np.asarray(base["coordinates"], dtype=np.float64)[:, :2]
        quads = []
        for i in range(len(c) - 1):
            (x1, y1), (x2, y2) = c[i], c[i + 1]
            ring = np.array([[x1, y1, lo], [x2, y2, lo], [x2, y2, hi],
                             [x1, y1, hi], [x1, y1, lo]])
            quads.append(W.polygon_wkb_d([ring], "xyz"))
        return W.collection_wkb(W.MULTIPOLYGON, quads, "xyz")
    if t == "Polygon":
        ring = np.asarray(base["coordinates"][0], dtype=np.float64)[:, :2]
        faces = []
        bottom = np.hstack([ring, np.full((len(ring), 1), lo)])
        faces.append(W.polygon_wkb_d([bottom], "xyz"))
        for i in range(len(ring) - 1):
            (x1, y1), (x2, y2) = ring[i], ring[i + 1]
            quad = np.array([[x1, y1, lo], [x2, y2, lo], [x2, y2, hi],
                             [x1, y1, hi], [x1, y1, lo]])
            faces.append(W.polygon_wkb_d([quad], "xyz"))
        top = np.hstack([ring, np.full((len(ring), 1), hi)])
        faces.append(W.polygon_wkb_d([top], "xyz"))
        return W.collection_wkb(W.POLYHEDRALSURFACE, faces, "xyz")
    raise ValueError(f"unsupported Prism base type {t!r}")


def _swap_coords(g: dict) -> dict:
    """Recursively swap the first two coordinate elements (authority
    lat,lon -> GIS lon,lat) of a geometry object."""
    def swap(c):
        if c and isinstance(c[0], (list, tuple)):
            return [swap(s) for s in c]
        return [c[1], c[0], *c[2:]]

    out = dict(g)
    if "coordinates" in out and out["coordinates"] is not None:
        out["coordinates"] = swap(out["coordinates"])
    if "geometries" in out:
        out["geometries"] = [_swap_coords(s) for s in out["geometries"]]
    if "base" in out and isinstance(out["base"], dict):
        out["base"] = _swap_coords(out["base"])
    return out


def _reproject_geom(g: dict, src: int, dst: int) -> dict:
    """Reproject a geometry object's x,y in GIS order src->dst EPSG
    (z/m pass through).  Small-side only - runs per feature inside a
    file task."""
    from gdal_ray.proj.transformer import transform_points

    def rep(c):
        if c and isinstance(c[0], (list, tuple)):
            return [rep(s) for s in c]
        x, y, _ = transform_points(f"EPSG:{src}", f"EPSG:{dst}",
                                   np.array([c[0]]), np.array([c[1]]))
        return [float(x[0]), float(y[0]), *c[2:]]

    out = dict(g)
    if "coordinates" in out and out["coordinates"] is not None:
        out["coordinates"] = rep(out["coordinates"])
    if "geometries" in out:
        out["geometries"] = [_reproject_geom(s, src, dst)
                             for s in out["geometries"]]
    if "base" in out and isinstance(out["base"], dict):
        out["base"] = _reproject_geom(out["base"], src, dst)
    return out


# ---------------------------------------------------------------------------
# time handling
# ---------------------------------------------------------------------------

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_TS_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(?:\.\d+)?"
    r"(Z|[+-]\d{2}:?\d{2})?$")


def _fmt_instant(v: str | None, force_datetime: bool) -> str | None:
    """ISO instant -> OGR text form (2023/06/05[ 12:34:56+00])."""
    if v is None or v == "..":
        return None
    m = _DATE_RE.match(v)
    if m:
        d = f"{m.group(1)}/{m.group(2)}/{m.group(3)}"
        return d + " 00:00:00" if force_datetime else d
    m = _TS_RE.match(v)
    if m:
        tz = m.group(7)
        if tz == "Z":
            tzs = "+00"
        elif tz:
            tzs = tz[:3]
        else:
            tzs = ""
        return (f"{m.group(1)}/{m.group(2)}/{m.group(3)} "
                f"{m.group(4)}:{m.group(5)}:{m.group(6)}{tzs}")
    return v


def _collect_time(feats: list[dict]):
    """-> (has_instant, has_interval, instants_are_dates,
    intervals_are_dates) over the feature list."""
    has_i = has_iv = False
    i_dates = iv_dates = True
    for f in feats:
        t = f.get("time")
        if not isinstance(t, dict):
            continue
        if "date" in t or "timestamp" in t:
            has_i = True
            if "timestamp" in t:
                i_dates = False
        if "interval" in t:
            has_iv = True
            for end in t["interval"]:
                if end != ".." and not _DATE_RE.match(end):
                    iv_dates = False
    return has_i, has_iv, i_dates, iv_dates


# ---------------------------------------------------------------------------
# document reader
# ---------------------------------------------------------------------------


def parse_jsonfg(data: bytes | str, layer: str | None = None):
    """One JSON-FG document -> (pyarrow.Table, meta).

    meta: {"crs": "EPSG:n"|None, "crs_valid": bool, "layers": [...],
    "epoch": float|None}.  ``layer`` selects a featureType when the
    document carries several; default = the only / unnamed layer.
    """
    obj = json.loads(data.decode("utf-8") if isinstance(data, bytes)
                     else data)
    measures = bool((obj.get("measures") or {}).get("enabled"))
    top_ft = obj.get("featureType")
    if obj.get("type") == "FeatureCollection":
        feats = obj["features"]
    elif obj.get("type") == "Feature":
        feats = [obj]
    else:  # bare (possibly extended) geometry document
        feats = [{"type": "Feature", "place": obj,
                  "coordRefSys": obj.get("coordRefSys"),
                  "properties": {}}]

    fc_code, fc_epoch, fc_valid = parse_coordrefsys(obj.get("coordRefSys"))
    fc_explicit = obj.get("coordRefSys") is not None

    # layer split by featureType
    layers: list[str] = []
    for f in feats:
        ft = f.get("featureType") or top_ft
        name = ft if isinstance(ft, str) else ""
        if name not in layers:
            layers.append(name)
    if layer is not None:
        feats = [f for f in feats
                 if (f.get("featureType") or top_ft or "") == layer]
    elif len(layers) > 1:
        raise ValueError(
            f"document has {len(layers)} featureType layers {layers}; "
            f"pass layer=")

    crs_valid = fc_valid
    # effective per-feature CRS: geometry-level coordRefSys (on the
    # place object) > feature-level > collection-level
    eff = []
    for f in feats:
        fv = None
        place = f.get("place")
        if isinstance(place, dict) and place.get("coordRefSys") is not None:
            fv = place["coordRefSys"]
        elif f.get("coordRefSys") is not None:
            fv = f["coordRefSys"]
        if fv is not None:
            code, _, ok = parse_coordrefsys(fv)
            crs_valid = crs_valid and ok
            eff.append((code, True))
        else:
            eff.append((fc_code, fc_explicit))
    def _n(c):
        return 4326 if c == "CRS84" else c

    codes = {_n(c) for c, _ in eff}
    if len(codes) == 1:
        layer_code = codes.pop()
        layer_explicit = any(e for _, e in eff) if eff else fc_explicit
        mixed = False
    elif fc_explicit and fc_code is not None:
        layer_code, layer_explicit, mixed = _n(fc_code), True, False
    else:
        layer_code, layer_explicit, mixed = None, False, True

    has_i, has_iv, i_dates, iv_dates = _collect_time(feats)
    prop_keys: list[str] = []
    seen = set()
    for f in feats:
        for k in (f.get("properties") or {}):
            if k not in seen:
                seen.add(k)
                prop_keys.append(k)
    time_col = "jsonfg_time" if "time" in seen else "time"

    cols: dict[str, list] = {k: [] for k in prop_keys}
    fids, geoms, feat_crs = [], [], []
    t_i, t_s, t_e = [], [], []
    for f, (code, explicit) in zip(feats, eff):
        p = f.get("properties") or {}
        for k in prop_keys:
            cols[k].append(p.get(k))
        fids.append(f.get("id"))
        place = f.get("place")
        if place is not None:
            g = place
            if explicit and _is_latlon(code):
                g = _swap_coords(g)
            ncode = _n(code)
            if (layer_code is not None and ncode is not None
                    and ncode != layer_code):
                g = _reproject_geom(g, ncode, layer_code)
            try:
                if g["type"] == "Prism":
                    geoms.append(prism_to_wkb(g))
                else:
                    geoms.append(fg_geom_to_wkb(g, measures))
            except ValueError:
                # invalid child type: warn-and-null, the reference's
                # test_jsonfg_read_bad_geoms contract
                geoms.append(None)
            feat_crs.append(f"EPSG:{ncode}" if ncode is not None else None)
        else:
            g = f.get("geometry")
            if g is None:
                geoms.append(None)
                feat_crs.append(None)
            else:
                # geometry member is CRS84 lon,lat
                if (layer_code is not None
                        and layer_code not in GEOGRAPHIC_CODES):
                    g = _reproject_geom(g, 4326, layer_code)
                geoms.append(fg_geom_to_wkb(g, False))
                feat_crs.append("EPSG:4326")
        t = f.get("time")
        t = t if isinstance(t, dict) else {}
        inst = t.get("timestamp") or t.get("date")
        t_i.append(_fmt_instant(inst, not i_dates))
        iv = t.get("interval") or [None, None]
        t_s.append(_fmt_instant(iv[0], not iv_dates))
        t_e.append(_fmt_instant(iv[1], not iv_dates))

    out: dict[str, pa.Array] = {}
    if any(v is not None for v in fids):
        try:
            out["fid"] = pa.array(fids)
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            out["fid"] = pa.array(
                [None if v is None else str(v) for v in fids])
    for k in prop_keys:
        try:
            out[k] = pa.array(cols[k])
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            # mixed types promote to string (two_feature_types: foo
            # holds 1 and "bar" -> "1", "bar")
            out[k] = pa.array(
                [None if v is None
                 else (json.dumps(v) if isinstance(v, (dict, list))
                       else str(v)) for v in cols[k]])
    if has_i:
        out[time_col] = pa.array(t_i, pa.string())
    if has_iv:
        out["time_start"] = pa.array(t_s, pa.string())
        out["time_end"] = pa.array(t_e, pa.string())
    if mixed:
        out["jsonfg_crs"] = pa.array(feat_crs, pa.string())
    out["geometry"] = pa.array(geoms, pa.binary())
    meta = {
        "crs": (f"EPSG:{layer_code}"
                if layer_code is not None and layer_explicit else
                ("EPSG:4326" if not mixed and crs_valid else None)),
        "crs_valid": crs_valid,
        "layers": layers,
        "epoch": fc_epoch,
    }
    if not crs_valid:
        meta["crs"] = None
    return pa.table(out), meta


def jsonfg_layers(path: str) -> list[str]:
    """featureType layer names in a document ('' = the unnamed
    default layer)."""
    from gdal_ray.vsi import vsi_read_bytes

    return parse_jsonfg(vsi_read_bytes(path), layer="\x00")[1]["layers"]


def read_jsonfg(paths, layer: str | None = None,
                columns: list[str] | None = None):
    """JSON-FG file(s) -> Ray Dataset with a WKB ``geometry`` column.

    One file = one task (unsplittable document), the
    read_geojson sharding model."""
    from gdal_ray.formats import _binary_ds

    ds = _binary_ds(paths)

    def parse(batch: pa.Table) -> pa.Table:
        tables = []
        for data in batch["bytes"]:
            t, _ = parse_jsonfg(bytes(data.as_py()), layer=layer)
            if columns is not None:
                keep = [c for c in t.column_names if c in columns]
                t = t.select(keep)
            tables.append(t)
        return pa.concat_tables(tables, promote_options="default")

    return ds.map_batches(parse, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def _wkb_to_fg_geom(buf: bytes):
    """WKB -> (geojson_dict|None, place_dict|None, has_m, has_curve).
    GeoJSON-representable types go to the geometry slot; curve /
    polyhedral / M-bearing types go to place."""
    g = W.parse(buf)
    has_m = "m" in g["dims"]

    def node(n: dict):
        t = n["type"]

        def rows(d):
            cols = [d["coords"]]
            if "z" in d:
                cols.append(d["z"][:, None])
            if "m" in d:
                cols.append(d["m"][:, None])
            a = np.hstack(cols)
            return [[float(v) for v in row] for row in a]

        def ring_rows(d, i):
            cols = [d["rings"][i]]
            if "rings_z" in d:
                cols.append(d["rings_z"][i][:, None])
            if "rings_m" in d:
                cols.append(d["rings_m"][i][:, None])
            a = np.hstack(cols)
            return [[float(v) for v in row] for row in a]

        if t == W.POINT:
            return {"type": "Point", "coordinates": rows(n)[0]}
        if t == W.LINESTRING:
            return {"type": "LineString", "coordinates": rows(n)}
        if t == W.CIRCULARSTRING:
            return {"type": "CircularString", "coordinates": rows(n)}
        if t == W.POLYGON:
            return {"type": "Polygon",
                    "coordinates": [ring_rows(n, i)
                                    for i in range(len(n["rings"]))]}
        if t in (W.MULTIPOINT, W.MULTILINESTRING, W.MULTIPOLYGON):
            name = {W.MULTIPOINT: "MultiPoint",
                    W.MULTILINESTRING: "MultiLineString",
                    W.MULTIPOLYGON: "MultiPolygon"}[t]
            return {"type": name,
                    "coordinates": [node(p)["coordinates"]
                                    for p in n["parts"]]}
        if t == W.GEOMETRYCOLLECTION:
            return {"type": "GeometryCollection",
                    "geometries": [node(p) for p in n["parts"]]}
        name = {W.COMPOUNDCURVE: "CompoundCurve",
                W.CURVEPOLYGON: "CurvePolygon",
                W.MULTICURVE: "MultiCurve",
                W.MULTISURFACE: "MultiSurface",
                W.POLYHEDRALSURFACE: "PolyhedralSurface",
                W.TIN: "PolyhedralSurface"}.get(t)
        if name is None:
            raise ValueError(f"unsupported WKB type {t}")
        return {"type": name, "geometries": [node(p) for p in n["parts"]]}

    base = g["type"]
    curve = base in (W.CIRCULARSTRING, W.COMPOUNDCURVE, W.CURVEPOLYGON,
                     W.MULTICURVE, W.MULTISURFACE, W.POLYHEDRALSURFACE,
                     W.TIN)
    obj = node(g)
    if curve or has_m:
        return None, obj, has_m, curve
    return obj, None, has_m, curve


def write_jsonfg(table_or_ds, path: str, crs: str = "OGC:CRS84",
                 geom_col: str = "geometry",
                 feature_type: str | None = None) -> int:
    """Dataset / Table -> one JSON-FG FeatureCollection file.

    Projected ``crs``: native coordinates go to ``place`` and a
    CRS84-reprojected copy to ``geometry`` (the reference's writer
    rule); geographic / CRS84: geometry only.  Curve, polyhedral and
    M-bearing geometries are not GeoJSON-representable and are
    written to ``place`` with a null ``geometry`` (with CRS84 place
    coordinates that round-trips losslessly).  Returns the feature
    count."""
    import pyarrow as _pa

    from gdal_ray.proj.transformer import transform_points

    if hasattr(table_or_ds, "iter_batches"):
        batches = table_or_ds.iter_batches(batch_format="pyarrow")
    else:
        batches = [table_or_ds]

    c = str(crs).upper().replace("OGC:", "").replace("CRS:", "")
    projected = False
    code = None
    if c.startswith("EPSG:"):
        code = int(c.split(":")[1])
        projected = code not in GEOGRAPHIC_CODES
    uri = (f"http://www.opengis.net/def/crs/EPSG/0/{code}"
           if code is not None else
           "http://www.opengis.net/def/crs/OGC/0/CRS84")

    feats = []
    any_m = any_curve = False
    for t in batches:
        if isinstance(t, _pa.RecordBatch):
            t = _pa.Table.from_batches([t])
        names = [n for n in t.column_names if n != geom_col]
        rows = t.select(names).to_pylist() if names else [{} for _ in
                                                          range(len(t))]
        for props, wkb in zip(rows, t[geom_col].to_pylist()):
            fid = props.pop("fid", None)
            feat = {"type": "Feature"}
            if fid is not None:
                feat["id"] = fid
            if feature_type:
                feat["featureType"] = feature_type
            if wkb is None:
                feat["geometry"] = None
                feat["place"] = None
            else:
                geo, place, has_m, has_curve = _wkb_to_fg_geom(bytes(wkb))
                any_m |= has_m
                any_curve |= has_curve or place is not None
                if projected:
                    # native coords -> place; CRS84 copy -> geometry
                    native = geo if geo is not None else place

                    def rep(cc):
                        if cc and isinstance(cc[0], (list, tuple)):
                            return [rep(s) for s in cc]
                        x, y, _ = transform_points(
                            f"EPSG:{code}", "EPSG:4326",
                            np.array([cc[0]]), np.array([cc[1]]))
                        return [round(float(x[0]), 10),
                                round(float(y[0]), 10), *cc[2:]]

                    def rep_geom(gg):
                        out = dict(gg)
                        if out.get("coordinates") is not None:
                            out["coordinates"] = rep(out["coordinates"])
                        if "geometries" in out:
                            out["geometries"] = [rep_geom(s)
                                                 for s in out["geometries"]]
                        return out

                    feat["place"] = native
                    feat["geometry"] = (rep_geom(geo)
                                        if geo is not None else None)
                else:
                    feat["geometry"] = geo
                    feat["place"] = place
            feat["properties"] = props or None
            feat["time"] = None
            feats.append(feat)

    conforms = ["[ogc-json-fg-1-0.3:core]"]
    if any_curve:
        conforms.append("[ogc-json-fg-1-0.3:circular-arcs]")
    if any_m:
        conforms.append("[ogc-json-fg-1-0.3:measures]")
    doc = {"type": "FeatureCollection", "conformsTo": conforms}
    if code is not None:
        doc["coordRefSys"] = uri
    if any_m:
        doc["measures"] = {"enabled": True}
    if feature_type:
        doc["featureType"] = feature_type
    doc["features"] = feats

    from gdal_ray.vsi import vsi_write_bytes

    vsi_write_bytes(path, json.dumps(doc, indent=1).encode("utf-8"))
    return len(feats)
