"""TopoJSON vector driver — reference role
ogr/ogrsf_frmts/geojson (OGRTopoJSON reader inside
ogrgeojsonreader.cpp), re-derived from the published TopoJSON 1.0
specification: a Topology document with a shared ``arcs`` table
(delta-encoded integer positions when a quantizing ``transform`` is
present: position = cumsum(q)·scale + translate; plain positions
otherwise), geometry objects referencing arcs by index (negative
index ~i means arc ~i reversed), junction points deduplicated when
concatenating arcs.

Layer model (matches the reference's): every NAMED GeometryCollection
— by its ``id`` when ``objects`` is an array, by its key when it is a
dict — becomes its own layer carrying that collection's geometries;
every other top-level geometry object lands in the catch-all
"TopoJSON" layer.  Malformed-but-typed geometries follow the
reference's leniency, pinned by its own topojson1 expectations table:
a feature is emitted iff its ``coordinates``/``arcs`` member is
present AND is a JSON array; any invalid content inside (null arc
ids, out-of-range indices, arcs that decode to fewer than two valid
positions, non-numeric coordinates) yields the typed EMPTY geometry.
Fields: ``id`` plus every ``properties`` key, stringified (the
reference types both as String here).

Pinned against all three reference fixtures: topojson1's 35-row
expectations table verbatim, topojson2 (objects-as-dict), topojson3
(no transform)."""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as W

class _Topology:
    def __init__(self, doc: dict):
        self.raw_arcs = doc.get("arcs") or []
        tr = doc.get("transform") or {}
        self.scale = tr.get("scale")
        self.translate = tr.get("translate")
        self._cache: dict[int, np.ndarray | None] = {}

    def point(self, pos) -> tuple | None:
        if not isinstance(pos, list) or len(pos) < 2 or \
                not all(isinstance(v, (int, float)) for v in pos[:2]):
            return None
        x, y = float(pos[0]), float(pos[1])
        if self.scale:
            x = x * self.scale[0] + self.translate[0]
            y = y * self.scale[1] + self.translate[1]
        return x, y

    def arc(self, i: int) -> np.ndarray | None:
        """Decoded arc i (non-negative index) as (n,2) float64."""
        if i in self._cache:
            return self._cache[i]
        out = None
        if 0 <= i < len(self.raw_arcs):
            raw = self.raw_arcs[i]
            if isinstance(raw, list) and len(raw) >= 2 and all(
                    isinstance(p, list) and len(p) >= 2
                    and all(isinstance(v, (int, float)) for v in p[:2])
                    for p in raw):
                a = np.asarray([[p[0], p[1]] for p in raw], np.float64)
                if self.scale:
                    a = np.cumsum(a, axis=0)
                    a[:, 0] = a[:, 0] * self.scale[0] + self.translate[0]
                    a[:, 1] = a[:, 1] * self.scale[1] + self.translate[1]
                out = a
        self._cache[i] = out
        return out

    def line(self, arc_ids) -> np.ndarray | None:
        """Concatenate arcs (negative = reversed), deduplicating
        junction points; None if any arc is invalid."""
        if not isinstance(arc_ids, list) or not arc_ids:
            return None
        parts = []
        for aid in arc_ids:
            if not isinstance(aid, int) or isinstance(aid, bool):
                return None
            a = self.arc(aid if aid >= 0 else ~aid)
            if a is None:
                return None
            parts.append(a if aid >= 0 else a[::-1])
        out = [parts[0]]
        for p in parts[1:]:
            out.append(p[1:] if np.array_equal(p[0], out[-1][-1])
                       else p)
        return np.vstack(out)


def _geom_wkb(g: dict, topo: _Topology) -> bytes | None:
    """→ WKB, or None when the geometry must not become a feature."""
    t = g.get("type")
    if t == "Point":
        c = g.get("coordinates")
        if not isinstance(c, list):
            return None
        p = topo.point(c)
        return W.point_wkb(*p) if p else W.point_wkb(np.nan, np.nan)
    if t == "MultiPoint":
        c = g.get("coordinates")
        if not isinstance(c, list):
            return None
        pts = [topo.point(p) for p in c]
        if not pts or any(p is None for p in pts):
            return W.collection_wkb(W.MULTIPOINT, [])
        return W.collection_wkb(W.MULTIPOINT, [W.point_wkb(*p) for p in pts])
    if t == "LineString":
        ids = g.get("arcs")
        if not isinstance(ids, list):
            return None
        line = topo.line(ids)
        return W.linestring_wkb(line if line is not None else np.empty((0, 2)))
    if t == "MultiLineString":
        ids = g.get("arcs")
        if not isinstance(ids, list):
            return None
        lines = [topo.line(l) for l in ids]
        if not lines or any(l is None for l in lines):
            return W.collection_wkb(W.MULTILINESTRING, [])
        return W.collection_wkb(W.MULTILINESTRING,
                                [W.linestring_wkb(l) for l in lines])
    if t == "Polygon":
        ids = g.get("arcs")
        if not isinstance(ids, list):
            return None
        rings = [topo.line(r) if isinstance(r, list) else None
                 for r in ids]
        if not rings or any(r is None for r in rings):
            return W.polygon_wkb_d([])
        return W.polygon_wkb(rings[0], rings[1:])
    if t == "MultiPolygon":
        ids = g.get("arcs")
        if not isinstance(ids, list):
            return None
        polys = []
        for poly in ids:
            if not isinstance(poly, list) or not poly:
                return W.collection_wkb(W.MULTIPOLYGON, [])
            rings = [topo.line(r) if isinstance(r, list) else None
                     for r in poly]
            if any(r is None for r in rings):
                return W.collection_wkb(W.MULTIPOLYGON, [])
            polys.append((rings[0], rings[1:]))
        if not polys:
            return W.collection_wkb(W.MULTIPOLYGON, [])
        return W.multipolygon_wkb(polys)
    return None  # unknown / non-geometry type


def _features(geoms, topo: _Topology):
    rows = []
    for g in geoms:
        if not isinstance(g, dict):
            continue
        wkb = _geom_wkb(g, topo)
        if wkb is None:
            continue
        props = g.get("properties")
        props = props if isinstance(props, dict) else {}
        row = {"id": g.get("id"), "geometry": wkb}
        for k, v in props.items():
            row[k] = v
        rows.append(row)
    return rows


def read_topojson(path: str) -> dict[str, pa.Table]:
    """→ {layer name: Arrow table} — named GeometryCollections as
    their own layers, everything else in "TopoJSON"."""
    text = open(path, encoding="utf-8").read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        # the reference parses through json-c, which tolerates
        # trailing commas (its own topojson1 fixture uses them)
        import re

        doc = json.loads(re.sub(r",(\s*[}\]])", r"\1", text))
    if doc.get("type") != "Topology":
        raise ValueError("TopoJSON: not a Topology document")
    topo = _Topology(doc)
    objects = doc.get("objects")
    layers: dict[str, list] = {}
    catch_all: list = []
    items = []
    if isinstance(objects, list):
        items = [(None, o) for o in objects]
    elif isinstance(objects, dict):
        items = list(objects.items())
    for key, obj in items:
        if not isinstance(obj, dict):
            continue
        if obj.get("type") == "GeometryCollection":
            geoms = obj.get("geometries")
            if not isinstance(geoms, list):
                continue
            name = key or obj.get("id")
            if name:
                layers.setdefault(str(name), []).extend(geoms)
            else:
                catch_all.extend(geoms)
        else:
            catch_all.append(obj)
    out: dict[str, pa.Table] = {}
    for name, geoms in list(layers.items()) + (
            [("TopoJSON", catch_all)] if catch_all else []):
        rows = _features(geoms, topo)
        keys = ["id"]
        for r in rows:
            for k in r:
                if k not in keys and k != "geometry":
                    keys.append(k)
        cols = {}
        for k in keys:
            cols[k] = pa.array(
                [None if r.get(k) is None else str(r.get(k))
                 for r in rows], pa.string())
        cols["geometry"] = pa.array([r["geometry"] for r in rows],
                                    pa.binary())
        out[name] = pa.table(cols)
    return out


def read_topojson_dataset(paths, layer: str | None = None):
    """File-per-task distributed read of one layer (default: the
    catch-all "TopoJSON" layer, else the single named layer)."""
    import ray.data as rd

    if isinstance(paths, str):
        paths = [paths]

    def load(batch: pa.Table) -> pa.Table:
        tabs = []
        for p in batch["path"].to_pylist():
            lyrs = read_topojson(p)
            name = layer or ("TopoJSON" if "TopoJSON" in lyrs
                             else next(iter(lyrs)))
            tabs.append(lyrs[name])
        return pa.concat_tables(tabs, promote_options="permissive")

    return rd.from_items([{"path": p} for p in paths]).map_batches(
        load, batch_format="pyarrow")
