"""GML / WFS FeatureCollection read driver — reference role
ogr/ogrsf_frmts/gml (which wraps its own expat scanner); this is a
from-scratch stdlib-ElementTree reader of the public GML 2.1/3.x
simple-features profile:

- features = children of ``featureMember`` / ``featureMembers`` /
  ``member`` containers; layer name = the feature element's local
  name; ``gml:id`` / ``fid`` attribute → ``gml_id``
- attribute fields = leaf children (typed int64/float64/string by
  whole-column inference, the reference's no-.xsd sampling role)
- geometries: Point/LineString/Polygon (+Curve/Surface with
  LineStringSegment/PolygonPatch), Multi* + MultiSurface/MultiCurve
  and MultiGeometry, from ``pos``/``posList`` (GML3) or
  ``coordinates`` (GML2) — emitted as ISO WKB through geom/wkb.py
- axis order: a ``urn:ogc(:x-ogc)?:def:crs:EPSG::…`` srsName with a
  GEOGRAPHIC code means lat,lon on the wire (the reference's urn
  rule) and is swapped to x=lon, y=lat; plain ``EPSG:…`` srsNames
  stay as written

``read_gml`` is the Dataset surface (file-per-task over a list, the
same shard shape as the other XML-ish drivers).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as W

_GEOM_TAGS = {
    "Point", "LineString", "Polygon", "Curve", "Surface",
    "MultiPoint", "MultiLineString", "MultiPolygon", "MultiSurface",
    "MultiCurve", "MultiGeometry", "LinearRing",
}
_MEMBER_TAGS = {"featureMember", "featureMembers", "member"}


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _srs_swaps(srs: str | None) -> bool:
    """urn-style EPSG srsName with a geographic code → lat,lon wire
    order (swap to x,y).  Geographic EPSG codes live in 4000–4999."""
    if not srs:
        return False
    m = re.match(r"urn:(?:x-)?ogc:def:crs:EPSG:[^:]*:?(\d+)$",
                 srs.strip(), re.I)
    if not m:
        return False
    return 4000 <= int(m.group(1)) < 5000


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.replace(",", " ").split()])


def _coords_of(el, swap: bool, dim: int = 2) -> np.ndarray:
    """pos/posList/coordinates under ``el`` → (n, 2) xy array."""
    for child in el.iter():
        t = _local(child.tag)
        if t in ("posList", "coordinates") and child.text:
            d = int(child.get("srsDimension", dim))
            v = _floats(child.text)
            pts = v.reshape(-1, d)[:, :2]
            return pts[:, ::-1] if swap else pts
        if t == "pos" and child.text:
            v = _floats(child.text)[:2]
            return np.array([[v[1], v[0]]] if swap else [v])
    raise ValueError("GML: geometry without coordinates")


def _rings(poly_el, swap: bool) -> list[np.ndarray]:
    rings = []
    for child in poly_el.iter():
        if _local(child.tag) == "LinearRing":
            rings.append(_coords_of(child, swap))
    return rings


def _geom_wkb(el, inherited_srs: str | None = None) -> bytes:
    tag = _local(el.tag)
    srs = el.get("srsName") or inherited_srs
    swap = _srs_swaps(srs)
    if tag == "Point":
        xy = _coords_of(el, swap)[0]
        return W.point_wkb(float(xy[0]), float(xy[1]))
    if tag in ("LineString", "Curve"):
        if tag == "Curve":  # concatenated LineStringSegments
            parts = [_coords_of(seg, swap) for seg in el.iter()
                     if _local(seg.tag) == "LineStringSegment"]
            coords = np.vstack([p if i == 0 else p[1:]
                                for i, p in enumerate(parts)]) \
                if parts else _coords_of(el, swap)
        else:
            coords = _coords_of(el, swap)
        return W.linestring_wkb(coords)
    if tag in ("Polygon", "Surface", "PolygonPatch"):
        rings = _rings(el, swap)
        if not rings:
            raise ValueError("GML: polygon without rings")
        return W.polygon_wkb(rings[0], rings[1:])
    if tag in ("MultiPoint", "MultiLineString", "MultiPolygon",
               "MultiSurface", "MultiCurve", "MultiGeometry"):
        parts = []
        for mem in list(el):
            if _local(mem.tag).endswith(("Member", "member",
                                         "Members", "members")):
                for g in list(mem):
                    if _local(g.tag) in _GEOM_TAGS or \
                            _local(g.tag) == "PolygonPatch":
                        parts.append(_geom_wkb(g, srs))
        code = {"MultiPolygon": W.MULTIPOLYGON, "MultiSurface": W.MULTIPOLYGON,
                "MultiLineString": W.MULTILINESTRING,
                "MultiCurve": W.MULTILINESTRING,
                "MultiPoint": W.MULTIPOINT}.get(tag, W.GEOMETRYCOLLECTION)
        return W.collection_wkb(code, parts)
    raise ValueError(f"GML: unsupported geometry {tag}")


def parse_gml(data: bytes) -> dict[str, pa.Table]:
    """GML bytes → {layer name: Arrow table} (geometry = ISO WKB)."""
    import xml.etree.ElementTree as ET

    root = ET.fromstring(data)
    layers: dict[str, list[dict]] = {}
    default_srs = None
    env = root.find(".//{*}Envelope")
    if env is not None:
        default_srs = env.get("srsName")

    def walk_members(el):
        for child in el:
            t = _local(child.tag)
            # custom collections use e.g. osgb:cartographicMember —
            # any *member/*Members container counts (bom.gml role)
            if t in _MEMBER_TAGS or t.endswith(
                    ("Member", "Members", "member", "members")):
                for feat in child:
                    yield feat
            elif t == "FeatureCollection":
                yield from walk_members(child)

    for feat in walk_members(root):
        name = _local(feat.tag)
        row: dict = {}
        for k, v in feat.attrib.items():
            if _local(k) in ("id", "fid"):
                row["gml_id"] = v
        geom = None
        for prop in list(feat):
            pt = _local(prop.tag)
            if pt == "boundedBy":
                continue
            kids = list(prop)
            if kids and _local(kids[0].tag) in _GEOM_TAGS:
                if geom is None:
                    geom = _geom_wkb(kids[0], default_srs)
                continue
            if pt in _GEOM_TAGS:  # bare geometry child
                if geom is None:
                    geom = _geom_wkb(prop, default_srs)
                continue
            if not kids:
                row[pt] = prop.text
        row["geometry"] = geom
        layers.setdefault(name, []).append(row)

    out = {}
    for name, rows in layers.items():
        keys: list[str] = []
        for r in rows:
            for k in r:
                if k not in keys and k != "geometry":
                    keys.append(k)
        cols = {}
        for k in keys:
            vals = [r.get(k) for r in rows]
            cols[k] = pa.array(_infer(vals))
        cols["geometry"] = pa.array(
            [r.get("geometry") for r in rows], pa.binary())
        out[name] = pa.table(cols)
    return out


def _infer(vals: list):
    """Whole-column type inference (the reference's no-xsd sampling):
    all-int → int64, all-float → float64, else strings."""
    nn = [v for v in vals if v is not None]
    if nn:
        try:
            ints = [int(v) for v in nn]
            if all(str(i) == str(v).strip() for i, v in zip(ints, nn)):
                return pa.array([None if v is None else int(v)
                                 for v in vals], pa.int64())
        except ValueError:
            pass
        try:
            return pa.array([None if v is None else float(v)
                             for v in vals], pa.float64())
        except ValueError:
            pass
    return pa.array(vals, pa.string())


def gml_layers(path: str) -> list[str]:
    from gdal_ray.vsi import vsi_read_bytes

    return list(parse_gml(vsi_read_bytes(path)).keys())


def read_gml_local(path: str, layer: str | None = None) -> pa.Table:
    from gdal_ray.vsi import vsi_read_bytes

    layers = parse_gml(vsi_read_bytes(path))
    if layer is None:
        layer = next(iter(layers))
    return layers[layer]


def read_gml(paths, layer: str | None = None):
    """GML file(s) → Dataset (file-per-task; the driver ships paths)."""
    import ray.data as rd

    if isinstance(paths, str):
        paths = [paths]
    ds = rd.from_items([{"path": p} for p in paths])

    def load(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([
            read_gml_local(p, layer)
            for p in batch["path"].to_pylist()])

    return ds.map_batches(load, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# write (the reference CreateDataSource role: ogr: namespace layout)
# ---------------------------------------------------------------------------


def _xml_escape(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _fmt(v: float) -> str:
    return f"{v:.15g}"


def _gml_geom(buf: bytes) -> str:
    """ISO WKB → GML3 geometry markup (x,y wire order — the plain
    EPSG srsName convention; the writer never emits urn axis flips)."""
    g = W.parse(buf)
    t = g["type"]
    if t == 1:
        x, y = g["coords"][0][:2]
        return (f"<gml:Point><gml:pos>{_fmt(x)} {_fmt(y)}</gml:pos>"
                "</gml:Point>")
    if t == 2:
        pos = " ".join(f"{_fmt(x)} {_fmt(y)}"
                       for x, y in np.asarray(g["coords"])[:, :2])
        return (f"<gml:LineString><gml:posList>{pos}</gml:posList>"
                "</gml:LineString>")
    if t == 3:
        rings = g["rings"]
        out = ["<gml:Polygon>"]
        for k, ring in enumerate(rings):
            tag = "exterior" if k == 0 else "interior"
            pos = " ".join(f"{_fmt(x)} {_fmt(y)}"
                           for x, y in np.asarray(ring)[:, :2])
            out.append(f"<gml:{tag}><gml:LinearRing><gml:posList>"
                       f"{pos}</gml:posList></gml:LinearRing>"
                       f"</gml:{tag}>")
        out.append("</gml:Polygon>")
        return "".join(out)
    if t in (4, 5, 6):
        name = {4: "MultiPoint", 5: "MultiCurve", 6: "MultiSurface"}[t]
        member = {4: "pointMember", 5: "curveMember",
                  6: "surfaceMember"}[t]
        parts = []
        import struct as _s

        n = _s.unpack_from("<I", buf, 5)[0]
        off = 9
        for _ in range(n):
            sub = W.parse(buf, off)
            parts.append(
                f"<gml:{member}>{_gml_geom(buf[off:sub['end']])}"
                f"</gml:{member}>")
            off = sub["end"]
        return f"<gml:{name}>{''.join(parts)}</gml:{name}>"
    if t == 7:
        import struct as _s

        n = _s.unpack_from("<I", buf, 5)[0]
        off = 9
        parts = []
        for _ in range(n):
            sub = W.parse(buf, off)
            parts.append("<gml:geometryMember>"
                         + _gml_geom(buf[off:sub["end"]])
                         + "</gml:geometryMember>")
            off = sub["end"]
        return f"<gml:MultiGeometry>{''.join(parts)}</gml:MultiGeometry>"
    raise ValueError(f"GML writer: unsupported WKB type {t}")


def write_gml_table(table: pa.Table, path: str,
                    layer: str = "layer") -> None:
    """Arrow table (ISO-WKB ``geometry`` column) → GML 3 simple
    features in the reference's ogr: namespace layout."""
    lines = [
        '<?xml version="1.0" encoding="utf-8" ?>',
        "<ogr:FeatureCollection",
        '     xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"',
        '     xmlns:ogr="http://ogr.maptools.org/"',
        '     xmlns:gml="http://www.opengis.net/gml">',
    ]
    fields = [c for c in table.column_names if c != "geometry"]
    for i in range(table.num_rows):
        lines.append("  <gml:featureMember>")
        lines.append(f'    <ogr:{layer} gml:id="{layer}.{i}">')
        buf = table["geometry"][i].as_py() \
            if "geometry" in table.column_names else None
        if buf is not None:
            lines.append("      <ogr:geometryProperty>"
                         + _gml_geom(buf) + "</ogr:geometryProperty>")
        for c in fields:
            v = table[c][i].as_py()
            if v is None:
                continue
            if isinstance(v, float):
                v = _fmt(v)
            lines.append(f"      <ogr:{c}>{_xml_escape(str(v))}"
                         f"</ogr:{c}>")
        lines.append(f"    </ogr:{layer}>")
        lines.append("  </gml:featureMember>")
    lines.append("</ogr:FeatureCollection>")
    from gdal_ray.vsi import vsi_write_bytes

    vsi_write_bytes(path, "\n".join(lines).encode("utf-8"))


def write_gml(ds, path: str, layer: str = "layer") -> None:
    """Dataset → one GML document (XML is a single-document format —
    the serial driver-side sink mirrors the reference's single-file
    writer; shard across MANY .gml files for scale, as with the
    other single-document sinks)."""
    t = pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow", batch_size=None))
    write_gml_table(t, path, layer)
