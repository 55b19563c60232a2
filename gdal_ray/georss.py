"""GeoRSS vector driver — reference role
ogr/ogrsf_frmts/georss (ogrgeorsslayer.cpp), re-derived from the
GeoRSS-Simple / W3C-geo specs and GDAL's documented field-flattening
rules:

- RSS 2.0 ``<item>`` / ATOM 1.0 ``<entry>`` → features.
- Geometry: ``georss:point|line|polygon`` (space-separated LAT LON
  pairs — axis swap to x=lon), ``georss:box`` (lat1 lon1 lat2 lon2 →
  the reference's 5-point polygon ring), ``georss:where`` wrapping
  GML (delegated to the in-repo GML geometry parser), ``geo:lat`` +
  ``geo:long``.
- Fields: each child element becomes a field named by its local name
  with a repeat counter from the second occurrence on (category,
  category2); attributes append ``_attr`` (category_domain,
  link_rel/link_type/link_href, content_xml_lang for xml:lang);
  nested containers flatten with underscores (author_name,
  contributor2_name); mixed-content elements (ATOM xhtml content)
  keep their inner XML serialized.  pubDate/updated/published
  normalize to the reference's "YYYY/MM/DD HH:MM:SS±TZ" form.

Pinned against the reference autotest expectations verbatim
(ogr_georss.py: the 19-field atom table over atom_rfc_sample.xml in
both namespace forms; the simple-RSS point/line/polygon/box WKTs
with the category2/_domain fields; the GML-in-where variant)."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from email.utils import parsedate_to_datetime

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as W

_GEORSS_NS = "http://www.georss.org/georss"
_GEO_NS = "http://www.w3.org/2003/01/geo/wgs84_pos#"


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _fmt_dt(dt) -> str:
    off = dt.utcoffset()
    mins = 0 if off is None else int(off.total_seconds() // 60)
    sign = "+" if mins >= 0 else "-"
    mins = abs(mins)
    tz = f"{sign}{mins // 60:02d}" if mins % 60 == 0 \
        else f"{sign}{mins // 60:02d}{mins % 60:02d}"
    return dt.strftime("%Y/%m/%d %H:%M:%S") + tz


def _norm_date(text: str) -> str:
    text = text.strip()
    try:  # RFC 822 (RSS pubDate)
        return _fmt_dt(parsedate_to_datetime(text))
    except (TypeError, ValueError):
        pass
    try:  # ISO 8601 (ATOM updated/published)
        from datetime import datetime

        return _fmt_dt(datetime.fromisoformat(
            text.replace("Z", "+00:00")))
    except ValueError:
        return text


_DATE_FIELDS = {"pubDate", "updated", "published", "dc:date"}


def _latlon_pairs(text: str) -> np.ndarray:
    v = np.array(text.split(), np.float64)
    return np.column_stack([v[1::2], v[0::2]])  # lat lon → x=lon


def _geom_from(el) -> bytes | None:
    tag = _local(el.tag)
    if tag == "point":
        c = _latlon_pairs(el.text or "")
        return W.point_wkb(c[0, 0], c[0, 1]) if len(c) else None
    if tag == "line":
        return W.linestring_wkb(_latlon_pairs(el.text or ""))
    if tag == "polygon":
        ring = _latlon_pairs(el.text or "")
        if len(ring) and not np.array_equal(ring[0], ring[-1]):
            ring = np.vstack([ring, ring[0]])
        return W.polygon_wkb(ring)
    if tag == "box":
        v = np.array((el.text or "").split(), np.float64)
        lat1, lon1, lat2, lon2 = v[:4]
        ring = np.array([[lon1, lat1], [lon1, lat2], [lon2, lat2],
                         [lon2, lat1], [lon1, lat1]])
        return W.polygon_wkb(ring)
    if tag == "where":
        from gdal_ray.gml import _geom_wkb as gml_geom

        for child in list(el):
            try:
                # georss:where GML defaults to EPSG:4326 lat-lon
                # axis order (the urn form), hence the swap
                return gml_geom(child,
                                "urn:ogc:def:crs:EPSG::4326")
            except ValueError:
                continue
    return None


def _inner_xml(el) -> str:
    parts = [el.text or ""]
    for child in list(el):
        ns = child.tag[1:].split("}")[0] \
            if child.tag.startswith("{") else ""
        if ns:
            # serialize with the child's namespace as the DEFAULT
            # (xmlns="…"), matching the reference's output
            ET.register_namespace("", ns)
        parts.append(ET.tostring(child, encoding="unicode"))
        parts.append(child.tail or "")
    return "".join(parts).strip()


def _flatten(entry) -> tuple[dict, bytes | None, float | None,
                             float | None]:
    fields: dict[str, str] = {}
    counts: dict[str, int] = {}
    geom = None
    lat = lon = None
    for el in list(entry):
        tag = _local(el.tag)
        ns = el.tag[1:].split("}")[0] if el.tag.startswith("{") else ""
        if ns == _GEORSS_NS:
            g = _geom_from(el)
            if g is not None:
                geom = g
            continue
        if ns == _GEO_NS:
            if tag == "lat":
                lat = float(el.text)
            elif tag in ("long", "lon"):
                lon = float(el.text)
            continue
        counts[tag] = counts.get(tag, 0) + 1
        base = tag if counts[tag] == 1 else f"{tag}{counts[tag]}"
        children = list(el)
        is_xhtml = el.get("type") == "xhtml"
        if children and not is_xhtml:
            for sub in children:
                fields[f"{base}_{_local(sub.tag)}"] = \
                    (sub.text or "").strip()
        else:
            text = _inner_xml(el) if is_xhtml else \
                (el.text or "").strip()
            if text:
                fields[base] = _norm_date(text) \
                    if tag in _DATE_FIELDS else text
        for k, v in el.attrib.items():
            if k.startswith("{http://www.w3.org/XML/1998/namespace}"):
                # xml:lang / xml:base → base_xml_lang / base_xml_base
                fields[f"{base}_xml_{_local(k)}"] = v
            else:
                fields[f"{base}_{_local(k)}"] = v
    if geom is None and lat is not None and lon is not None:
        geom = W.point_wkb(lon, lat)
    return fields, geom, lat, lon


def read_georss(path: str) -> pa.Table:
    root = ET.parse(path).getroot()
    tag = _local(root.tag)
    entries = []
    if tag == "rss":
        for ch in root.iter():
            if _local(ch.tag) == "item":
                entries.append(ch)
    elif tag == "feed":
        for ch in list(root):
            if _local(ch.tag) == "entry":
                entries.append(ch)
    else:
        raise ValueError(f"GeoRSS: unknown document root {tag}")
    rows = []
    keys: list[str] = []
    for e in entries:
        fields, geom, _lat, _lon = _flatten(e)
        fields["geometry"] = geom
        rows.append(fields)
        for k in fields:
            if k not in keys and k != "geometry":
                keys.append(k)
    cols = {}
    for k in keys:
        vals = [r.get(k) for r in rows]
        if k.endswith("_length"):
            cols[k] = pa.array(
                [int(v) if v is not None else None for v in vals],
                pa.int64())
        else:
            cols[k] = pa.array(vals, pa.string())
    cols["geometry"] = pa.array([r.get("geometry") for r in rows],
                                pa.binary())
    return pa.table(cols)


def read_georss_dataset(path: str):
    """GeoRSS document → Ray Dataset (one read task; a feed is one
    small document)."""
    import ray.data as rd

    return rd.from_arrow(read_georss(path))
