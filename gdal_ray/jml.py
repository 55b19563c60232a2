"""OpenJUMP JML vector driver — reference role
ogr/ogrsf_frmts/jml (ogrjmllayer.cpp), re-derived from OpenJUMP's
JCSDataFile layout: a ``JCSGMLInputTemplate`` declaring columns
(``valueElement`` matched by element name + optional attribute
name/value, ``valueLocation`` body or attribute) — columns anywhere
INSIDE the template count, lookalikes outside it do not (the
reference's own test.jml pins both) — then a ``featureCollection``
whose descendant ``feature`` elements carry values at any nesting
depth and a ``geometry`` element wrapping GML (delegated to the
in-repo GML parser).

Types: STRING/OBJECT → string, INTEGER → int64, DOUBLE → float64,
DATE → the reference's "YYYY/MM/DD HH:MM:SS[±TZ]" normalization
(date-only gets 00:00:00; ISO forms convert, +0200 → +02).  Empty
body values are NULL.  Pinned against the reference's test.jml
expectations verbatim (11 typed fields, all first-feature values,
the ISO datetime row, the empty-geometry row)."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import pyarrow as pa


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _norm_date(v: str) -> str | None:
    v = v.strip()
    if not v:
        return None
    m = re.match(r"^(\d{4})[-/](\d{2})[-/](\d{2})$", v)
    if m:
        return f"{m.group(1)}/{m.group(2)}/{m.group(3)} 00:00:00"
    m = re.match(r"^(\d{4})[-/](\d{2})[-/](\d{2})[T ]"
                 r"(\d{2}:\d{2}:\d{2})(?:\.\d+)?"
                 r"(Z|[+-]\d{2}:?\d{2})?$", v)
    if m:
        tz = m.group(5) or ""
        if tz == "Z":
            tz = "+00"
        elif tz:
            tz = tz.replace(":", "")
            tz = tz[:3] if tz.endswith("00") else tz
        return (f"{m.group(1)}/{m.group(2)}/{m.group(3)} "
                f"{m.group(4)}{tz}")
    return v


def read_jml(path: str) -> pa.Table:
    root = ET.parse(path).getroot()
    template = None
    for el in root.iter():
        if _local(el.tag) == "JCSGMLInputTemplate":
            template = el
            break
    if template is None:
        raise ValueError("JML: missing JCSGMLInputTemplate")
    columns = []
    for col in template.iter():
        if _local(col.tag) != "column":
            continue
        name = typ = None
        elem = attr_name = attr_value = None
        loc, loc_attr = "body", None
        for ch in list(col):
            t = _local(ch.tag)
            if t == "name":
                name = (ch.text or "").strip()
            elif t == "type":
                typ = (ch.text or "").strip().upper()
            elif t == "valueElement":
                elem = ch.get("elementName")
                attr_name = ch.get("attributeName")
                attr_value = ch.get("attributeValue")
            elif t == "valueLocation":
                loc = ch.get("position", "body")
                loc_attr = ch.get("attributeName")
        if name and elem:
            columns.append((name, typ or "STRING", elem, attr_name,
                            attr_value, loc, loc_attr))

    fc = None
    for el in root.iter():
        if _local(el.tag) == "featureCollection":
            fc = el
            break
    if fc is None:
        raise ValueError("JML: missing featureCollection")
    feats = [el for el in fc.iter() if _local(el.tag) == "feature"]

    from gdal_ray.gml import _geom_wkb as gml_geom

    rows = []
    for f in feats:
        row: dict = {}
        geom = None
        for el in f.iter():
            if el is f:
                continue
            if _local(el.tag) == "geometry" and geom is None:
                for g in list(el):
                    try:
                        geom = gml_geom(g, None)
                        break
                    except ValueError:
                        continue
        for (name, typ, elem, an, av, loc, la) in columns:
            val = None
            for el in f.iter():
                if el is f or _local(el.tag) != elem:
                    continue
                if an is not None and el.get(an) != av:
                    continue
                raw = el.get(la) if loc == "attribute" \
                    else (el.text or "")
                raw = (raw or "").strip()
                if typ == "INTEGER":
                    val = int(raw) if raw else None
                elif typ == "DOUBLE":
                    val = float(raw) if raw else None
                elif typ == "DATE":
                    val = _norm_date(raw)
                else:
                    val = raw or None
                break
            row[name] = val
        row["geometry"] = geom
        rows.append(row)

    _PA = {"INTEGER": pa.int64(), "DOUBLE": pa.float64()}
    cols = {}
    for (name, typ, *_rest) in columns:
        cols[name] = pa.array([r.get(name) for r in rows],
                              _PA.get(typ, pa.string()))
    cols["geometry"] = pa.array([r["geometry"] for r in rows],
                                pa.binary())
    return pa.table(cols)


def read_jml_dataset(path: str):
    """JML document → Ray Dataset (one read task)."""
    import ray.data as rd

    return rd.from_arrow(read_jml(path))
