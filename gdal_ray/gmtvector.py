"""OGR GMT ASCII vector driver — reference role
ogr/ogrsf_frmts/gmt (ogrgmtlayer.cpp), re-derived from GDAL's
documented "GMT ASCII Vectors" dialect:

  # @VGMT1.0 @G<GEOMTYPE>    header (POINT/LINESTRING/POLYGON/MULTI*)
  # @R<minx/maxx/miny/maxy>  region   # @Je/@Jp/@Jw  CRS forms
  # @N<name|name|…> @T<type|type|…>   field names / types
  > segment separators; # @D"v"|v|…  per-feature attribute row
  # @P / # @H   polygon outer/hole ring markers

Feature model (pinned by the reference's test_multi.gmt): a segment
carrying an @D row starts a NEW feature; following bare segments
append parts to it (multi types) or rings (@H holes).  Field types:
integer→int64, double/datetime/string→float64/string/string.
The writer emits the same dialect and roundtrips through this
reader (the reference's own test 2 shape: poly.shp → .gmt →
re-read)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as W

_TYPES = {"integer": pa.int64(), "double": pa.float64(),
          "datetime": pa.string(), "string": pa.string()}


def _split_bar(s: str) -> list[str]:
    out, buf, in_q = [], [], False
    for c in s:
        if c == '"':
            in_q = not in_q
        elif c == "|" and not in_q:
            out.append("".join(buf))
            buf = []
        else:
            buf.append(c)
    out.append("".join(buf))
    return out


def _finish(gtype: str, parts: list) -> bytes:
    import struct

    if gtype == "POINT":
        return W.point_wkb(*parts[0][0])
    if gtype == "LINESTRING":
        return W.linestring_wkb(np.asarray(parts[0], np.float64))
    if gtype == "POLYGON":
        rings = [np.asarray(p, np.float64) for p, _h in parts]
        return W.polygon_wkb(rings[0], rings[1:])
    if gtype == "MULTIPOINT":
        pts = [W.point_wkb(*q) for p in parts for q in p]
        return struct.pack("<BII", 1, 4, len(pts)) + b"".join(pts)
    if gtype == "MULTILINESTRING":
        ls = [W.linestring_wkb(np.asarray(p, np.float64))
              for p in parts]
        return struct.pack("<BII", 1, 5, len(ls)) + b"".join(ls)
    if gtype == "MULTIPOLYGON":
        polys, cur = [], None
        for p, hole in parts:
            r = np.asarray(p, np.float64)
            if hole and cur is not None:
                cur[1].append(r)
            else:
                cur = (r, [])
                polys.append(cur)
        return W.multipolygon_wkb(polys)
    raise ValueError(f"GMT: unhandled geometry type {gtype}")


def read_gmt(path: str) -> pa.Table:
    gtype = "POINT"
    names: list[str] = []
    types: list[str] = []
    feats: list[dict] = []
    cur: dict | None = None
    seg_pts: list = []
    seg_hole = False

    def close_segment():
        nonlocal seg_pts, seg_hole
        if cur is not None and seg_pts:
            if gtype.endswith("POLYGON"):
                cur["parts"].append((seg_pts, seg_hole))
            else:
                cur["parts"].append(seg_pts)
        seg_pts, seg_hole = [], False

    for raw in open(path, encoding="latin-1"):
        line = raw.rstrip("\n").rstrip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("@V"):
                i = body.find("@G")
                if i >= 0:
                    gtype = body[i + 2:].split()[0].upper()
            elif body.startswith("@G"):
                gtype = body[2:].split()[0].upper()
            elif body.startswith("@N"):
                names = _split_bar(body[2:])
            elif body.startswith("@T"):
                types = [t.lower() for t in _split_bar(body[2:])]
            elif body.startswith("@D"):
                close_segment()
                if cur is not None:
                    feats.append(cur)
                cur = {"attrs": _split_bar(body[2:]), "parts": []}
            elif body.startswith("@P"):
                seg_hole = False
            elif body.startswith("@H"):
                seg_hole = True
            continue
        if line.startswith(">"):
            close_segment()
            continue
        if not line.strip():
            continue
        t = line.split()
        if cur is None:
            cur = {"attrs": [], "parts": []}
        seg_pts.append((float(t[0]), float(t[1])))
    close_segment()
    if cur is not None and (cur["parts"] or cur["attrs"]):
        feats.append(cur)

    cols: dict[str, list] = {n: [] for n in names}
    geoms = []
    for f in feats:
        geoms.append(_finish(gtype, f["parts"]) if f["parts"]
                     else None)
        for j, n in enumerate(names):
            v = f["attrs"][j] if j < len(f["attrs"]) else None
            ty = types[j] if j < len(types) else "string"
            if v is None or v == "":
                cols[n].append(None)
            elif ty == "integer":
                cols[n].append(int(v))
            elif ty == "double":
                cols[n].append(float(v))
            else:
                cols[n].append(v)
    out = {}
    for j, n in enumerate(names):
        ty = types[j] if j < len(types) else "string"
        out[n] = pa.array(cols[n], _TYPES.get(ty, pa.string()))
    out["geometry"] = pa.array(geoms, pa.binary())
    return pa.table(out)


def read_gmt_dataset(path: str):
    import ray.data as rd

    return rd.from_arrow(read_gmt(path))


_GMT_T = {pa.int64(): "integer", pa.float64(): "double"}


def write_gmt(path: str, table: pa.Table, gtype: str | None = None
              ) -> None:
    fields = [f for f in table.schema if f.name != "geometry"]
    if gtype is None:
        for i in range(table.num_rows):
            b = table["geometry"][i].as_py()
            if b is not None:
                gtype = {1: "POINT", 2: "LINESTRING", 3: "POLYGON",
                         4: "MULTIPOINT", 5: "MULTILINESTRING",
                         6: "MULTIPOLYGON"}[W.geometry_type(b)]
                break
        gtype = gtype or "POINT"
    lines = [f"# @VGMT1.0 @G{gtype}"]
    if fields:
        lines.append("# @N" + "|".join(f.name for f in fields))
        lines.append("# @T" + "|".join(
            _GMT_T.get(f.type, "string") for f in fields))
    lines.append("# FEATURE_DATA")

    def fmt(v):
        return f"{v:.15g}"

    for i in range(table.num_rows):
        lines.append(">")
        if fields:
            vals = []
            for f in fields:
                v = table[f.name][i].as_py()
                if v is None:
                    vals.append("")
                elif pa.types.is_string(f.type):
                    vals.append('"' + str(v) + '"')
                else:
                    vals.append(str(v))
            lines.append("# @D" + "|".join(vals))
        buf = table["geometry"][i].as_py()
        if buf is None:
            continue
        g = W.parse(bytes(buf))
        if g["type"] == 1:
            lines.append(f"{fmt(g['coords'][0][0])} "
                         f"{fmt(g['coords'][0][1])}")
        elif g["type"] == 2:
            lines += [f"{fmt(x)} {fmt(y)}" for x, y in g["coords"]]
        elif g["type"] == 3:
            for k, r in enumerate(g["rings"]):
                if k:
                    lines.append(">")
                lines.append("# @P" if k == 0 else "# @H")
                lines += [f"{fmt(x)} {fmt(y)}" for x, y in r]
        elif g["type"] in (4, 5):
            for k, p in enumerate(g["parts"]):
                if k:
                    lines.append(">")
                lines += [f"{fmt(x)} {fmt(y)}" for x, y in p["coords"]]
        elif g["type"] == 6:
            first = True
            for p in g["parts"]:
                for k, r in enumerate(p["rings"]):
                    if not first:
                        lines.append(">")
                    first = False
                    lines.append("# @P" if k == 0 else "# @H")
                    lines += [f"{fmt(x)} {fmt(y)}" for x, y in r]
        else:
            raise ValueError(f"GMT write: unsupported type {g['type']}")
    with open(path, "w", encoding="latin-1") as f:
        f.write("\n".join(lines) + "\n")


def write_gmt_dataset(ds, path: str) -> None:
    write_gmt(path, pa.Table.from_pylist(ds.take_all()))
