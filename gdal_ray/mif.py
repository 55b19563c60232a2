"""MapInfo Interchange (MIF/MID) vector driver — reference role
ogr/ogrsf_frmts/mitab (mitab_miffile.cpp / mitab_feature_mif.cpp),
re-derived from Pitney Bowes' published MIF format description.

``.mif`` = header (Version, Charset, Delimiter, optional CoordSys /
Transform / Columns N typed declarations) + ``Data`` section of
geometry records; ``.mid`` = one delimited attribute row per
feature (quoted strings escape embedded quotes by doubling).  A MIF
without MID (gdal #5141) yields geometry-only features.

Geometries → ISO WKB: Point, Line (2-pt LineString), Pline
[MULTIPLE] (LineString / MultiLineString, optional count-on-same-
line or next-line form), Region (a ring inside an even number of
other rings is a shell, one inside an odd number a hole of the
smallest shell around it — rings auto-closed), Rect (5-point
polygon), MultiPoint, Collection, NONE (null geometry).  Style
clauses (Pen/Brush/Symbol/Font/Smooth/Center) are consumed and
ignored; RoundRect / Ellipse / Arc / Text
raise a clearly-named NotImplementedError (their MapInfo arc
discretization is a cosmetic conversion this engine does not
replicate — honest boundary, same policy as the lossy-VP8 stub).

Column types: Char(n)→string, Integer→int64, SmallInt→int64,
Float/Decimal→float64, Logical→bool, Date→string.  The writer emits
Version 300 MIF/MID pairs that roundtrip through this reader.
Pinned against the reference fixtures: small.mif (2 regions + 7
typed attributes incl. the doubled-quote owner string), nomid.mif,
empty_first_field_with_tab_delimiter.mif."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as W
from gdal_ray.geom.ops import organize_polygons


def _split_mid(line: str, delim: str) -> list[str]:
    out, buf, in_q = [], [], False
    i = 0
    while i < len(line):
        c = line[i]
        if in_q:
            if c == '"':
                if i + 1 < len(line) and line[i + 1] == '"':
                    buf.append('"')
                    i += 2
                    continue
                in_q = False
            else:
                buf.append(c)
        elif c == '"':
            in_q = True
        elif c == delim:
            out.append("".join(buf))
            buf = []
        else:
            buf.append(c)
        i += 1
    out.append("".join(buf))
    return out


_STYLE_WORDS = ("pen", "brush", "symbol", "font", "smooth", "center")


class _Lines:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.i = 0

    def peek(self):
        while self.i < len(self.lines) and not self.lines[self.i].strip():
            self.i += 1
        return self.lines[self.i].strip() if self.i < len(self.lines) \
            else None

    def next(self):
        s = self.peek()
        self.i += 1
        return s


def _coords(tokens: list[str]) -> tuple[float, float]:
    return float(tokens[0]), float(tokens[1])


def _read_ring(src: _Lines, n: int) -> np.ndarray:
    pts = np.empty((n, 2), np.float64)
    for k in range(n):
        t = src.next().split()
        pts[k] = (float(t[0]), float(t[1]))
    return pts


def _close(ring: np.ndarray) -> np.ndarray:
    if len(ring) and not np.array_equal(ring[0], ring[-1]):
        ring = np.vstack([ring, ring[0]])
    return ring


def _region_wkb(rings: list[np.ndarray]) -> bytes:
    """MIF fixes no ring orientation: shells and holes by containment
    depth (geom.ops.organize_polygons)."""
    rings = [_close(r) for r in rings if len(r) >= 3]
    if not rings:
        raise ValueError("MIF: empty region")
    polys = [W.polygon_wkb(rings[g[0]], [rings[i] for i in g[1:]])
             for g in organize_polygons(rings, by_winding=False)]
    if len(polys) == 1:
        return polys[0]
    return W.collection_wkb(W.MULTIPOLYGON, polys)


def _parse_geometry(src: _Lines):
    """One geometry record → WKB bytes (or None for NONE)."""
    line = src.next()
    t = line.split()
    kw = t[0].lower()
    if kw == "none":
        return None
    if kw == "point":
        return W.point_wkb(float(t[1]), float(t[2]))
    if kw == "line":
        return W.linestring_wkb(np.array(
            [[float(t[1]), float(t[2])], [float(t[3]), float(t[4])]]))
    if kw == "pline":
        rest = t[1:]
        if rest and rest[0].lower() == "multiple":
            nsec = int(rest[1])
            parts = []
            for _ in range(nsec):
                n = int(src.next().split()[0])
                parts.append(W.linestring_wkb(_read_ring(src, n)))
            return W.collection_wkb(W.MULTILINESTRING, parts)
        n = int(rest[0]) if rest else int(src.next().split()[0])
        return W.linestring_wkb(_read_ring(src, n))
    if kw == "region":
        nrings = int(t[1]) if len(t) > 1 else int(src.next().split()[0])
        rings = []
        for _ in range(nrings):
            n = int(src.next().split()[0])
            rings.append(_read_ring(src, n))
        return _region_wkb(rings)
    if kw == "rect":
        x1, y1, x2, y2 = (float(v) for v in t[1:5])
        return W.box_polygon_wkb(min(x1, x2), min(y1, y2),
                                 max(x1, x2), max(y1, y2))
    if kw == "multipoint":
        n = int(t[1]) if len(t) > 1 else int(src.next().split()[0])
        pts = _read_ring(src, n)
        return W.collection_wkb(W.MULTIPOINT,
                                [W.point_wkb(x, y) for x, y in pts])
    if kw == "collection":
        n = int(t[1])
        parts = []
        for _ in range(n):
            g = _parse_geometry(src)
            _skip_style(src)
            if isinstance(g, tuple):
                g = g[1]
            if g is not None:
                parts.append(g)
        return W.collection_wkb(W.GEOMETRYCOLLECTION, parts)
    if kw in ("roundrect", "ellipse", "arc", "text"):
        # MapInfo's exact discretizations (mitab_feature.cpp roles),
        # shared with the TAB binary driver
        import math

        from gdal_ray.tab import _close_ring, _gen_arc
        if kw == "ellipse":
            x1, y1, x2, y2 = (float(v) for v in t[1:5])
            xmin, xmax = min(x1, x2), max(x1, x2)
            ymin, ymax = min(y1, y2), max(y1, y2)
            ring = _close_ring(_gen_arc(
                (xmin + xmax) / 2, (ymin + ymax) / 2,
                (xmax - xmin) / 2, (ymax - ymin) / 2,
                0.0, 2 * math.pi, 180))
            return W.polygon_wkb(ring)
        if kw == "roundrect":
            x1, y1, x2, y2 = (float(v) for v in t[1:5])
            rad = (float(t[5]) if len(t) > 5
                   else float(src.next().split()[0])) / 2.0
            xmin, xmax = min(x1, x2), max(x1, x2)
            ymin, ymax = min(y1, y2), max(y1, y2)
            if rad == 0.0:
                return W.box_polygon_wkb(xmin, ymin, xmax, ymax)
            rx = min(rad, (xmax - xmin) / 2)
            ry = min(rad, (ymax - ymin) / 2)
            ring = np.vstack([
                _gen_arc(xmin + rx, ymin + ry, rx, ry,
                         math.pi, 1.5 * math.pi, 45),
                _gen_arc(xmax - rx, ymin + ry, rx, ry,
                         1.5 * math.pi, 2 * math.pi, 45),
                _gen_arc(xmax - rx, ymax - ry, rx, ry,
                         0.0, 0.5 * math.pi, 45),
                _gen_arc(xmin + rx, ymax - ry, rx, ry,
                         0.5 * math.pi, math.pi, 45)])
            return W.polygon_wkb(_close_ring(ring))
        if kw == "arc":
            x1, y1, x2, y2 = (float(v) for v in t[1:5])
            if len(t) > 6:
                a0, a1 = float(t[5]), float(t[6])
            else:
                nt = src.next().split()
                a0, a1 = float(nt[0]), float(nt[1])
            xmin, xmax = min(x1, x2), max(x1, x2)
            ymin, ymax = min(y1, y2), max(y1, y2)
            if a1 < a0:
                npts = max(2, int(abs((a1 + 360.0) - a0) / 2.0 + 1))
            else:
                npts = max(2, int(abs(a1 - a0) / 2.0 + 1))
            return W.linestring_wkb(_gen_arc(
                (xmin + xmax) / 2, (ymin + ymax) / 2,
                (xmax - xmin) / 2, (ymax - ymin) / 2,
                a0 * math.pi / 180, a1 * math.pi / 180, npts))
        # text: string (same or next line), then the unrotated box;
        # geometry = rotated lower-left anchor (TABText MIF role)
        rest = line.split(None, 1)
        if len(rest) > 1 and rest[1].strip():
            s = rest[1].strip()
        else:
            s = src.next().strip()
        text = s.strip('"')
        nt = src.next().split()
        x1, y1, x2, y2 = (float(v) for v in nt[:4])
        xmin, xmax = min(x1, x2), max(x1, x2)
        ymin, ymax = min(y1, y2), max(y1, y2)
        height = ymax - ymin
        angle = 0.0
        while True:
            p = src.peek()
            if p is None:
                break
            w0 = p.split()[0].lower().split("(")[0]
            if w0 == "angle":
                angle = float(src.next().split()[1])
            elif w0 in _STYLE_WORDS or w0 in ("spacing", "justify",
                                              "label"):
                src.next()
            else:
                break
        s_, c_ = (math.sin(angle * math.pi / 180),
                  math.cos(angle * math.pi / 180))
        if s_ > 0 and c_ > 0:
            x, y = xmin + height * s_, ymin
        elif s_ > 0 and c_ < 0:
            x, y = xmax, ymin - height * c_
        elif s_ < 0 and c_ < 0:
            x, y = xmax + height * s_, ymax
        else:
            x, y = xmin, ymax - height * c_
        g = W.point_wkb(x, y)
        return ("text", g, text)
    raise ValueError(f"MIF: unknown record {line!r}")


def _skip_style(src: _Lines) -> None:
    while True:
        p = src.peek()
        if p is None:
            return
        w = p.split()[0].lower().split("(")[0]
        if w in _STYLE_WORDS or w in ("angle", "spacing", "justify",
                                      "label"):
            src.next()
            continue
        return


_TYPE_MAP = {"char": pa.string(), "integer": pa.int64(),
             "smallint": pa.int64(), "float": pa.float64(),
             "decimal": pa.float64(), "date": pa.string(),
             "logical": pa.bool_()}


def read_mif(path: str) -> pa.Table:
    text = open(path, encoding="latin-1").read()
    src = _Lines(text.splitlines())
    delim = "\t"
    columns: list[tuple[str, str]] = []
    coordsys = None
    while True:
        line = src.peek()
        if line is None:
            raise ValueError("MIF: no Data section")
        low = line.lower()
        if low.startswith("data"):
            src.next()
            break
        if low.startswith("delimiter"):
            delim = line.split('"')[1]
        elif low.startswith("coordsys"):
            coordsys = line
        elif low.startswith("columns"):
            n = int(line.split()[1])
            src.next()
            for _ in range(n):
                d = src.next().split()
                columns.append((d[0], d[1].lower().split("(")[0]))
            continue
        src.next()
    geoms = []
    texts = []
    while src.peek() is not None:
        g = _parse_geometry(src)
        if isinstance(g, tuple) and g[0] == "text":
            geoms.append(g[1])
            texts.append(g[2])
        else:
            geoms.append(g)
            texts.append(None)
        _skip_style(src)
    # attributes
    midpath = None
    for ext in (".mid", ".MID"):
        cand = os.path.splitext(path)[0] + ext
        if os.path.exists(cand):
            midpath = cand
            break
    cols: dict[str, list] = {name: [] for name, _t in columns}
    if midpath and columns:
        rows = [r for r in open(midpath, encoding="latin-1")
                .read().splitlines() if r != ""]
        for r in rows[:len(geoms)]:
            vals = _split_mid(r, delim)
            for (name, typ), v in zip(columns, vals):
                if typ in ("integer", "smallint"):
                    cols[name].append(int(v) if v.strip() else None)
                elif typ in ("float", "decimal"):
                    cols[name].append(float(v) if v.strip() else None)
                elif typ == "logical":
                    cols[name].append(v.strip().upper() in ("T", "TRUE"))
                else:
                    cols[name].append(v)
    out = {}
    for name, typ in columns:
        vals = cols[name]
        vals += [None] * (len(geoms) - len(vals))
        out[name] = pa.array(vals, _TYPE_MAP[typ])
    out["geometry"] = pa.array(geoms, pa.binary())
    if any(texts):
        out["mi_text"] = pa.array(texts, pa.string())
    tbl = pa.table(out)
    if coordsys:
        tbl = tbl.replace_schema_metadata({b"mif_coordsys":
                                           coordsys.encode()})
    return tbl


def read_mif_dataset(paths):
    """File-per-task distributed read → Ray Dataset."""
    import ray.data as rd

    if isinstance(paths, str):
        paths = [paths]

    def load(batch: pa.Table) -> pa.Table:
        tabs = [read_mif(p) for p in batch["path"].to_pylist()]
        return pa.concat_tables(tabs, promote_options="permissive")

    return rd.from_items([{"path": p} for p in paths]).map_batches(
        load, batch_format="pyarrow")


def write_mif_dataset(ds, path: str) -> None:
    write_mif(path, pa.Table.from_pylist(ds.take_all()))


_MIF_TYPES = {pa.string(): "Char (254)", pa.int64(): "Integer",
              pa.float64(): "Float", pa.bool_(): "Logical"}


def write_mif(path: str, table: pa.Table, delimiter: str = ",") -> None:
    """Version 300 MIF/MID writer (core geometries)."""
    fields = [f for f in table.schema if f.name != "geometry"]
    lines = ["Version 300", 'Charset "Neutral"',
             f'Delimiter "{delimiter}"', f"Columns {len(fields)}"]
    for f in fields:
        t = _MIF_TYPES.get(f.type)
        if t is None:
            raise ValueError(f"MIF write: unsupported type {f.type}")
        lines.append(f"  {f.name} {t}")
    lines.append("Data")
    lines.append("")
    mid_rows = []
    for i in range(table.num_rows):
        buf = table["geometry"][i].as_py()
        lines.extend(_geom_to_mif(buf))
        vals = []
        for f in fields:
            v = table[f.name][i].as_py()
            if v is None:
                vals.append('""' if pa.types.is_string(f.type) else "0")
            elif pa.types.is_string(f.type):
                vals.append('"' + v.replace('"', '""') + '"')
            elif pa.types.is_boolean(f.type):
                vals.append("T" if v else "F")
            else:
                vals.append(repr(v) if isinstance(v, float) else str(v))
        mid_rows.append(delimiter.join(vals))
    with open(path, "w", encoding="latin-1") as f:
        f.write("\n".join(lines) + "\n")
    if fields:
        with open(os.path.splitext(path)[0] + ".mid", "w",
                  encoding="latin-1") as f:
            f.write("\n".join(mid_rows) + "\n")


def _fmt(v: float) -> str:
    return f"{v:.15g}"


def _geom_to_mif(buf) -> list[str]:
    if buf is None:
        return ["NONE"]
    g = W.parse(bytes(buf))
    t = g["type"]
    if t == 1:
        x, y = g["coords"][0][:2]
        return [f"Point {_fmt(x)} {_fmt(y)}"]
    if t == 2:
        pts = g["coords"]
        out = [f"Pline {len(pts)}"]
        out += [f"{_fmt(p[0])} {_fmt(p[1])}" for p in pts]
        return out
    if t == 3:
        rings = g["rings"]
        out = [f"Region {len(rings)}"]
        for r in rings:
            out.append(str(len(r)))
            out += [f"{_fmt(p[0])} {_fmt(p[1])}" for p in r]
        return out
    if t == 5:
        parts = g["parts"]
        out = [f"Pline Multiple {len(parts)}"]
        for p in parts:
            pts = p["coords"]
            out.append(str(len(pts)))
            out += [f"{_fmt(q[0])} {_fmt(q[1])}" for q in pts]
        return out
    if t == 4:
        pts = [p["coords"][0] for p in g["parts"]]
        out = [f"Multipoint {len(pts)}"]
        out += [f"{_fmt(p[0])} {_fmt(p[1])}" for p in pts]
        return out
    if t == 6:
        polys = g["parts"]
        nrings = sum(len(p["rings"]) for p in polys)
        out = [f"Region {nrings}"]
        for p in polys:
            for r in p["rings"]:
                out.append(str(len(r)))
                out += [f"{_fmt(q[0])} {_fmt(q[1])}" for q in r]
        return out
    raise ValueError(f"MIF write: unsupported geometry type {t}")
