"""WKT read/write for the engine's geometry model — the OGR
ImportFromWkt/ExportToWkt surface (reference: ogr/ogrgeometryfactory
createFromWkt; ogr/ogr_core.h:422-512 type set): Point, LineString,
Polygon, Multi*, GeometryCollection plus the ISO curve types
(CircularString, CompoundCurve, CurvePolygon, MultiCurve,
MultiSurface), each with Z / M / ZM variants.  Curves linearize via
geom.curves.linearize (ogr2ogr linearize-on-read semantics)."""

from __future__ import annotations

import re

import numpy as np

from gdal_ray.geom import wkb as gwkb

_NUM = r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?"


def _fmt(v: float) -> str:
    # shortest round-trip representation (OGR prints %.15g-like).
    # repr() is Python's shortest round-trip float repr; never strip
    # characters from a string that may carry an exponent (stripping
    # '0' off '1.5e-10' would corrupt the value).
    v = float(v)
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _coords_to_wkt(c: np.ndarray) -> str:
    return ", ".join(" ".join(_fmt(v) for v in row) for row in c)


_DIM_OUT = {"xy": "", "xyz": "Z ", "xym": "M ", "xyzm": "ZM "}


def _node_full(g: dict) -> np.ndarray:
    cols = [g["coords"]]
    if "z" in g:
        cols.append(g["z"][:, None])
    if "m" in g:
        cols.append(g["m"][:, None])
    return np.hstack(cols)


def _ring_full(g: dict, i: int) -> np.ndarray:
    cols = [g["rings"][i]]
    if "rings_z" in g:
        cols.append(g["rings_z"][i][:, None])
    if "rings_m" in g:
        cols.append(g["rings_m"][i][:, None])
    return np.hstack(cols)


def to_wkt(buf: bytes) -> str:
    """WKB → WKT (Z/M/ZM tokens and ISO curve types included)."""
    return _node_to_wkt(gwkb.parse(buf))


def _node_to_wkt(g: dict) -> str:
    t = g["type"]
    tok = _DIM_OUT[g.get("dims", "xy")]
    if t == gwkb.POINT:
        return f"POINT {tok}({_coords_to_wkt(_node_full(g))})"
    if t == gwkb.LINESTRING:
        return f"LINESTRING {tok}({_coords_to_wkt(_node_full(g))})"
    if t == gwkb.CIRCULARSTRING:
        return f"CIRCULARSTRING {tok}({_coords_to_wkt(_node_full(g))})"
    if t == gwkb.POLYGON:
        rings = ", ".join(
            f"({_coords_to_wkt(_ring_full(g, i))})"
            for i in range(len(g["rings"]))
        )
        return f"POLYGON {tok}({rings})"
    if t == gwkb.MULTIPOINT:
        pts = ", ".join(f"({_coords_to_wkt(_node_full(p))})"
                        for p in g["parts"])
        return f"MULTIPOINT {tok}({pts})"
    if t == gwkb.MULTILINESTRING:
        ls = ", ".join(f"({_coords_to_wkt(_node_full(p))})"
                       for p in g["parts"])
        return f"MULTILINESTRING {tok}({ls})"
    if t in (gwkb.MULTIPOLYGON, gwkb.POLYHEDRALSURFACE, gwkb.TIN):
        name = {gwkb.MULTIPOLYGON: "MULTIPOLYGON",
                gwkb.POLYHEDRALSURFACE: "POLYHEDRALSURFACE",
                gwkb.TIN: "TIN"}[t]
        polys = ", ".join(
            "(" + ", ".join(
                f"({_coords_to_wkt(_ring_full(p, i))})"
                for i in range(len(p["rings"]))
            ) + ")"
            for p in g["parts"]
        )
        return f"{name} {tok}({polys})"
    if t in (gwkb.COMPOUNDCURVE, gwkb.CURVEPOLYGON, gwkb.MULTICURVE,
             gwkb.MULTISURFACE):
        name = {gwkb.COMPOUNDCURVE: "COMPOUNDCURVE",
                gwkb.CURVEPOLYGON: "CURVEPOLYGON",
                gwkb.MULTICURVE: "MULTICURVE",
                gwkb.MULTISURFACE: "MULTISURFACE"}[t]

        def child(p: dict) -> str:
            # OGR prints plain LineString segments bare inside curve
            # containers, keyworded otherwise
            if p["type"] == gwkb.LINESTRING:
                return f"({_coords_to_wkt(_node_full(p))})"
            if p["type"] == gwkb.POLYGON and t == gwkb.MULTISURFACE:
                return "(" + ", ".join(
                    f"({_coords_to_wkt(_ring_full(p, i))})"
                    for i in range(len(p["rings"]))
                ) + ")"
            return _node_to_wkt(p)

        return f"{name} {tok}(" + ", ".join(child(p) for p in g["parts"]) + ")"
    if t == gwkb.GEOMETRYCOLLECTION:
        parts = ", ".join(_node_to_wkt(p) for p in g["parts"])
        return f"GEOMETRYCOLLECTION {tok}({parts})"
    raise ValueError(f"unsupported geometry type {t}")


class _P:
    def __init__(self, s: str):
        self.s = s
        self.i = 0

    def ws(self):
        while self.i < len(self.s) and self.s[self.i].isspace():
            self.i += 1

    def word(self) -> str:
        self.ws()
        m = re.match(r"[A-Za-z]+", self.s[self.i:])
        if not m:
            raise ValueError(f"WKT: expected keyword at {self.s[self.i:self.i+20]!r}")
        self.i += m.end()
        return m.group().upper()

    def expect(self, ch: str):
        self.ws()
        if self.i >= len(self.s) or self.s[self.i] != ch:
            raise ValueError(f"WKT: expected {ch!r} at {self.s[self.i:self.i+20]!r}")
        self.i += 1

    def accept(self, ch: str) -> bool:
        self.ws()
        if self.i < len(self.s) and self.s[self.i] == ch:
            self.i += 1
            return True
        return False

    def number(self) -> float:
        self.ws()
        m = re.match(_NUM, self.s[self.i:])
        if not m:
            raise ValueError(f"WKT: expected number at {self.s[self.i:self.i+20]!r}")
        self.i += m.end()
        return float(m.group())

    def coord_row(self) -> list[float]:
        vals = [self.number()]
        while True:
            self.ws()
            if self.i < len(self.s) and self.s[self.i] not in ",)":
                vals.append(self.number())
            else:
                break
        return vals

    def coords(self, width: int | None = None) -> np.ndarray:
        """Coordinate list; ``width`` constrains per-point ordinate
        count (from a Z/M token), else it's inferred per WKT
        convention (3 ordinates without a token = XYZ)."""
        self.expect("(")
        out = []
        while True:
            row = self.coord_row()
            if width is not None and len(row) != width:
                raise ValueError(
                    f"WKT: expected {width} ordinates, got {len(row)}")
            out.append(row)
            if not self.accept(","):
                break
        self.expect(")")
        return np.array(out, dtype=np.float64)

    def dim_token(self) -> str | None:
        """Consume an optional Z / M / ZM dimension token."""
        save = self.i
        self.ws()
        m = re.match(r"(ZM|Z|M)\b", self.s[self.i:], re.IGNORECASE)
        if m:
            self.i += m.end()
            return m.group().upper()
        self.i = save
        return None


def from_wkt(wkt: str) -> bytes:
    """WKT → WKB."""
    p = _P(wkt)
    return _parse_geom(p)


_TOKEN_DIMS = {None: None, "Z": "xyz", "M": "xym", "ZM": "xyzm"}
_WIDTH_DIMS = {2: "xy", 3: "xyz", 4: "xyzm"}


def _infer(dims: str | None, c: np.ndarray) -> str:
    if dims is not None:
        return dims
    return _WIDTH_DIMS[c.shape[1]]


def _parse_geom(p: _P) -> bytes:
    kind = p.word()
    dims = _TOKEN_DIMS[p.dim_token()]
    width = len(dims) if dims else None

    if kind == "POINT":
        c = p.coords(width)
        return gwkb.point_wkb_d(c[0], _infer(dims, c))
    if kind == "LINESTRING":
        c = p.coords(width)
        return gwkb.linestring_wkb_d(c, _infer(dims, c))
    if kind == "CIRCULARSTRING":
        c = p.coords(width)
        return gwkb.circularstring_wkb(c, _infer(dims, c))
    if kind == "POLYGON":
        p.expect("(")
        rings = [p.coords(width)]
        while p.accept(","):
            rings.append(p.coords(width))
        p.expect(")")
        return gwkb.polygon_wkb_d(rings, _infer(dims, rings[0]))
    if kind == "MULTIPOINT":
        p.expect("(")
        pts = []
        while True:
            if p.accept("("):
                row = p.coord_row()
                p.expect(")")
            else:
                row = p.coord_row()
            pts.append(row)
            if not p.accept(","):
                break
        p.expect(")")
        c = np.array(pts, dtype=np.float64)
        d = _infer(dims, c)
        return gwkb.collection_wkb(gwkb.MULTIPOINT,
                                   [gwkb.point_wkb_d(r, d) for r in c], d)
    if kind == "MULTILINESTRING":
        p.expect("(")
        parts = [p.coords(width)]
        while p.accept(","):
            parts.append(p.coords(width))
        p.expect(")")
        d = _infer(dims, parts[0])
        return gwkb.collection_wkb(
            gwkb.MULTILINESTRING,
            [gwkb.linestring_wkb_d(c, d) for c in parts], d)
    if kind in ("MULTIPOLYGON", "POLYHEDRALSURFACE", "TIN"):
        p.expect("(")
        polys = []
        while True:
            p.expect("(")
            rings = [p.coords(width)]
            while p.accept(","):
                rings.append(p.coords(width))
            p.expect(")")
            polys.append(rings)
            if not p.accept(","):
                break
        p.expect(")")
        d = _infer(dims, polys[0][0])
        code = {"MULTIPOLYGON": gwkb.MULTIPOLYGON,
                "POLYHEDRALSURFACE": gwkb.POLYHEDRALSURFACE,
                "TIN": gwkb.TIN}[kind]
        return gwkb.collection_wkb(
            code, [gwkb.polygon_wkb_d(rings, d) for rings in polys], d)
    if kind == "COMPOUNDCURVE":
        p.expect("(")
        segs, d = [], dims
        while True:
            p.ws()
            if p.s[p.i] == "(":  # bare parens = implicit LineString
                c = p.coords(width)
                d = d or _infer(dims, c)
                segs.append(gwkb.linestring_wkb_d(c, d))
            else:
                segs.append(_parse_geom(p))
                d = d or gwkb.parse(segs[-1])["dims"]
            if not p.accept(","):
                break
        p.expect(")")
        return gwkb.collection_wkb(gwkb.COMPOUNDCURVE, segs, d or "xy")
    if kind == "CURVEPOLYGON":
        p.expect("(")
        rings, d = [], dims
        while True:
            p.ws()
            if p.s[p.i] == "(":
                c = p.coords(width)
                d = d or _infer(dims, c)
                rings.append(gwkb.linestring_wkb_d(c, d))
            else:
                rings.append(_parse_geom(p))
                d = d or gwkb.parse(rings[-1])["dims"]
            if not p.accept(","):
                break
        p.expect(")")
        return gwkb.collection_wkb(gwkb.CURVEPOLYGON, rings, d or "xy")
    if kind == "MULTICURVE":
        p.expect("(")
        parts, d = [], dims
        while True:
            p.ws()
            if p.s[p.i] == "(":
                c = p.coords(width)
                d = d or _infer(dims, c)
                parts.append(gwkb.linestring_wkb_d(c, d))
            else:
                parts.append(_parse_geom(p))
                d = d or gwkb.parse(parts[-1])["dims"]
            if not p.accept(","):
                break
        p.expect(")")
        return gwkb.collection_wkb(gwkb.MULTICURVE, parts, d or "xy")
    if kind == "MULTISURFACE":
        p.expect("(")
        parts, d = [], dims
        while True:
            p.ws()
            if p.s[p.i] == "(":  # bare = polygon ring list
                p.expect("(")
                rings = [p.coords(width)]
                while p.accept(","):
                    rings.append(p.coords(width))
                p.expect(")")
                d = d or _infer(dims, rings[0])
                parts.append(gwkb.polygon_wkb_d(rings, d))
            else:
                parts.append(_parse_geom(p))
                d = d or gwkb.parse(parts[-1])["dims"]
            if not p.accept(","):
                break
        p.expect(")")
        return gwkb.collection_wkb(gwkb.MULTISURFACE, parts, d or "xy")
    if kind == "GEOMETRYCOLLECTION":
        p.expect("(")
        parts = [_parse_geom(p)]
        while p.accept(","):
            parts.append(_parse_geom(p))
        p.expect(")")
        return gwkb.collection_wkb(gwkb.GEOMETRYCOLLECTION, parts)
    raise ValueError(f"unsupported WKT type {kind}")


# --- vectorized point-column WKT (Arrow kernels, no per-row Python) ----


def points_to_wkt(lon, lat, z=None, m=None):
    """lon/lat (+ optional z / m) columns → ``POINT [Z|M|ZM] (…)``
    StringArray in one Arrow pass.  Arrow's double→string cast is a
    shortest-round-trip formatter (Ryu, same contract as ``_fmt``'s
    repr()), so ``points_from_wkt`` returns the exact input doubles.
    The scalar ``to_wkt`` stays the general path; this is the columnar
    fast path for point layers (the r2 verdict's WKT-kernel perf
    item)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def col(v):
        if v is None or isinstance(v, (pa.Array, pa.ChunkedArray)):
            return v
        return pa.array(np.asarray(v, np.float64))

    lon, lat, z, m = col(lon), col(lat), col(z), col(m)
    tok = "POINT " + ("Z" if z is not None else "") + (
        "M" if m is not None else "")
    parts = [tok.rstrip() + " (", pc.cast(lon, pa.string()), " ",
             pc.cast(lat, pa.string())]
    if z is not None:
        parts += [" ", pc.cast(z, pa.string())]
    if m is not None:
        parts += [" ", pc.cast(m, pa.string())]
    parts += [")", ""]
    return pc.binary_join_element_wise(*parts)


def points_from_wkt(arr):
    """``POINT [Z|M|ZM] (…)`` StringArray → tuple of float64 arrays
    (lon, lat[, z][, m]), one Arrow pass (split + trim +
    correctly-rounded string→double cast).  Ordinate count comes from
    the first row; mixed-dimension columns need the scalar path."""
    import pyarrow as pa
    import pyarrow.compute as pc

    sp = pc.split_pattern(arr, "(")
    body = pc.utf8_trim(pc.list_element(sp, 1), ")")
    nums = pc.split_pattern(body, " ")
    width = len(nums[0]) if len(arr) else 2
    return tuple(
        pc.cast(pc.list_element(nums, i), pa.float64()) for i in range(width)
    )
