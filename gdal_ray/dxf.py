"""AutoCAD DXF vector driver (read path).

Reference role: ogr/ogrsf_frmts/dxf (OGRDXFDataSource / OGRDXFLayer /
DXFSmoothPolyline / intronurbs, GDAL 3.13), re-derived from the
published Autodesk "DXF Reference" group-code documentation.  The
reference's exact translation behaviors are replicated and pinned
against its own autotest (tests/test_dxf.py extracts the expected WKT
strings straight out of autotest/ogr/ogr_dxf.py):

- one OGR layer ``entities`` with the reference's six fields (Layer,
  PaperSpace, SubClasses, Linetype, EntityHandle, Text) + OGR_STYLE;
- arc/circle/ellipse stroking via the exact
  OGRGeometryFactory::approximateArcAngles algorithm
  (ogrgeometryfactory.cpp:4536 - double angle negation, ceil(n)+1
  slices, full-circle endpoint snap, clockwise rotation matrix);
- DXF angle conventions: ARC code 50/51 negated+swapped
  (ogrdxflayer.cpp:2085), ELLIPSE params in radians negated, ellipse
  rotation = -atan2(axisY, axisX);
- LWPOLYLINE/POLYLINE bulges via the DXFSmoothPolyline EmitArc
  construction (sagitta center, OGR angle flips, endpoint snapping,
  ogrdxf_polyline_smooth.cpp:127);
- SOLID corner order 1-2-4-3 with degenerate-corner collapse
  (GDAL trac #7089), 3DFACE ring;
- SPLINE sampling with the Rogers "An Introduction to NURBS" open
  B-spline basis at exactly 8x control-point count samples
  (intronurbs.cpp rbspline2; public-domain algorithm, Chapter 4);
- OCS->WCS arbitrary-axis transform (ogrdxf_ocstransformer.cpp);
- INSERT block expansion: rotate+scale, then the insert's OCS, then
  translation; block base point subtracted at block-read time;
  layer-0 subfeatures adopt the insert's layer; merged non-label
  geometries collapse to MULTI* when homogeneous
  (SimplifyBlockGeometry); rectangular column/row arrays; ATTRIB
  subfeatures;
- style strings: PEN/BRUSH/LABEL with the ByBlock/ByLayer/true-color
  resolution chain of OGRDXFFeature::GetColor, hidden/frozen layers
  appending the "00" alpha, and the standard 256-entry AutoCAD Color
  Index palette (published ACI table; embedded as data below exactly
  as the reference renders it, including its color-7-as-black
  plotting choice).

LEADER/MULTILEADER landed in round 5 (ogrdxf_leader.cpp parity:
DIMSTYLE + ACAD-xdata overrides, default/custom/suppressed
arrowheads with the special-block endpoint rule, interpolated cubic
B-spline paths with tangent rows, doglegs/breaks/DIMBREAK, block
content incl. attribute labels, under-text extensions).  Still
unsupported (named boundary in COVERAGE.md): HATCH pattern fills,
DIMENSION block generation, ACIS 3DSOLID/REGION, helix — the
reference generates synthetic geometry for those from renderer
metrics.

Ray shape: a DXF file is a sequential tape (blocks must be read
before inserts) - one file = one task, exactly like
formats.read_geojson; shard inputs across files to parallelize.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as W

# Published AutoCAD Color Index palette (256 RGB triples) as rendered
# by the reference (ogr_autocad_services.cpp ACGetColorTable; color 7
# deliberately black "it plots poorly" - reference comment).
_ACI = bytes.fromhex(
    "000000ff0000ffff0000ff0000ffff0000ffff00ff0000007f7f7fbfbfbfff0000ff7f7f"
    "a50000a552527f00007f3f3f4c00004c2626260000261313ff3f00ff9f7fa52900a56752"
    "7f1f007f4f3f4c13004c2f26260900261713ff7f00ffbf7fa55200a57c527f3f007f5f3f"
    "4c26004c3926261300261c13ffbf00ffdf7fa57c00a591527f5f007f6f3f4c39004c4226"
    "261c00262113ffff00ffff7fa5a500a5a5527f7f007f7f3f4c4c004c4c26262600262613"
    "bfff00dfff7f7ca50091a5525f7f006f7f3f394c00424c261c26002126137fff00bfff7f"
    "52a5007ca5523f7f005f7f3f264c00394c261326001c26133fff009fff7f29a50067a552"
    "1f7f004f7f3f134c002f4c2609260017261300ff007fff7f00a50052a552007f003f7f3f"
    "004c00264c2600260013261300ff3f7fff9f00a52952a567007f1f3f7f4f004c13264c2f"
    "00260913261700ff7f7fffbf00a55252a57c007f3f3f7f5f004c26264c3900261313261c"
    "00ffbf7fffdf00a57c52a591007f5f3f7f6f004c39264c4200261c13262100ffff7fffff"
    "00a5a552a5a5007f7f3f7f7f004c4c264c4c00262613262600bfff7fdfff007ca55291a5"
    "005f7f3f6f7f00394c26424c001c26132126007fff7fbfff0052a5527ca5003f7f3f5f7f"
    "00264c26394c001326131c26003fff7f9fff0029a55267a5001f7f3f4f7f00134c262f4c"
    "0009261317260000ff7f7fff0000a55252a500007f3f3f7f00004c26264c000026131326"
    "3f00ff9f7fff2900a56752a51f007f4f3f7f13004c2f264c0900261713267f00ffbf7fff"
    "5200a57c52a53f007f5f3f7f26004c39264c1300261c1326bf00ffdf7fff7c00a59152a5"
    "5f007f6f3f7f39004c42264c1c0026211326ff00ffff7fffa500a5a552a57f007f7f3f7f"
    "4c004c4c264c260026261326ff00bfff7fdfa5007ca552917f005f7f3f6f4c00394c2642"
    "26001c261321ff007fff7fbfa50052a5527c7f003f7f3f5f4c00264c263926001326131c"
    "ff003fff7f9fa50029a552677f001f7f3f4f4c00134c262f260009261317545454767676"
    "989898bababadcdcdcffffff")


# ---------------------------------------------------------------------------
# group-code pair tape
# ---------------------------------------------------------------------------


class _Tape:
    def __init__(self, pairs):
        self.pairs = pairs
        self.i = 0

    def read(self):
        if self.i >= len(self.pairs):
            return None
        p = self.pairs[self.i]
        self.i += 1
        return p

    def unread(self):
        self.i -= 1


_BIN_SENTINEL = b"AutoCAD Binary DXF\r\n\x1a\x00"


def _pairs_from_binary(data: bytes):
    """Binary DXF (R13+ sentinel): 2-byte LE group codes, values typed
    by the spec's group-code ranges; strings NUL-terminated, 310-319
    binary chunks length-prefixed (re-encoded as hex like the text
    form).  Produces the same (code, string) pairs as the text tape so
    the rest of the reader is format-blind."""
    import struct as _st

    pos = len(_BIN_SENTINEL)
    out = []
    n = len(data)
    while pos + 2 <= n:
        code = _st.unpack_from("<H", data, pos)[0]
        pos += 2
        # value-type ranges exactly as the reference's binary reader
        # (ogrdxfreader.cpp, credits ezdxf)
        if 290 <= code <= 299:
            out.append((code, str(data[pos])))
            pos += 1
        elif (60 <= code <= 79 or 170 <= code <= 179 or
                270 <= code <= 289 or 370 <= code <= 389 or
                400 <= code <= 409 or 1060 <= code <= 1070):
            out.append((code, str(_st.unpack_from("<h", data, pos)[0])))
            pos += 2
        elif (90 <= code <= 99 or 420 <= code <= 429 or
                440 <= code <= 459 or code == 1071):
            out.append((code, str(_st.unpack_from("<i", data, pos)[0])))
            pos += 4
        elif 160 <= code <= 169:
            out.append((code, str(_st.unpack_from("<q", data, pos)[0])))
            pos += 8
        elif (10 <= code <= 59 or 110 <= code <= 149 or
                210 <= code <= 239 or 460 <= code <= 469 or
                1010 <= code <= 1059):
            out.append((code, repr(_st.unpack_from("<d", data, pos)[0])))
            pos += 8
        elif 310 <= code <= 319 or code == 1004:
            ln = data[pos]
            out.append((code, data[pos + 1:pos + 1 + ln].hex().upper()))
            pos += 1 + ln
        else:
            # everything else: NUL-terminated string
            end = data.find(b"\x00", pos)
            if end < 0:
                break
            out.append((code, data[pos:end].decode("utf-8", "replace")))
            pos = end + 1
    return out


def _pairs_from_text(text: str):
    lines = text.split("\n")
    out = []
    i = 0
    n = len(lines)
    while i + 1 < n:
        code_s = lines[i].strip()
        val = lines[i + 1]
        if val.endswith("\r"):
            val = val[:-1]
        i += 2
        try:
            code = int(code_s)
        except ValueError:
            continue
        # the reference trims leading/trailing spaces of values
        out.append((code, val.strip()))
    return out


# ---------------------------------------------------------------------------
# geometry helpers (exact reference algorithms)
# ---------------------------------------------------------------------------


def approximate_arc(cx, cy, z, rp, rs, rotation, start, end,
                    step: float = 4.0) -> np.ndarray:
    """OGRGeometryFactory::approximateArcAngles, verbatim behavior ->
    (n,3) vertex array."""
    full = abs(end - start) == 360.0
    s = -start
    e = -end
    n = max(2, int(math.ceil(abs(e - s) / step)) + 1)
    dslice = (e - s) / (n - 1)
    if full:
        n -= 1
    ang = np.radians(s + np.arange(n, dtype=np.float64) * dslice)
    ex = np.cos(ang) * rp
    ey = np.sin(ang) * rs
    rr = math.radians(rotation)
    x = cx + ex * math.cos(rr) + ey * math.sin(rr)
    y = cy - ex * math.sin(rr) + ey * math.cos(rr)
    pts = np.column_stack([x, y, np.full(len(x), float(z))])
    if full:
        pts = np.vstack([pts, pts[:1]])
    return pts


def _ocs_axes(normal):
    n = np.asarray(normal, dtype=np.float64)
    ln = math.sqrt(float(n @ n))
    if ln:
        n = n / ln
    if abs(n[0]) < 1.0 / 64.0 and abs(n[1]) < 1.0 / 64.0:
        ax = np.cross([0.0, 1.0, 0.0], n)
    else:
        ax = np.cross([0.0, 0.0, 1.0], n)
    ax /= math.sqrt(float(ax @ ax))
    ay = np.cross(n, ax)
    ay /= math.sqrt(float(ay @ ay))
    return ax, ay, n


def _ocs_to_wcs(normal, pts: np.ndarray) -> np.ndarray:
    ax, ay, n = _ocs_axes(normal)
    m = np.vstack([ax, ay, n])  # rows
    return pts @ m


def _wcs_to_ocs(normal, pts: np.ndarray) -> np.ndarray:
    ax, ay, n = _ocs_axes(normal)
    m = np.vstack([ax, ay, n])
    return pts @ np.linalg.inv(m)


_DEFAULT_N = (0.0, 0.0, 1.0)


# geometry container: ("point"|"line", (n,3) array) |
# ("polygon", [rings]) | ("collection"|"multiline"..., [children])
class _G:
    __slots__ = ("kind", "data", "has_z")

    def __init__(self, kind, data, has_z):
        self.kind = kind
        self.data = data
        self.has_z = has_z

    def map_coords(self, fn):
        if self.kind in ("point", "line"):
            self.data = fn(self.data)
        elif self.kind == "polygon":
            self.data = [fn(r) for r in self.data]
        else:
            for c in self.data:
                c.map_coords(fn)

    def to_wkb(self) -> bytes:
        dims = "xyz" if self.has_z else "xy"
        w = 3 if self.has_z else 2
        if self.kind == "point":
            return W.point_wkb_d(self.data[0, :w], dims)
        if self.kind == "line":
            return W.linestring_wkb_d(self.data[:, :w], dims)
        if self.kind == "polygon":
            return W.polygon_wkb_d([r[:, :w] for r in self.data], dims)
        code = {"collection": W.GEOMETRYCOLLECTION,
                "multipoint": W.MULTIPOINT,
                "multiline": W.MULTILINESTRING,
                "multipolygon": W.MULTIPOLYGON}[self.kind]
        dims_any = "xyz" if any(c.has_z for c in self.data) else "xy"
        return W.collection_wkb(code, [c.to_wkb() for c in self.data],
                                dims_any)


# ---------------------------------------------------------------------------
# smooth polyline (bulge) tessellation — DXFSmoothPolyline parity
# ---------------------------------------------------------------------------


def _tessellate_smooth(vertices, closed: bool, dim: int):
    """vertices: list of (x, y, z, bulge).  Returns _G."""
    verts = list(vertices)
    if not verts:
        return None
    if len(verts) == 1:
        x, y, z, _ = verts[0]
        return _G("point", np.array([[x, y, z]]),
                  dim == 3 and z != 0 or dim == 3)
    if closed and len(verts) >= 2:
        if (verts[-1][0], verts[-1][1]) != (verts[0][0], verts[0][1]):
            verts.append(verts[0])
    pts: list = []
    started = False
    for i in range(len(verts) - 1):
        x1, y1, z1, bulge = verts[i]
        x2, y2, z2, _ = verts[i + 1]
        ln = math.hypot(x2 - x1, y2 - y1)
        if ln == 0 or bulge == 0 or z1 != z2:
            if not started:
                pts.append((x1, y1, z1))
                started = True
            pts.append((x2, y2, z2))
        else:
            pts.extend(_emit_arc((x1, y1), (x2, y2), bulge, ln, z1))
    arr = np.array(pts, dtype=np.float64)
    return _G("line", arr, dim == 3)


def _emit_arc(start, end, bulge, length, z):
    """DXFSmoothPolyline::EmitArc, verbatim behavior -> list of
    (x,y,z) vertices (the whole arc, endpoints snapped)."""
    h = (bulge * length) / 2.0
    radius = h / 2.0 + (length * length / (8.0 * h))
    rot = 0.0
    r = abs(radius)
    clockwise = bulge < 0
    if clockwise:
        bulge = -bulge
    sagitta = abs(bulge * (length / 2.0))
    apo = -(r - sagitta) if clockwise else -(sagitta - r)
    vx = start[0] - end[0]
    vy = start[1] - end[1]
    mx = end[0] + 0.5 * vx
    my = end[1] + 0.5 * vy
    px, py = vy, -vx
    pl = math.hypot(px, py)
    if pl:
        px, py = px / pl, py / pl
    ccx = mx + px * apo
    ccy = my + py * apo
    linedir = 1.0 if end[1] > start[1] else -1.0

    def get_angle(cx, cy, px_, py_):
        return math.degrees(math.atan2(cy - py_[1], cx - py_[0]))

    def ogr_angle(a):
        return -(a - 180.0) if a > 0.0 else -(a + 180.0)

    a = math.degrees(math.atan2(ccy - start[1], ccx - start[0]))
    if clockwise and linedir == 1.0:
        a += linedir * 180.0
    arc_start = ogr_angle(a)
    a = math.degrees(math.atan2(ccy - end[1], ccx - end[0]))
    if clockwise and linedir == 1.0:
        a += linedir * 180.0
    arc_end = ogr_angle(a)
    if not clockwise and arc_start < arc_end:
        arc_end = -180.0 + linedir * a
    if clockwise and arc_start > arc_end:
        arc_end += 360.0
    if clockwise and linedir == 1.0:
        rot = linedir * 180.0
    if abs(arc_end - arc_start) > 361.0:
        return [(*start, z), (*end, z)]
    pts = approximate_arc(ccx, ccy, z, r, r, rot, arc_start, arc_end)
    out = [tuple(p) for p in pts]
    if len(out) >= 2:
        out[0] = (start[0], start[1], z)
        out[-1] = (end[0], end[1], z)
    return out


# ---------------------------------------------------------------------------
# NURBS spline sampling (Rogers, public domain; intronurbs.cpp parity)
# ---------------------------------------------------------------------------


def _spline_points(ctrl: np.ndarray, order: int, knots, weights,
                   n_out: int) -> np.ndarray:
    npts = len(ctrl)
    nplusc = npts + order
    x = np.asarray(knots, dtype=np.float64)  # length nplusc (0-based)
    h = np.asarray(weights, dtype=np.float64)
    t = x[0]
    step = (x[-1] - x[0]) / (n_out - 1)
    eps = 5e-6 * (x[-1] - x[0])
    out = np.empty((n_out, ctrl.shape[1]))
    for i1 in range(n_out):
        if x[-1] - t < eps:
            t = x[-1]
        # basis (Cox-de-Boor, 1-based algorithm mapped to 0-based)
        N = np.zeros(nplusc)
        for i in range(nplusc - 1):
            N[i] = 1.0 if (t >= x[i] and t < x[i + 1]) else 0.0
        for k in range(2, order + 1):
            for i in range(nplusc - k):
                d = 0.0
                e = 0.0
                if N[i] != 0:
                    denom = x[i + k - 1] - x[i]
                    if denom != 0:
                        d = (t - x[i]) * N[i] / denom
                if N[i + 1] != 0:
                    denom = x[i + k] - x[i + 1]
                    if denom != 0:
                        e = (x[i + k] - t) * N[i + 1] / denom
                N[i] = d + e
        if t == x[-1]:
            N[npts - 1] = 1.0
        r = N[:npts] * h
        s = r.sum()
        if s != 0:
            r = r / s
        else:
            r = np.zeros(npts)
        out[i1] = r @ ctrl
        t += step
    return out


def _open_knot(npts, order):
    """Rogers knot(): open uniform knot vector (0-based output)."""
    nplusc = npts + order
    x = np.zeros(nplusc)
    for i in range(1, nplusc):
        # 1-based i+1 in [2..nplusc]
        ii = i + 1
        if ii > order and ii < npts + 2:
            x[i] = x[i - 1] + 1.0
        else:
            x[i] = x[i - 1]
    return x


def _build_rings(edges: list[np.ndarray], tol_frac: float = 1e-7):
    """OGRBuildPolygonFromEdges role: chain unordered open edges into
    closed rings by endpoint proximity.  Returns list of rings or
    None when chaining fails."""
    if not edges:
        return None
    allpts = np.vstack(edges)
    span = max(allpts[:, 0].max() - allpts[:, 0].min(),
               allpts[:, 1].max() - allpts[:, 1].min())
    tol = span * tol_frac if span > 0 else 1e-10

    pool = [e.copy() for e in edges]
    rings = []
    chain = pool.pop(0)
    while True:
        if (abs(chain[0, 0] - chain[-1, 0]) <= tol
                and abs(chain[0, 1] - chain[-1, 1]) <= tol
                and len(chain) > 2):
            chain[-1, :2] = chain[0, :2]
            rings.append(chain)
            if not pool:
                return rings
            chain = pool.pop(0)
            continue
        end = chain[-1, :2]
        found = None
        for j, e in enumerate(pool):
            if (abs(e[0, 0] - end[0]) <= tol
                    and abs(e[0, 1] - end[1]) <= tol):
                found = (j, e)
                break
            if (abs(e[-1, 0] - end[0]) <= tol
                    and abs(e[-1, 1] - end[1]) <= tol):
                found = (j, e[::-1])
                break
        if found is None:
            # autoclose: force-close the ring (BuildPolygonFromEdges
            # bAutoClose=TRUE behavior)
            if len(chain) > 2:
                chain = np.vstack([chain, chain[:1]])
                rings.append(chain)
                if not pool:
                    return rings
                chain = pool.pop(0)
                continue
            return None
        j, e = found
        pool.pop(j)
        chain = np.vstack([chain, e[1:]])


# ---------------------------------------------------------------------------
# feature object
# ---------------------------------------------------------------------------


class _Feature:
    def __init__(self):
        self.fields = {"Layer": None, "PaperSpace": None, "SubClasses": None,
                       "Linetype": None, "EntityHandle": None, "Text": None}
        self.style_props: dict = {}
        self.ocs = list(_DEFAULT_N)
        self.geom: _G | None = None
        self.style: str | None = None
        # block-reference bookkeeping
        self.is_block_ref = False
        self.block_name = ""
        self.block_xyz = (0.0, 0.0, 0.0)
        self.block_scale = (1.0, 1.0, 1.0)
        self.block_angle = 0.0
        self.attrib_tag = ""
        self.attribs: list = []
        self.label_like = False

    def clone(self):
        import copy

        f = _Feature()
        f.fields = dict(self.fields)
        f.style_props = dict(self.style_props)
        f.ocs = list(self.ocs)
        f.geom = copy.deepcopy(self.geom)
        f.style = self.style
        f.is_block_ref = self.is_block_ref
        f.block_name = self.block_name
        f.block_xyz = self.block_xyz
        f.block_scale = self.block_scale
        f.block_angle = self.block_angle
        f.attrib_tag = self.attrib_tag
        f.attribs = [a.clone() for a in self.attribs]
        f.label_like = self.label_like
        return f

    def generic(self, code, value, reader):
        if code == 8:
            self.fields["Layer"] = value
        elif code == 100:
            sc = self.fields["SubClasses"]
            self.fields["SubClasses"] = (sc + ":" + value) if sc else value
        elif code == 60:
            if _atoi(value):
                self.style_props["Hidden"] = "1"
        elif code == 67:
            if _atoi(value):
                self.fields["PaperSpace"] = 1
        elif code == 62:
            self.style_props["Color"] = value
        elif code == 420:
            self.style_props["TrueColor"] = value
        elif code == 440:
            self.style_props["Transparency"] = value
        elif code == 6:
            self.fields["Linetype"] = value
        elif code == 48:
            self.style_props["LinetypeScale"] = value
        elif code in (370, 39):
            self.style_props["LineWeight"] = value
        elif code == 5:
            self.fields["EntityHandle"] = value
        elif code == 210:
            self.ocs[0] = _atof(value)
        elif code == 220:
            self.ocs[1] = _atof(value)
        elif code == 230:
            self.ocs[2] = _atof(value)

    def apply_ocs(self):
        if tuple(self.ocs) == _DEFAULT_N or self.geom is None:
            return
        n = tuple(self.ocs)
        self.geom.map_coords(lambda a: _ocs_to_wcs(n, a))
        # an OCS transform may introduce a third dimension to a 2-D
        # geometry (ApplyOCSTransformer's promote/flatten rule)
        if not self.geom.has_z:
            zs = []
            self.geom.map_coords(lambda a: (zs.append(a[:, 2]), a)[1])
            if zs and any(np.any(z != 0.0) for z in zs):
                def promote(g):
                    g.has_z = True
                    if g.kind not in ("point", "line", "polygon"):
                        for c in g.data:
                            promote(c)
                promote(self.geom)

    # -- color / style -----------------------------------------------------

    def get_color(self, reader, block_feature=None) -> str:
        layer = self.fields["Layer"] or "0"
        hidden = 0
        if ("Hidden" in self.style_props
                or (block_feature
                    and "Hidden" in block_feature.style_props)):
            hidden = 1
            self.style_props["Hidden"] = "1"
        else:
            lp = reader.layers.get(layer, {})
            hidden = int(lp.get("Hidden", "0"))
            if not hidden and block_feature:
                bl = reader.layers.get(
                    block_feature.fields["Layer"] or "0", {})
                if int(bl.get("Hidden", "0")) == 2:
                    hidden = 2
            if hidden == 2 and layer != "0":
                self.style_props["Hidden"] = "1"

        BYLAYER, BYBLOCK, TRUECOLOR, BYLAYER0 = 256, 0, -100, -101
        color = BYLAYER
        truecolor = 0
        if "TrueColor" in self.style_props:
            truecolor = _atoi(self.style_props["TrueColor"])
            color = TRUECOLOR
        elif "Color" in self.style_props:
            color = _atoi(self.style_props["Color"])
        if color < -101:
            # raw 32-bit colour words (MLEADER group 91) parse as
            # negative ints; mask back to unsigned so the 0xC0..0xC3
            # method nibble is detected (sentinels -100/-101 excluded)
            color &= 0xFFFFFFFF
        method = (color & 0xFF000000) >> 24 if color > 0 else 0
        if method == 0xC0:
            color = BYLAYER
        elif method == 0xC1:
            color = BYBLOCK
        elif method == 0xC2:
            truecolor = color & 0xFFFFFF
            color = TRUECOLOR
        elif method == 0xC3:
            color &= 0xFF

        if color == BYBLOCK and block_feature:
            if "TrueColor" in block_feature.style_props:
                truecolor = _atoi(block_feature.style_props["TrueColor"])
                color = TRUECOLOR
                self.style_props["TrueColor"] = \
                    block_feature.style_props["TrueColor"]
            elif "Color" in block_feature.style_props:
                color = _atoi(block_feature.style_props["Color"])
                self.style_props["Color"] = \
                    block_feature.style_props["Color"]
            else:
                color = BYLAYER
                layer = block_feature.fields["Layer"] or "0"
                self.style_props["Color"] = str(BYLAYER0)
        if color == BYLAYER0:
            layer = (block_feature.fields["Layer"] or "0"
                     if block_feature else "0")
            color = BYLAYER
        if color == BYLAYER:
            lp = reader.layers.get(layer, {})
            if "TrueColor" in lp:
                truecolor = _atoi(lp["TrueColor"])
                color = TRUECOLOR
                if block_feature and layer != "0":
                    self.style_props["TrueColor"] = lp["TrueColor"]
            elif "Color" in lp:
                color = _atoi(lp["Color"])
                if block_feature and layer != "0":
                    self.style_props["Color"] = lp["Color"]
        if color != TRUECOLOR and (color < 1 or color > 255):
            color = 7
        if color == TRUECOLOR:
            result = "#%06x" % truecolor
        else:
            result = "#%02x%02x%02x" % (
                _ACI[color * 3], _ACI[color * 3 + 1], _ACI[color * 3 + 2])
        if hidden:
            result += "00"
        return result

    def prepare_line_style(self, reader, block_feature=None,
                           brush: bool = False):
        layer = self.fields["Layer"] or "0"
        if brush:
            self.style = "BRUSH(fc:%s)" % self.get_color(
                reader, block_feature)
            return
        weight = self.style_props.get("LineWeight", "-1")
        if _atof(weight) == -2 and block_feature:
            if "LineWeight" in block_feature.style_props:
                weight = block_feature.style_props["LineWeight"]
                self.style_props["LineWeight"] = weight
            else:
                weight = "-1"
        if _atof(weight) == -1:
            weight = reader.layers.get(layer, {}).get("LineWeight", "")
        dfw = _atof(weight) / 100.0
        linetype = self.fields["Linetype"] or ""
        if linetype.lower() == "byblock" and block_feature:
            lt2 = block_feature.fields["Linetype"] or ""
            if lt2:
                linetype = lt2
                self.fields["Linetype"] = lt2
        if not linetype:
            linetype = reader.layers.get(layer, {}).get("Linetype", "")
        dashes = reader.linetypes.get(linetype, [])
        scale = _atof(reader.header.get("$LTSCALE", "1.0")) or 1.0
        if "LinetypeScale" in self.style_props:
            scale *= _atof(self.style_props["LinetypeScale"])
        pattern = " ".join("%.11gg" % (abs(v) * scale) for v in dashes)
        style = "PEN(c:" + self.get_color(reader, block_feature)
        if dfw > 0.0:
            style += ",w:%.2gg" % dfw
        if pattern:
            style += ',p:"%s"' % pattern
        style += ")"
        self.style = style

    def prepare_style(self, reader, block_feature=None):
        if self.style and self.style.startswith("BRUSH("):
            self.prepare_line_style(reader, block_feature, brush=True)
        elif self.style and self.style.startswith("LABEL("):
            new_color = self.get_color(reader, block_feature)
            pos = self.style.rfind(",c:")
            if pos >= 0:
                end = len(self.style)
                for j in range(pos + 3, len(self.style)):
                    if self.style[j] in ",)":
                        end = j
                        break
                self.style = (self.style[:pos + 3] + new_color
                              + self.style[end:])
        else:
            self.prepare_line_style(reader, block_feature)


def _atof(s) -> float:
    try:
        return float(str(s).split()[0])
    except (ValueError, IndexError):
        return 0.0


def _atoi(s) -> int:
    m = re.match(r"\s*([+-]?\d+)", str(s))
    return int(m.group(1)) if m else 0


# DIMSTYLE group code -> property (ogr_autocad_services.cpp:501) and
# AutoCAD defaults (Express\\defaults.scr per the reference comment)
_DIMCODE = {40: "DIMSCALE", 41: "DIMASZ", 42: "DIMEXO", 44: "DIMEXE",
            75: "DIMSE1", 76: "DIMSE2", 77: "DIMTAD", 140: "DIMTXT",
            147: "DIMGAP", 176: "DIMCLRD", 178: "DIMCLRT", 271: "DIMDEC",
            341: "DIMLDRBLK"}
_DIM_DEFAULTS = {"DIMSCALE": "1.0", "DIMASZ": "0.18", "DIMEXO": "0.0625",
                 "DIMEXE": "0.18", "DIMSE1": "0", "DIMSE2": "0",
                 "DIMTAD": "0", "DIMTXT": "0.18", "DIMGAP": "0.09",
                 "DIMCLRD": "0", "DIMCLRT": "0", "DIMDEC": "4",
                 "DIMLDRBLK": ""}


def _adjust_text(angle_deg, scale_x, scale_y, style: str) -> str:
    """ACAdjustText parity: rewrite a/s/w/dx/dy in a LABEL style."""
    if not style or not style.startswith("LABEL("):
        return style
    body = style[6:-1]
    # split on top-level commas respecting quotes
    parts = []
    cur = ""
    inq = False
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == '"' and (i == 0 or body[i - 1] != "\\"):
            inq = not inq
        if ch == "," and not inq:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
        i += 1
    parts.append(cur)
    kv = []
    for p in parts:
        k, _, v = p.partition(":")
        kv.append([k, v])

    def get(key):
        for k, v in kv:
            if k == key:
                return v
        return None

    def setv(key, val):
        for item in kv:
            if item[0] == key:
                item[1] = val
                return
        kv.append([key, val])

    if angle_deg != 0.0:
        old = _atof(get("a") or "0")
        setv("a", "%.3g" % (old + angle_deg))
    if scale_y != 1.0:
        h = get("s")
        if h is not None:
            setv("s", "%.3gg" % (_atof(h.rstrip("g")) * scale_y))
    if scale_x != scale_y and scale_y != 0.0:
        wfac = scale_x / scale_y
        old = _atof(get("w") or "100")
        setv("w", "%.4g" % (old * wfac))
    if scale_x != 1.0 or scale_y != 1.0 or angle_deg != 0.0:
        dx = _atof((get("dx") or "0").rstrip("g"))
        dy = _atof((get("dy") or "0").rstrip("g"))
        if dx != 0.0 or dy != 0.0:
            ar = math.radians(angle_deg)
            setv("dx", "%.6gg" % (scale_x * dx * math.cos(ar)
                                  + scale_y * dy * -math.sin(ar)))
            setv("dy", "%.6gg" % (scale_x * dx * math.sin(ar)
                                  + scale_y * dy * math.cos(ar)))
    return "LABEL(" + ",".join(k + ":" + v for k, v in kv) + ")"


_TEXT_SUBS = [("%%c", "\u00d8"), ("%%d", "\u00b0"), ("%%p", "\u00b1"),
              ("%%C", "\u00d8"), ("%%D", "\u00b0"), ("%%P", "\u00b1")]


def _text_unescape(s: str, mtext: bool) -> str:
    for a, b in _TEXT_SUBS:
        s = s.replace(a, b)
    s = re.sub(r"\\U\+([0-9A-Fa-f]{4})",
               lambda m: chr(int(m.group(1), 16)), s)
    if mtext:
        s = s.replace("\\P", "\n").replace("\\~", " ")
        # strip inline format directives \f...; \H...; \W...; \S...;
        s = re.sub(r"\\[fFHhWwCcTtQqAa][^;]*;", "", s)
        s = s.replace("{", "").replace("}", "")
        s = s.replace("\\\\", "\\")
    return s


# ---------------------------------------------------------------------------
# the reader
# ---------------------------------------------------------------------------


class DxfReader:
    def __init__(self, data: bytes | str):
        if isinstance(data, bytes) and data.startswith(_BIN_SENTINEL):
            self.header = {}
            self.layers = {}
            self.linetypes = {}
            self.blocks = {}
            self.text_styles = {}
            self.dimstyles = {}
            self.block_record_handles = {}
            self.style_handles = {}
            self._features = []
            self._parse(_Tape(_pairs_from_binary(data)))
            return
        if isinstance(data, bytes):
            # TextRecode role: $DWGCODEPAGE names the source encoding
            # (ANSI_1252 etc.); UTF-8 otherwise
            codec = "utf-8"
            m = re.search(rb"\$DWGCODEPAGE\s*\r?\n\s*3\s*\r?\n\s*(\S+)",
                          data[:65536])
            if m:
                cp = m.group(1).decode("ascii", "replace").upper()
                if cp.startswith("ANSI_"):
                    codec = "cp" + cp[5:]
            try:
                data = data.decode(codec)
            except (UnicodeDecodeError, LookupError):
                data = data.decode("cp1252", "replace")
        self.header: dict = {}
        self.layers: dict = {}
        self.linetypes: dict = {}
        self.blocks: dict = {}
        self.text_styles: dict = {}
        self.dimstyles: dict = {}
        self.block_record_handles: dict = {}
        self.style_handles: dict = {}
        self._features: list[_Feature] = []
        tape = _Tape(_pairs_from_text(data))
        self._parse(tape)

    # -- sections ----------------------------------------------------------

    def _parse(self, tape):
        while True:
            p = tape.read()
            if p is None:
                break
            if p == (0, "SECTION"):
                name = tape.read()
                if name is None:
                    break
                sec = name[1]
                if sec == "HEADER":
                    self._parse_header(tape)
                elif sec == "TABLES":
                    self._parse_tables(tape)
                elif sec == "BLOCKS":
                    self._parse_blocks(tape)
                elif sec == "ENTITIES":
                    self._parse_entities(tape)
                else:
                    self._skip_section(tape)

    def _skip_section(self, tape):
        while True:
            p = tape.read()
            if p is None or p == (0, "ENDSEC"):
                return

    def _parse_header(self, tape):
        var = None
        while True:
            p = tape.read()
            if p is None or p == (0, "ENDSEC"):
                return
            code, val = p
            if code == 9:
                var = val
            elif var is not None and var not in self.header:
                self.header[var] = val

    def _parse_tables(self, tape):
        cur = None
        rec: dict = {}
        name = ""
        kind = ""
        dashes: list = []

        def flush():
            nonlocal rec, dashes
            if kind == "LAYER" and name:
                self.layers[name] = rec
            elif kind == "LTYPE" and name:
                self.linetypes[name] = dashes
            elif kind == "STYLE" and name:
                self.text_styles[name] = rec
                if "_handle" in rec:
                    self.style_handles[rec["_handle"]] = name
            elif kind == "DIMSTYLE" and name:
                self.dimstyles[name] = rec
            elif kind == "BLOCK_RECORD" and rec.get("_handle") \
                    and rec.get("_name"):
                self.block_record_handles[rec["_handle"]] = rec["_name"]
            rec = {}
            dashes = []

        while True:
            p = tape.read()
            if p is None or p == (0, "ENDSEC"):
                flush()
                return
            code, val = p
            if code == 0:
                flush()
                if val in ("LAYER", "LTYPE", "STYLE", "DIMSTYLE",
                           "BLOCK_RECORD"):
                    kind = val
                    name = ""
                else:
                    if val not in ("TABLE", "ENDTAB"):
                        kind = ""
                    name = ""
                cur = val
                continue
            if cur == "DIMSTYLE":
                if code == 2:
                    name = val
                elif code in _DIMCODE:
                    rec[_DIMCODE[code]] = val
                continue
            if cur == "LAYER":
                if code == 2:
                    name = val
                elif code == 62:
                    c = _atoi(val)
                    if c < 0:
                        rec["Hidden"] = "1"
                        rec["Color"] = str(-c)
                    else:
                        rec["Color"] = str(c)
                elif code == 70:
                    if _atoi(val) & 0x01:
                        rec["Hidden"] = "2"
                elif code == 420:
                    rec["TrueColor"] = val
                elif code == 6:
                    rec["Linetype"] = val
                elif code == 370:
                    rec["LineWeight"] = val
            elif cur == "LTYPE":
                if code == 2:
                    name = val
                elif code == 49:
                    dashes.append(_atof(val))
            elif cur == "STYLE":
                if code == 2:
                    name = val
                elif code == 5:
                    self.style_handles[val.upper()] = None
                    rec["_handle"] = val.upper()
                elif code == 41:
                    rec["Width"] = val
                elif code == 1000:
                    rec["Font"] = val
                elif code == 1071:
                    flags = _atoi(val)
                    if flags & 0x2000000:
                        rec["Bold"] = "1"
                    if flags & 0x1000000:
                        rec["Italic"] = "1"
            elif cur == "BLOCK_RECORD":
                if code == 2:
                    name = val
                    rec["_name"] = val
                elif code == 5:
                    rec["_handle"] = val.upper()

    def _parse_blocks(self, tape):
        cur_name = None
        base = [0.0, 0.0, 0.0]
        feats: list = []
        while True:
            p = tape.read()
            if p is None or p == (0, "ENDSEC"):
                return
            code, val = p
            if code != 0:
                if cur_name is None:
                    continue
                if code == 2 and not cur_name:
                    cur_name = val
                elif code == 10:
                    base[0] = _atof(val)
                elif code == 20:
                    base[1] = _atof(val)
                elif code == 30:
                    base[2] = _atof(val)
                continue
            if val == "BLOCK":
                cur_name = ""
                base = [0.0, 0.0, 0.0]
                feats = []
                # read block header pairs until first entity / ENDBLK
                while True:
                    q = tape.read()
                    if q is None:
                        return
                    c2, v2 = q
                    if c2 == 0:
                        tape.unread()
                        break
                    if c2 == 2:
                        cur_name = v2
                    elif c2 == 10:
                        base[0] = _atof(v2)
                    elif c2 == 20:
                        base[1] = _atof(v2)
                    elif c2 == 30:
                        base[2] = _atof(v2)
            elif val == "ENDBLK":
                if cur_name:
                    if base != [0.0, 0.0, 0.0]:
                        off = np.array(base)
                        for f in feats:
                            if f.geom is not None:
                                f.geom.map_coords(lambda a: a - off)
                            if f.is_block_ref:
                                f.block_xyz = tuple(
                                    np.array(f.block_xyz) - off)
                    self.blocks[cur_name] = feats
                cur_name = None
                # consume trailing ENDBLK pairs
                while True:
                    q = tape.read()
                    if q is None:
                        return
                    if q[0] == 0:
                        tape.unread()
                        break
            else:
                f = self._translate_entity(val, tape, in_block=True)
                if f is not None and cur_name is not None:
                    if isinstance(f, list):
                        feats.extend(f)
                    else:
                        feats.append(f)

    # -- entities ----------------------------------------------------------

    def _parse_entities(self, tape):
        while True:
            p = tape.read()
            if p is None or p == (0, "ENDSEC"):
                return
            code, val = p
            if code != 0:
                continue
            f = self._translate_entity(val, tape, in_block=False)
            if f is None:
                continue
            if isinstance(f, list):
                # DIMENSION: styles already prepared
                self._features.extend(f)
            elif f.is_block_ref:
                self._expand_insert(f)
            else:
                f.prepare_style(self, None)
                self._features.append(f)

    def _read_entity_pairs(self, tape):
        """-> list of (code, value) pairs for one entity."""
        out = []
        while True:
            p = tape.read()
            if p is None:
                return out
            if p[0] == 0:
                tape.unread()
                return out
            out.append(p)

    def _translate_entity(self, etype, tape, in_block):
        pairs = self._read_entity_pairs(tape)
        fn = getattr(self, "_tr_" + etype.lower(), None)
        if etype == "INSERT":
            return self._tr_insert(pairs, tape)
        if fn is None:
            return None  # unsupported entity: skipped (see COVERAGE.md)
        return fn(pairs)

    # each _tr_* returns a _Feature or None

    def _tr_point(self, pairs):
        f = _Feature()
        x = y = z = 0.0
        has_z = False
        for code, val in pairs:
            if code == 10:
                x = _atof(val)
            elif code == 20:
                y = _atof(val)
            elif code == 30:
                z = _atof(val)
                has_z = True
            else:
                f.generic(code, val, self)
        # POINT coordinates are WCS already - the reference's
        # TranslatePOINT applies no OCS transform (ogrdxflayer.cpp:1062)
        f.geom = _G("point", np.array([[x, y, z]]), has_z)
        return f

    def _tr_line(self, pairs):
        f = _Feature()
        c = {10: 0.0, 20: 0.0, 30: None, 11: 0.0, 21: 0.0, 31: None}
        for code, val in pairs:
            if code in c:
                c[code] = _atof(val)
            else:
                f.generic(code, val, self)
        has_z = c[30] is not None or c[31] is not None
        f.geom = _G("line", np.array(
            [[c[10], c[20], c[30] or 0.0], [c[11], c[21], c[31] or 0.0]]),
            has_z)
        # LINE is a WCS entity - no OCS transform (DXF spec)
        return f

    def _tr_lwpolyline(self, pairs):
        f = _Feature()
        flags = 0
        z = 0.0
        dim = 2
        verts = []
        x = None
        y = None
        bulge = 0.0
        for code, val in pairs:
            if code == 38:
                z = _atof(val)
                dim = 3
            elif code == 70:
                flags = _atoi(val)
            elif code == 90:
                pass
            elif code == 10:
                if x is not None and y is not None:
                    verts.append((x, y, z, bulge))
                    bulge = 0.0
                    y = None
                x = _atof(val)
            elif code == 20:
                if x is not None and y is not None:
                    verts.append((x, y, z, bulge))
                    bulge = 0.0
                    x = None
                y = _atof(val)
            elif code == 42:
                bulge = _atof(val)
            else:
                f.generic(code, val, self)
        if x is not None and y is not None:
            verts.append((x, y, z, bulge))
        if not verts:
            return None
        f.geom = _tessellate_smooth(verts, bool(flags & 0x01), dim)
        f.apply_ocs()
        return f

    def _tr_polyline(self, pairs, tape=None):
        # entity pairs already consumed; VERTEX records follow as
        # separate 0-entities and are handled by the caller via
        # _parse_entities... but POLYLINE owns them, so we re-scan.
        return None

    def _tr_circle(self, pairs):
        f = _Feature()
        x = y = z = r = 0.0
        has_z = False
        for code, val in pairs:
            if code == 10:
                x = _atof(val)
            elif code == 20:
                y = _atof(val)
            elif code == 30:
                z = _atof(val)
                has_z = True
            elif code == 40:
                r = _atof(val)
            elif code == 39:
                pass  # thickness extrusion: named boundary
            else:
                f.generic(code, val, self)
        pts = approximate_arc(x, y, z, r, r, 0.0, 0.0, 360.0)
        f.geom = _G("line", pts, has_z)
        f.apply_ocs()
        return f

    def _tr_arc(self, pairs):
        f = _Feature()
        x = y = z = r = 0.0
        start, end = 0.0, 360.0
        has_z = False
        for code, val in pairs:
            if code == 10:
                x = _atof(val)
            elif code == 20:
                y = _atof(val)
            elif code == 30:
                z = _atof(val)
                has_z = True
            elif code == 40:
                r = _atof(val)
            elif code == 50:
                end = -_atof(val)
            elif code == 51:
                start = -_atof(val)
            else:
                f.generic(code, val, self)
        if start > end:
            end += 360.0
        if abs(end - start) > 361.0:
            return None
        pts = approximate_arc(x, y, z, r, r, 0.0, start, end)
        f.geom = _G("line", pts, has_z)
        f.apply_ocs()
        return f

    def _tr_ellipse(self, pairs):
        f = _Feature()
        x = y = z = 0.0
        ax = ay = az = 0.0
        ratio = 0.0
        start, end = 0.0, 360.0
        has_z = False
        for code, val in pairs:
            if code == 10:
                x = _atof(val)
            elif code == 20:
                y = _atof(val)
            elif code == 30:
                z = _atof(val)
                has_z = True
            elif code == 11:
                ax = _atof(val)
            elif code == 21:
                ay = _atof(val)
            elif code == 31:
                az = _atof(val)
            elif code == 40:
                ratio = _atof(val)
            elif code == 41:
                end = -_atof(val) * 180.0 / math.pi
            elif code == 42:
                start = -_atof(val) * 180.0 / math.pi
            else:
                f.generic(code, val, self)
        apply_ocs = tuple(f.ocs) != _DEFAULT_N
        if apply_ocs:
            n = tuple(f.ocs)
            c = _wcs_to_ocs(n, np.array([[x, y, z]]))[0]
            x, y, z = c
            a = _wcs_to_ocs(n, np.array([[ax, ay, az]]))[0]
            ax, ay, az = a
        rp = math.sqrt(ax * ax + ay * ay + az * az)
        rs = ratio * rp
        rot = -math.degrees(math.atan2(ay, ax))
        if start > end:
            end += 360.0
        if abs(end - start) > 361.0:
            return None
        pts = approximate_arc(x, y, z, rp, rs, rot, start, end)
        f.geom = _G("line", pts, has_z)
        if apply_ocs:
            f.apply_ocs()
        return f

    def _tr_solid(self, pairs):
        f = _Feature()
        c = np.zeros((4, 3))
        for code, val in pairs:
            if 10 <= code <= 13:
                c[code - 10, 0] = _atof(val)
            elif 20 <= code <= 23:
                c[code - 20, 1] = _atof(val)
            elif 30 <= code <= 33:
                c[code - 30, 2] = _atof(val)
            else:
                f.generic(code, val, self)
        want_z = bool(np.any(c[:, 2] != 0.0))
        uniq = np.unique(c, axis=0)
        n = len(uniq)
        if n == 1:
            f.geom = _G("point", uniq[:1], want_z)
            brush = False
        elif n == 2:
            order = np.lexsort((uniq[:, 1], uniq[:, 0]))
            f.geom = _G("line", uniq[order], want_z)
            brush = False
        else:
            # vertices joined 1-2-4-3-1 (GDAL trac #7089)
            ring = [c[0]]
            if not np.array_equal(c[0], c[1]):
                ring.append(c[1])
            if not np.array_equal(c[1], c[3]):
                ring.append(c[3])
            if not np.array_equal(c[3], c[2]):
                ring.append(c[2])
            ring.append(ring[0])
            f.geom = _G("polygon", [np.array(ring)], want_z)
            brush = True
        f.apply_ocs()
        f.style = "BRUSH(" if brush else None  # marker for style pass
        if brush:
            f.prepare_line_style(self, None, brush=True)
        return f

    def _tr_wipeout(self, pairs):
        """WIPEOUT image outline → POLYGON (TranslateWIPEOUT,
        ogrdxflayer.cpp:2874): insertion point (10/20) is the first
        ring vertex; boundary vertices (14/24) map through
        offset + (0.5 + x)·uscale / offset + (0.5 − y)·vscale; point
        format 71=1 is unsupported and skips the entity."""
        f = _Feature()
        xoff = yoff = 0.0
        xs = ys = 1.0
        x = 0.0
        pts = []
        for code, val in pairs:
            if code == 10:
                xoff = _atof(val)
            elif code == 20:
                yoff = _atof(val)
                pts.append((xoff, yoff))
            elif code == 11:
                xs = _atof(val)
            elif code == 22:
                ys = _atof(val)
            elif code == 71:
                if _atoi(val) == 1:
                    return None
            elif code == 14:
                x = _atof(val)
            elif code == 24:
                y = _atof(val)
                pts.append((xoff + (0.5 + x) * xs,
                            yoff + (0.5 - y) * ys))
            elif code in (12, 21, 31, 32, 91, 281, 282, 293):
                pass
            else:
                f.generic(code, val, self)
        if not pts:
            return None
        if pts[0] != pts[-1]:
            pts.append(pts[0])
        f.geom = _G("polygon",
                    [np.array([(px, py, 0.0) for px, py in pts])],
                    False)
        f.prepare_line_style(self, None)
        return f

    def _tr_3dface(self, pairs):
        f = _Feature()
        c = np.zeros((4, 3))
        for code, val in pairs:
            if 10 <= code <= 13:
                c[code - 10, 0] = _atof(val)
            elif 20 <= code <= 23:
                c[code - 20, 1] = _atof(val)
            elif 30 <= code <= 33:
                c[code - 30, 2] = _atof(val)
            else:
                f.generic(code, val, self)
        ring = [c[0], c[1], c[2]]
        if not np.array_equal(c[3], c[2]):
            ring.append(c[3])
        ring.append(ring[0])
        f.geom = _G("polygon", [np.array(ring)], True)
        f.apply_ocs()
        return f

    def _tr_spline(self, pairs):
        f = _Feature()
        ctrl: list = []
        knots: list = []
        weights: list = []
        degree = -1
        nctrl = -1
        nknots = -1
        has_z = False
        pending = None
        for code, val in pairs:
            if code == 10:
                if pending is not None:
                    ctrl.append(pending + [0.0])
                pending = [_atof(val)]
            elif code == 20:
                if pending is not None:
                    pending.append(_atof(val))
            elif code == 30:
                if pending is not None and len(pending) == 2:
                    pending.append(_atof(val))
                    ctrl.append(pending)
                    pending = None
                    has_z = True
            elif code == 40:
                v = _atof(val)
                if -1e-10 < v < 0:
                    v = 0.0
                knots.append(v)
            elif code == 41:
                weights.append(_atof(val))
            elif code == 71:
                degree = _atoi(val)
            elif code == 72:
                nknots = _atoi(val)
            elif code == 73:
                nctrl = _atoi(val)
            else:
                f.generic(code, val, self)
        if pending is not None:
            if len(pending) == 2:
                pending.append(0.0)
            ctrl.append(pending)
        order = degree + 1
        if order < 2 or not ctrl:
            return None
        b = np.array(ctrl, dtype=np.float64)
        npts = len(b)
        if nctrl != -1 and nctrl != npts:
            return None
        if npts < order:
            return None
        calc = False
        if not knots:
            knots = list(_open_knot(npts, order))
            calc = True
        if not calc and len(knots) != npts + order:
            return None
        if nknots != -1 and not calc and nknots != len(knots):
            return None
        if not weights:
            weights = [1.0] * npts
        if len(weights) != npts:
            return None
        p1 = npts * 8
        pts = _spline_points(b, order, knots, weights, p1)
        f.geom = _G("line", pts, has_z)
        return f

    def _tr_text(self, pairs, mtext=False, attrib=False):
        f = _Feature()
        x = y = z = 0.0
        has_z = False
        angle = 0.0
        height = 0.0
        widthf = 1.0
        text = ""
        stylename = "STANDARD"
        halign = 0
        valign = 0
        apx = apy = 0.0
        has_ap = False
        tag = ""
        for code, val in pairs:
            if code == 10:
                x = _atof(val)
            elif code == 20:
                y = _atof(val)
            elif code == 30:
                z = _atof(val)
                has_z = True
            elif code == 11:
                apx = _atof(val)
            elif code == 21:
                apy = _atof(val)
                has_ap = True
            elif code == 40:
                height = _atof(val)
            elif code == 41:
                widthf = _atof(val)
            elif code == 50:
                angle = _atof(val)
            elif code in (1, 3):
                text += _text_unescape(val, mtext)
            elif code == 7:
                stylename = val
            elif code == 2 and attrib:
                tag = val
            elif code == 72:
                halign = _atoi(val)
            elif code in (73, 74) and not mtext:
                valign = _atoi(val)
            else:
                f.generic(code, val, self)
        f.geom = _G("point", np.array([[x, y, z]]), has_z)
        f.apply_ocs()
        f.attrib_tag = tag
        anchor = 1
        if halign > 0 or valign > 0:
            if valign == 1:
                anchor = 10
            elif valign == 2:
                anchor = 4
            elif valign == 3:
                anchor = 7
            elif halign == 4:
                anchor = 5
            if halign < 3:
                anchor += halign
        f.fields["Text"] = text
        esc = text.replace('"', '\\"')
        style = 'LABEL(f:"%s"' % self.text_styles.get(
            stylename, {}).get("Font", "Arial")
        style += ',t:"%s"' % esc
        style += ",p:%d" % anchor
        if angle != 0.0:
            style += ",a:%.3g" % angle
        if height != 0.0:
            style += ",s:%.3gg" % height
        if widthf != 1.0:
            style += ",w:%.4g" % (widthf * 100.0)
        if has_ap and apx != x:
            style += ",dx:%.6gg" % (apx - x)
        if has_ap and apy != y:
            style += ",dy:%.6gg" % (apy - y)
        style += ",c:" + self.get_color_of(f)
        style += ")"
        f.style = style
        f.label_like = True
        return f

    def get_color_of(self, f):
        return f.get_color(self)

    def _tr_mtext(self, pairs):
        """TranslateMTEXT parity: no OCS on the point, angle from the
        11/21 direction vector, attachment-point map, width factor
        from the text style only; style order f,bo,it,t,a,s,w,p,c."""
        f = _Feature()
        x = y = z = 0.0
        has_z = False
        angle = 0.0
        height = 0.0
        attachment = -1
        text = ""
        stylename = "STANDARD"
        for code, val in pairs:
            if code == 10:
                x = _atof(val)
            elif code == 20:
                y = _atof(val)
            elif code == 30:
                z = _atof(val)
                has_z = True
            elif code == 40:
                height = _atof(val)
            elif code == 71:
                attachment = _atoi(val)
            elif code == 11:
                pass
            elif code == 21:
                # direction vector; needs the 11 value too
                pass
            elif code in (1, 3):
                text += _text_unescape(val, True)
            elif code == 50:
                angle = _atof(val)
            elif code == 7:
                stylename = val
            else:
                f.generic(code, val, self)
        dirx = diry = None
        for code, val in pairs:
            if code == 11:
                dirx = _atof(val)
            elif code == 21:
                diry = _atof(val)
        if dirx is not None and diry is not None:
            angle = math.degrees(math.atan2(diry, dirx))
        f.geom = _G("point", np.array([[x, y, z]]), has_z)
        if text.endswith("\n"):
            text = text[:-1]
        f.fields["Text"] = text
        esc = text.replace('"', '\\"')
        sty = self.text_styles.get(stylename, {})
        style = 'LABEL(f:"%s"' % sty.get("Font", "Arial")
        if sty.get("Bold") == "1":
            style += ",bo:1"
        if sty.get("Italic") == "1":
            style += ",it:1"
        style += ',t:"%s"' % esc
        if angle != 0.0:
            style += ",a:%.3g" % angle
        if height != 0.0:
            style += ",s:%.3gg" % height
        wf = _atof(sty.get("Width", "1"))
        if wf and wf != 1.0:
            style += ",w:%.4g" % (wf * 100.0)
        if 0 <= attachment <= 9:
            amap = [-1, 7, 8, 9, 4, 5, 6, 1, 2, 3]
            style += ",p:%d" % amap[attachment]
        style += ",c:" + f.get_color(self)
        style += ")"
        f.style = style
        f.label_like = True
        return f

    def _tr_attrib(self, pairs):
        return self._tr_text(pairs, attrib=True)

    def _tr_attdef(self, pairs):
        return self._tr_text(pairs, attrib=True)

    # -- HATCH ----------------------------------------------------------------

    def _tr_hatch(self, pairs):
        """TranslateHATCH parity: boundary paths (polyline paths and
        line/circular-arc/elliptic-arc/spline edges) chained into a
        polygon (OGRBuildPolygonFromEdges role), BRUSH style."""
        f = _Feature()
        elevation = 0.0
        edges: list[tuple[np.ndarray, bool]] = []  # (chain, has_z)
        i = 0
        n = len(pairs)

        def collect_polyline_path():
            nonlocal i
            verts = []
            x = y = None
            bulge = 0.0
            closed = False
            count = -1
            while i < n:
                code, val = pairs[i]
                i += 1
                if code == 93:
                    count = _atoi(val)
                elif code == 72:
                    pass
                elif code == 73:
                    closed = _atoi(val) != 0
                elif code == 10:
                    if x is not None and y is not None:
                        verts.append((x, y, elevation, bulge))
                        bulge = 0.0
                        y = None
                    x = _atof(val)
                elif code == 20:
                    y = _atof(val)
                    if x is not None:
                        verts.append((x, y, elevation, bulge))
                        bulge = 0.0
                        x = y = None
                elif code == 42:
                    if verts:
                        verts[-1] = verts[-1][:3] + (_atof(val),)
                elif code in (97, 92):
                    i -= 1
                    break
                else:
                    i -= 1
                    break
                if count >= 0 and len(verts) >= count and \
                        i < n and pairs[i][0] not in (10, 20, 42):
                    break
            g = _tessellate_smooth(verts, closed, 3 if elevation else 2)
            if g is not None and g.kind == "line":
                edges.append((g.data, elevation != 0))

        def read_if(code_want):
            nonlocal i
            if i < n and pairs[i][0] == code_want:
                v = _atof(pairs[i][1])
                i += 1
                return v
            return None

        def collect_edge_path():
            nonlocal i
            cnt = read_if(93)
            if cnt is None:
                return
            for _ in range(int(cnt)):
                et = read_if(72)
                if et is None:
                    return
                et = int(et)
                if et == 1:  # line
                    x1 = read_if(10)
                    y1 = read_if(20)
                    x2 = read_if(11)
                    y2 = read_if(21)
                    if None in (x1, y1, x2, y2):
                        return
                    edges.append((np.array(
                        [[x1, y1, elevation], [x2, y2, elevation]]), True))
                elif et == 2:  # circular arc
                    cx = read_if(10)
                    cy = read_if(20)
                    r = read_if(40)
                    sa = read_if(50)
                    ea = read_if(51)
                    if None in (cx, cy, r, sa, ea):
                        return
                    ccw = read_if(73)
                    if sa > ea:
                        ea += 360.0
                    if ccw:
                        sa, ea = -sa, -ea
                    if abs(ea - sa) <= 361.0:
                        pts = approximate_arc(cx, cy, elevation, r, r,
                                              0.0, sa, ea)
                        edges.append((pts, elevation != 0))
                elif et == 3:  # elliptic arc
                    cx = read_if(10)
                    cy = read_if(20)
                    mx = read_if(11)
                    my = read_if(21)
                    ratio = read_if(40)
                    sa = read_if(50)
                    ea = read_if(51)
                    if None in (cx, cy, mx, my, ratio, sa, ea) or not ratio:
                        return
                    ccw = read_if(73)
                    if sa > ea:
                        ea += 360.0
                    if ccw:
                        sa, ea = -sa, -ea
                    rp = math.hypot(mx, my)
                    rs = rp * ratio
                    rot = -math.degrees(math.atan2(my, mx))

                    def circ2param(a):
                        # circular angle -> elliptical parameter
                        # (ogrdxf_hatch.cpp:ET_ELLIPTIC_ARC)
                        adj = 0.0
                        if abs(math.fmod(a, 180)) == 90:
                            adj = 180 if a < 0 or (a == 0 and
                                                   math.copysign(1, a) < 0) \
                                else -180
                        return (180.0 * round(a / 180) + adj
                                + math.degrees(math.atan(
                                    (1.0 / ratio)
                                    * math.tan(math.radians(a)))))

                    sa2, ea2 = circ2param(sa), circ2param(ea)
                    if abs(ea2 - sa2) <= 361.0:
                        pts = approximate_arc(cx, cy, elevation, rp, rs,
                                              rot, sa2, ea2)
                        edges.append((pts, elevation != 0))
                elif et == 4:  # spline
                    deg = read_if(94)
                    if deg is None:
                        return
                    read_if(73)
                    read_if(74)
                    read_if(95)
                    read_if(96)
                    knots = []
                    while True:
                        v = read_if(40)
                        if v is None:
                            break
                        knots.append(0.0 if -1e-10 < v < 0 else v)
                    ctrl = []
                    weights = []
                    while True:
                        x = read_if(10)
                        if x is None:
                            break
                        y = read_if(20)
                        if y is None:
                            break
                        ctrl.append([x, y, 0.0])
                        w = read_if(42)
                        if w is not None:
                            weights.append(w)
                    # skip to next 72 or 97
                    while i < n and pairs[i][0] not in (72, 97):
                        i += 1
                    order = int(deg) + 1
                    b = np.array(ctrl)
                    if len(b) >= order:
                        if not knots:
                            knots = list(_open_knot(len(b), order))
                        if not weights:
                            weights = [1.0] * len(b)
                        if (len(knots) == len(b) + order
                                and len(weights) == len(b)):
                            pts = _spline_points(b, order, knots, weights,
                                                 len(b) * 8)
                            edges.append((pts, False))
                else:
                    return
            # object-count tail (97 nnn + handles)
            if i < n and pairs[i][0] == 97:
                cnt2 = _atoi(pairs[i][1])
                i += 1
                i += cnt2

        while i < n:
            code, val = pairs[i]
            i += 1
            if code == 30:
                elevation = _atof(val)
            elif code == 2:
                f.fields["Text"] = val
            elif code == 91:
                npaths = _atoi(val)
                for _ in range(npaths):
                    if i < n and pairs[i][0] == 92:
                        ptype = _atoi(pairs[i][1])
                        i += 1
                        if ptype & 0x02:
                            collect_polyline_path()
                        else:
                            collect_edge_path()
                        # polyline-path object-count tail
                        if i < n and pairs[i][0] == 97:
                            cnt2 = _atoi(pairs[i][1])
                            i += 1
                            i += cnt2
                    else:
                        break
            elif code in (70, 52, 41, 1001, 1071, 75, 76, 98, 10, 20,
                          450, 451, 452, 453, 460, 461, 462, 463, 470,
                          47, 98, 453):
                pass
            else:
                f.generic(code, val, self)

        if not edges:
            return None
        has_z = any(z for _, z in edges)
        rings = _build_rings([e for e, _ in edges])
        if rings is None:
            f.geom = _G("multiline",
                        [_G("line", e, has_z) for e, _ in edges], has_z)
            f.prepare_line_style(self, None)
            return f
        f.geom = _G("polygon", rings, has_z)
        f.apply_ocs()
        f.prepare_line_style(self, None, brush=True)
        return f

    # -- DIMENSION -----------------------------------------------------------

    def _tr_dimension(self, pairs):
        """TranslateDIMENSION parity (fallback renderer path): the
        anonymous block is inlined when present; otherwise the main
        arrow line + extension lines (MULTILINESTRING), two default
        triangular arrowheads (ogrdxf_leader.cpp
        GenerateDefaultArrowhead) and the computed dimension label.
        Returns a LIST of features."""
        f = _Feature()
        ax1 = ay1 = tx1 = ty1 = tx2 = ty2 = lx = ly = 0.0
        block = None
        text = ""
        props = dict(_DIM_DEFAULTS)
        override_key = None
        ready = False
        for code, val in pairs:
            if code == 2:
                block = val
            elif code == 3:
                props.update(self.dimstyles.get(val, {}))
            elif code == 10:
                ax1 = _atof(val)
            elif code == 20:
                ay1 = _atof(val)
            elif code == 11:
                lx = _atof(val)
            elif code == 21:
                ly = _atof(val)
            elif code == 13:
                tx2 = _atof(val)
            elif code == 23:
                ty2 = _atof(val)
            elif code == 14:
                tx1 = _atof(val)
            elif code == 24:
                ty1 = _atof(val)
            elif code == 1:
                text = val
            elif code == 1001:
                ready = val == "ACAD"
            elif code == 1070:
                if ready and override_key is None:
                    override_key = _DIMCODE.get(_atoi(val))
                elif override_key is not None:
                    props[override_key] = val
                    override_key = None
            elif code in (1005, 1040):
                if override_key is not None:
                    props[override_key] = val
                    override_key = None
            elif code in (30, 31, 33, 34, 70):
                pass
            else:
                f.generic(code, val, self)
        if block and block in self.blocks:
            return self._insert_inline(block, f, (0.0, 0.0, 0.0),
                                       (1.0, 1.0, 1.0), 0.0, 0)
        scale = _atof(props["DIMSCALE"])
        asz = _atof(props["DIMASZ"])
        exe = _atof(props["DIMEXE"])
        exo = _atof(props["DIMEXO"])
        want1 = _atoi(props["DIMSE1"]) == 0
        want2 = _atoi(props["DIMSE2"]) == 0
        theight = _atof(props["DIMTXT"])
        prec = _atoi(props["DIMDEC"])
        centered = _atoi(props["DIMTAD"]) == 0
        tcolor = props["DIMCLRT"]

        v1x, v1y = ax1 - tx1, ay1 - ty1
        ln = math.hypot(v1x, v1y)
        if ln > 0:
            v1x /= ln
            v1y /= ln
        if v1x == 0.0 and v1y == 0.0:
            ax2, ay2 = tx2, ty2
        elif v1x == 0.0:
            ax2, ay2 = tx2, ay1
        elif v1y == 0.0:
            ax2, ay2 = ax1, ty2
        else:
            m1 = v1y / v1x
            b1 = ty2 - m1 * tx2
            m2 = -v1x / v1y
            b2 = ay1 - m2 * ax1
            ax2 = (b2 - b1) / (m1 - m2)
            ay2 = m2 * ax2 + b2

        lines = [np.array([[ax1, ay1, 0.0], [ax2, ay2, 0.0]])]
        out = [f]
        pending = []

        def arrowhead(p1, p2):
            seg = math.hypot(p2[0] - p1[0], p2[1] - p1[1])
            size = asz * scale
            if size == 0.0 or seg == 0.0 or size > 0.5 * seg:
                return
            sc = size / seg
            parx = sc * (p2[0] - p1[0])
            pary = sc * (p2[1] - p1[1])
            perx, pery = pary, -parx
            ring = np.array([
                [p1[0] + parx + perx / 6, p1[1] + pary + pery / 6, 0.0],
                [p1[0], p1[1], 0.0],
                [p1[0] + parx - perx / 6, p1[1] + pary - pery / 6, 0.0],
                [p1[0] + parx + perx / 6, p1[1] + pary + pery / 6, 0.0]])
            g = f.clone()
            g.geom = _G("polygon", [ring], True)
            g.prepare_line_style(self, None, brush=True)
            pending.append(g)

        arrowhead((ax1, ay1), (ax2, ay2))
        arrowhead((ax2, ay2), (ax1, ay1))
        l1 = np.array([[tx1 + v1x * exo, ty1 + v1y * exo, 0.0],
                       [ax1 + v1x * exe, ay1 + v1y * exe, 0.0]])
        if want1 and np.linalg.norm(l1[1, :2] - l1[0, :2]) > 0.0:
            lines.append(l1)
        l2 = np.array([[tx2 + v1x * exo, ty2 + v1y * exo, 0.0],
                       [ax2 + v1x * exe, ay2 + v1y * exe, 0.0]])
        if want2 and np.linalg.norm(l2[1, :2] - l2[0, :2]) > 0.0:
            lines.append(l2)
        f.geom = _G("multiline",
                    [_G("line", a, False) for a in lines], False)
        f.prepare_line_style(self, None)
        out.extend(pending)

        if text == " ":
            return out
        label = f.clone()
        label.geom = _G("point", np.array([[lx, ly, 0.0]]), False)
        if not text:
            text = "<>"
        if "<>" in text:
            dist = math.hypot(ax2 - ax1, ay2 - ay1)
            prec = min(max(prec, 0), 20)
            text = text.replace("<>", "%.*f" % (prec, dist), 1)
        text = _text_unescape(text, True)
        label.fields["Text"] = text
        style = 'LABEL(f:"Arial",t:"%s"' % text.replace('"', '\\"')
        style += ",p:11" if centered else ",p:5"
        tangle = (-90.0 if ax1 == ax2
                  else math.degrees(math.atan((ay1 - ay2) / (ax1 - ax2))))
        if tangle != 0.0:
            style += ",a:%.3g" % tangle
        if theight != 0.0:
            style += ",s:%.3gg" % (theight * scale)
        label.style_props["Color"] = tcolor
        style += ",c:" + label.get_color(self, f)
        style += ")"
        label.style = style
        label.label_like = True
        out.append(label)
        return out

    # -- LEADER / MULTILEADER (ogrdxf_leader.cpp parity, round 5) ------------

    _SPECIAL_ARROWHEADS = ("_ArchTick", "_DotSmall", "_Integral",
                           "_None", "_Oblique", "_Small")

    @staticmethod
    def _bspline_interpolate(pts: np.ndarray,
                             end_tangent=(0.0, 0.0, 0.0)) -> np.ndarray:
        """InterpolateSpline parity: cubic B-spline through the data
        points (chord-length parameterisation, clamped knots, start/
        end tangent rows), solved with numpy and evaluated with the
        in-repo Rogers rbspline2 twin at 8x control-point density."""
        # drop sequential duplicates
        keep = [0]
        for i in range(1, len(pts)):
            if not np.array_equal(pts[i], pts[keep[-1]]):
                keep.append(i)
        pts = pts[keep]
        n = len(pts)
        if n < 2:
            return pts
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        params = np.concatenate([[0.0], np.cumsum(chords)])
        if np.any(np.diff(params) == 0.0):
            return pts
        total = params[-1]
        start_tan = (pts[1] - pts[0]) * (total / params[1])
        et = np.asarray(end_tangent, np.float64)
        if not et.any():
            et = (pts[-1] - pts[-2]) / (total - params[-2])
        et = et * total
        params = params / total
        degree = 3
        # knots: degree zeros + params + degree ones  (n + 2·degree
        # elements → n+2 control points, order 4)
        knots = np.concatenate([np.zeros(degree), params,
                                np.ones(degree)])

        def basis_row(t: float) -> np.ndarray:
            order = degree + 1
            nplusc = len(knots)
            N = np.zeros(nplusc)
            for i in range(nplusc - 1):
                N[i] = 1.0 if (knots[i] <= t < knots[i + 1]) else 0.0
            for k in range(2, order + 1):
                for i in range(nplusc - k):
                    d = e = 0.0
                    if N[i] != 0:
                        den = knots[i + k - 1] - knots[i]
                        if den != 0:
                            d = (t - knots[i]) * N[i] / den
                    if N[i + 1] != 0:
                        den = knots[i + k] - knots[i + 1]
                        if den != 0:
                            e = (knots[i + k] - t) * N[i + 1] / den
                    N[i] = d + e
            return N[:n + 2]

        ncp = n + 2
        NM = np.zeros((ncp, ncp))
        D = np.zeros((ncp, 3))
        NM[0, 0] = 1.0
        D[0] = pts[0]
        NM[1, 0], NM[1, 1] = -1.0, 1.0
        D[1] = start_tan * (knots[degree + 1] / degree)
        for row in range(2, n):
            NM[row] = basis_row(params[row - 1])
            D[row] = pts[row - 1]
        NM[n, n], NM[n, n + 1] = -1.0, 1.0
        D[n] = et * ((1.0 - knots[n + 1]) / degree)
        NM[n + 1, n + 1] = 1.0
        D[n + 1] = pts[-1]
        try:
            ctrl = np.linalg.solve(NM, D)
        except np.linalg.LinAlgError:
            return pts
        return _spline_points(ctrl, degree + 1, knots,
                              np.ones(ncp), ncp * 8)

    def _insert_arrowhead(self, feature, block_handle: str, pts: list,
                          size: float, reverse: bool = False) -> list:
        """InsertArrowhead parity: default filled triangle or a custom
        arrowhead block at the first (last if reverse) segment; the
        endpoint is pushed back one arrowhead-length for non-special
        blocks.  Mutates ``pts`` and returns pending features."""
        p1 = np.asarray(pts[-1] if reverse else pts[0], np.float64)
        p2 = np.asarray(pts[-2] if reverse else pts[1], np.float64)
        seg = math.hypot(p2[0] - p1[0], p2[1] - p1[1])
        if size == 0.0 or seg == 0.0 or size > 0.5 * seg:
            return []
        block_name = ""
        if block_handle:
            block_name = self.block_record_handles.get(
                block_handle.upper(), "")
        pending: list = []
        if not block_name or block_name not in self.blocks:
            if block_name:  # handle points at an empty/absent block
                return []
            sc = size / seg
            parx = sc * (p2[0] - p1[0])
            pary = sc * (p2[1] - p1[1])
            perx, pery = pary, -parx
            z = p1[2] if len(p1) > 2 else 0.0
            ring = np.array([
                [p1[0] + parx + perx / 6, p1[1] + pary + pery / 6, z],
                [p1[0], p1[1], z],
                [p1[0] + parx - perx / 6, p1[1] + pary - pery / 6, z],
                [p1[0] + parx + perx / 6, p1[1] + pary + pery / 6, z]])
            g = feature.clone()
            g.geom = _G("polygon", [ring], True)
            g.prepare_line_style(self, None, brush=True)
            pending.append(g)
        else:
            angle = math.atan2(p2[1] - p1[1], p2[0] - p1[0]) + math.pi
            ref = feature.clone()
            pending.extend(self._insert_inline(
                block_name, ref, (float(p1[0]), float(p1[1]),
                                  float(p1[2]) if len(p1) > 2 else 0.0),
                (size, size, size), angle, 0, merge=False))
        if block_name not in self._SPECIAL_ARROWHEADS:
            shift = size / seg
            newp = p1.copy()
            newp[0] += shift * (p2[0] - p1[0])
            newp[1] += shift * (p2[1] - p1[1])
            pts[-1 if reverse else 0] = newp
        return pending

    def _tr_leader(self, pairs):
        """TranslateLEADER parity: leader polyline with DIMSTYLE
        (+ACAD xdata overrides), optional arrowhead, spline path and
        the undocumented under-text extension."""
        f = _Feature()
        verts: list = []
        cur = {}
        props = dict(_DIM_DEFAULTS)
        want_arrow = True
        is_spline = False
        has_text = False
        text_width = 0.0
        hdir = [1.0, 0.0, 0.0]
        hflip = True
        override_key = None
        ready = False
        for code, val in pairs:
            if code == 3:
                props.update(self.dimstyles.get(val, {}))
            elif code in (10, 20, 30):
                axis = {10: 0, 20: 1, 30: 2}[code]
                if len(cur) == 3:
                    verts.append([cur[0], cur[1], cur[2]])
                    cur = {k: v for k, v in cur.items() if k == axis}
                cur[axis] = _atof(val)
            elif code == 41:
                text_width = _atof(val)
            elif code == 71:
                want_arrow = _atoi(val) != 0
            elif code == 72:
                is_spline = _atoi(val) != 0
            elif code == 73:
                has_text = _atoi(val) == 0
            elif code == 74:
                hflip = _atoi(val) != 0
            elif code == 211:
                hdir[0] = _atof(val)
            elif code == 221:
                hdir[1] = _atof(val)
            elif code == 231:
                hdir[2] = _atof(val)
            elif code == 1001:
                ready = val == "ACAD"
            elif code == 1070:
                if ready and override_key is None:
                    override_key = _DIMCODE.get(_atoi(val))
                elif override_key is not None:
                    props[override_key] = val
                    override_key = None
            elif code in (1005, 1040):
                if override_key is not None:
                    props[override_key] = val
                    override_key = None
            else:
                f.generic(code, val, self)
        if len(cur) == 3:
            verts.append([cur[0], cur[1], cur[2]])
        pts = [np.array(v, np.float64) for v in verts]

        want_extension = _atoi(props["DIMTAD"]) > 0
        text_offset = _atof(props["DIMGAP"])
        scale = _atof(props["DIMSCALE"]) or 1.0
        arrow_size = _atof(props["DIMASZ"])
        leader_color = _atoi(props["DIMCLRD"])
        if leader_color > 0:
            f.style_props["Color"] = props["DIMCLRD"]
        pending: list = []
        if want_arrow and len(pts) >= 2:
            pending = self._insert_arrowhead(
                f, props.get("DIMLDRBLK", ""), pts, arrow_size * scale)
        if hflip:
            # replicated verbatim: the reference flips only X (and
            # does so three times), leaving Y/Z untouched
            hdir[0] *= -1
        line = np.array(pts, np.float64)
        if is_spline and len(line) >= 2:
            et = tuple(hdir) if has_text else (0.0, 0.0, 0.0)
            line = self._bspline_interpolate(line, et)
        if want_extension and has_text and len(line) >= 2:
            ext = line[-1] + np.asarray(hdir) * (
                text_offset * scale + text_width)
            line = np.vstack([line, ext])
        f.geom = _G("line", line, True)
        f.prepare_line_style(self, None)
        return [f] + pending

    def _tr_multileader(self, pairs):
        """TranslateMLEADER parity: CONTEXT_DATA/LEADER/LEADER_LINE
        section state machine, doglegs + breaks, per-line arrowheads,
        spline leaders, block content (incl. attribute text) and the
        text label feature."""
        overall = _Feature()
        MLS_COMMON, MLS_CTX, MLS_LEADER, MLS_LINE = 0, 1, 2, 3
        section = MLS_COMMON
        leaders: list = []
        leader = None
        line: list = []
        curx = cury = cur2x = cur2y = 0.0
        cur_vertex = 0
        scale = 1.0
        has_dogleg = True
        leader_color = "0"
        text = ""
        text_style_handle = ""
        text_x = text_y = 0.0
        text_align = 1
        text_angle = 0.0
        text_height = 4.0
        block_handle = ""
        block_off = [0.0, 0.0]
        block_scale = [1.0, 1.0]
        block_angle = 0.0
        attr_handle = ""
        block_attrs: dict = {}
        arrow_handle = ""
        arrow_size = 4.0
        MLT_NONE, MLT_SPLINE = 0, 2
        line_type = 1  # straight

        def new_leader():
            return {"landing": [0.0, 0.0], "dogleg_vec": [0.0, 0.0],
                    "dogleg_len": 0.0, "breaks": [], "lines": []}

        leader = new_leader()
        for code, val in pairs:
            if section == MLS_COMMON:
                if code == 300:
                    section = MLS_CTX
                elif code == 342:
                    arrow_handle = val
                elif code == 42:
                    arrow_size = _atof(val)
                elif code == 330:
                    attr_handle = val
                elif code == 302:
                    if attr_handle:
                        block_attrs[attr_handle.upper()] = \
                            _text_unescape(val, True)
                        attr_handle = ""
                elif code == 91:
                    leader_color = val
                elif code == 170:
                    line_type = _atoi(val)
                elif code == 291:
                    has_dogleg = _atoi(val) != 0
                else:
                    overall.generic(code, val, self)
            elif section == MLS_CTX:
                if code == 301:
                    section = MLS_COMMON
                elif code == 302:
                    section = MLS_LEADER
                elif code == 304:
                    text = _text_unescape(val, True)
                elif code == 40:
                    scale = _atof(val)
                elif code == 340:
                    text_style_handle = val
                elif code == 12:
                    text_x = _atof(val)
                elif code == 22:
                    text_y = _atof(val)
                elif code == 41:
                    text_height = _atof(val)
                elif code == 42:
                    text_angle = _atof(val) * 180.0 / math.pi
                elif code == 171:
                    text_align = _atoi(val)
                elif code == 341:
                    block_handle = val
                elif code == 15:
                    block_off[0] = _atof(val)
                elif code == 25:
                    block_off[1] = _atof(val)
                elif code == 16:
                    block_scale[0] = _atof(val)
                elif code == 26:
                    block_scale[1] = _atof(val)
                elif code == 46:
                    block_angle = _atof(val)
            elif section == MLS_LEADER:
                if code == 303:
                    section = MLS_CTX
                    leaders.append(leader)
                    leader = new_leader()
                elif code == 304:
                    section = MLS_LINE
                elif code == 10:
                    leader["landing"][0] = _atof(val)
                elif code == 20:
                    leader["landing"][1] = _atof(val)
                elif code == 11:
                    leader["dogleg_vec"][0] = _atof(val)
                elif code == 21:
                    leader["dogleg_vec"][1] = _atof(val)
                elif code == 12:
                    curx = _atof(val)
                elif code == 22:
                    cury = _atof(val)
                elif code == 13:
                    cur2x = _atof(val)
                elif code == 23:
                    cur2y = _atof(val)
                    leader["breaks"].append(
                        ((curx, cury), (cur2x, cur2y)))
                elif code == 40:
                    leader["dogleg_len"] = _atof(val)
            elif section == MLS_LINE:
                if code == 305:
                    section = MLS_LEADER
                    leader["lines"].append(line)
                    line = []
                elif code == 10:
                    curx = _atof(val)
                elif code == 20:
                    line.append({"pt": (curx, _atof(val)),
                                 "breaks": []})
                elif code == 90:
                    cur_vertex = _atoi(val)
                elif code == 11:
                    curx = _atof(val)
                elif code == 21:
                    cury = _atof(val)
                elif code == 12:
                    cur2x = _atof(val)
                elif code == 22:
                    if cur_vertex < len(line):
                        line[cur_vertex]["breaks"].append(
                            ((curx, cury), (cur2x, _atof(val))))

        block_name = ""
        if block_handle:
            block_name = self.block_record_handles.get(
                block_handle.upper(), "")

        lf = overall.clone()
        lf.style_props["Color"] = leader_color
        arrow_owner = lf
        if (_atoi(leader_color) & 0xC2000000) == 0xC0000000:
            arrow_owner = overall
        parts: list = []   # list of (n,2) segments of the MLS
        pending: list = []
        for ld in (leaders if line_type != MLT_NONE else []):
            has_this_dogleg = (has_dogleg and line_type != MLT_SPLINE
                               and ld["dogleg_len"] != 0.0
                               and (ld["dogleg_vec"][0] != 0.0
                                    or ld["dogleg_vec"][1] != 0.0))
            dogx = ld["landing"][0] + ld["dogleg_vec"][0] * \
                ld["dogleg_len"]
            dogy = ld["landing"][1] + ld["dogleg_vec"][1] * \
                ld["dogleg_len"]
            if not has_dogleg or line_type == MLT_SPLINE:
                ld["landing"] = [dogx, dogy]
            for lverts in ld["lines"]:
                if not lverts:
                    continue
                first = [np.array([*lverts[0]["pt"]], np.float64)]
                if len(lverts) > 1:
                    first.append(np.array([*lverts[1]["pt"]],
                                          np.float64))
                else:
                    first.append(np.array(ld["landing"], np.float64))
                pending.extend(self._insert_arrowhead(
                    arrow_owner, arrow_handle, first,
                    arrow_size * scale))
                seg = [first[0]]
                for iv, v in enumerate(lverts):
                    if iv > 0:
                        seg.append(np.array([*v["pt"]], np.float64))
                    if line_type != MLT_SPLINE:
                        for brk in v["breaks"]:
                            seg.append(np.array(brk[0], np.float64))
                            parts.append(np.array(seg))
                            seg = [np.array(brk[1], np.float64)]
                seg.append(np.array(ld["landing"], np.float64))
                seg = np.array(seg)
                if line_type == MLT_SPLINE and len(seg) >= 2:
                    et = (0.0, 0.0, 0.0)
                    if not block_name:
                        et = (ld["dogleg_vec"][0], ld["dogleg_vec"][1],
                              0.0)
                    seg3 = np.column_stack([seg, np.zeros(len(seg))])
                    seg = self._bspline_interpolate(seg3, et)[:, :2]
                parts.append(seg)
            if has_this_dogleg:
                seg = [np.array(ld["landing"], np.float64)]
                for brk in ld["breaks"]:
                    seg.append(np.array(brk[0], np.float64))
                    parts.append(np.array(seg))
                    seg = [np.array(brk[1], np.float64)]
                seg.append(np.array([dogx, dogy], np.float64))
                parts.append(np.array(seg))
        lf.geom = _G("multiline",
                     [_G("line", np.column_stack(
                         [p, np.zeros(len(p))]) if p.shape[1] == 2
                         else p, False) for p in parts], False)
        lf.prepare_line_style(self, overall)
        out = [lf] + pending

        if block_name and block_name in self.blocks:
            bs = (block_scale[0] * scale, block_scale[1] * scale, 1.0)
            ref = overall.clone()
            inserted = self._insert_inline(
                block_name, ref, (block_off[0], block_off[1], 0.0),
                bs, block_angle, 0)
            out.extend(inserted)
            if block_attrs:
                for bf in self.blocks[block_name]:
                    handle = (bf.fields.get("EntityHandle") or "").upper()
                    if handle in block_attrs and \
                            getattr(bf, "label_like", False):
                        af = bf.clone()
                        txt = block_attrs[handle]
                        af.fields["Text"] = txt
                        if af.style and af.style.startswith("LABEL("):
                            af.style = re.sub(
                                r'(,t:")[^"]*(")',
                                lambda m: m.group(1)
                                + txt.replace("\\", "\\\\")
                                + m.group(2), af.style, count=1)
                        # block transform: rotate/scale then offset
                        if af.geom is not None:
                            ca, sa = (math.cos(block_angle),
                                      math.sin(block_angle))

                            def tf(a):
                                b = a.copy()
                                x = a[:, 0] * bs[0]
                                y = a[:, 1] * bs[1]
                                b[:, 0] = x * ca - y * sa + block_off[0]
                                b[:, 1] = x * sa + y * ca + block_off[1]
                                return b

                            af.geom.map_coords(tf)
                        if (af.fields.get("Layer") or "0") == "0" and \
                                (overall.fields.get("Layer") or ""):
                            af.fields["Layer"] = overall.fields["Layer"]
                        af.prepare_style(self, overall)
                        af.style = _adjust_text(
                            math.degrees(block_angle), bs[0], bs[1],
                            af.style)
                        if overall.fields.get("EntityHandle"):
                            af.fields["EntityHandle"] = \
                                overall.fields["EntityHandle"]
                        out.append(af)
        if text and text != " ":
            label = overall.clone()
            label.geom = _G("point",
                            np.array([[text_x, text_y, 0.0]]), False)
            label.fields["Text"] = text
            style_name = self.style_handles.get(
                (text_style_handle or "").upper()) or ""
            srec = self.text_styles.get(style_name, {})
            font = srec.get("Font", "Arial")
            style = 'LABEL(f:"%s"' % font
            if srec.get("Bold") == "1":
                style += ",bo:1"
            if srec.get("Italic") == "1":
                style += ",it:1"
            style += ',t:"%s",p:%d' % (text.replace('"', '\\"'),
                                       text_align + 6)
            if text_angle != 0.0:
                style += ",a:%.3g" % text_angle
            if text_height != 0.0:
                style += ",s:%.3gg" % text_height
            width = _atof(srec.get("Width", "1") or "1")
            if width != 1.0:
                style += ",w:%.4g" % (width * 100.0)
            style += ",c:" + label.get_color(self)
            style += ")"
            label.style = style
            label.label_like = True
            out.append(label)
        return out

    _tr_mleader = _tr_multileader

    # -- POLYLINE (vertex stream) -------------------------------------------

    def _translate_polyline(self, pairs, tape):
        f = _Feature()
        flags = 0
        for code, val in pairs:
            if code == 70:
                flags = _atoi(val)
            else:
                f.generic(code, val, self)
        if flags & 16:
            # polygon mesh: not supported (reference skips too)
            self._eat_until_seqend(tape)
            return None
        verts = []
        dim = 2
        while True:
            p = tape.read()
            if p is None:
                break
            if p[0] != 0:
                continue
            if p[1] == "SEQEND":
                self._read_entity_pairs(tape)
                break
            if p[1] != "VERTEX":
                self._read_entity_pairs(tape)
                continue
            vp = self._read_entity_pairs(tape)
            x = y = z = 0.0
            bulge = 0.0
            vflag = 0
            for code, val in vp:
                if code == 10:
                    x = _atof(val)
                elif code == 20:
                    y = _atof(val)
                elif code == 30:
                    z = _atof(val)
                    dim = 3
                elif code == 42:
                    bulge = _atof(val)
                elif code == 70:
                    vflag = _atoi(val)
            if vflag & 32 or vflag & 16:
                # 3D mesh control / fit points: keep simple vertices
                pass
            verts.append((x, y, z, bulge))
        if not verts:
            return None
        if flags & 8:
            dim = 3  # 3D polyline
        f.geom = _tessellate_smooth(verts, bool(flags & 0x01), dim)
        f.apply_ocs()
        return f

    def _eat_until_seqend(self, tape):
        while True:
            p = tape.read()
            if p is None:
                return
            if p[0] == 0 and p[1] == "SEQEND":
                self._read_entity_pairs(tape)
                return

    # -- INSERT ---------------------------------------------------------

    def _tr_insert(self, pairs, tape):
        f = _Feature()
        x = y = z = 0.0
        sx = sy = sz = 1.0
        angle = 0.0
        cols = rows = 1
        colsp = rowsp = 0.0
        has_attribs = False
        name = ""
        for code, val in pairs:
            if code == 10:
                x = _atof(val)
            elif code == 20:
                y = _atof(val)
            elif code == 30:
                z = _atof(val)
            elif code == 41:
                sx = _atof(val)
            elif code == 42:
                sy = _atof(val)
            elif code == 43:
                sz = _atof(val)
            elif code == 44:
                colsp = _atof(val)
            elif code == 45:
                rowsp = _atof(val)
            elif code == 50:
                angle = _atof(val)
            elif code == 66:
                has_attribs = _atoi(val) == 1
            elif code == 70:
                cols = max(_atoi(val), 0)
            elif code == 71:
                rows = max(_atoi(val), 0)
            elif code == 2:
                name = val
            else:
                f.generic(code, val, self)
        f.is_block_ref = True
        f.block_name = name
        f.block_xyz = (x, y, z)
        f.block_scale = (sx, sy, sz)
        f.block_angle = angle
        f.block_grid = (cols, rows, colsp, rowsp)
        if has_attribs:
            while True:
                p = tape.read()
                if p is None:
                    break
                if p[0] != 0:
                    continue
                if p[1] == "SEQEND":
                    self._read_entity_pairs(tape)
                    break
                if p[1] in ("ATTRIB",):
                    af = self._tr_attrib(self._read_entity_pairs(tape))
                    if af is not None:
                        f.attribs.append(af)
                else:
                    tape.unread()
                    break
        return f

    def _expand_insert(self, f):
        cols, rows, colsp, rowsp = getattr(f, "block_grid", (1, 1, 0, 0))
        if cols == 0 or rows == 0:
            return
        for row in range(rows):
            for col in range(cols):
                off = (f.block_xyz[0] + col * colsp,
                       f.block_xyz[1] + row * rowsp,
                       f.block_xyz[2])
                tf = f.clone()
                tf.block_xyz = off
                out = self._insert_inline(
                    tf.block_name, tf, off, tf.block_scale,
                    math.radians(tf.block_angle), depth=0)
                self._features.extend(out)
        for af in f.attribs:
            af.prepare_style(self, f)
            self._features.append(af)

    def _insert_inline(self, block_name, ref_feature, offset, scale,
                       angle_rad, depth, merge: bool = True) -> list:
        """InsertBlockInline parity: returns the list of output
        features (merged collection or individual label features;
        ``merge=False`` keeps one feature per block entity — the
        arrowhead-insertion path)."""
        if depth > 16:
            return []
        # transform the insertion point by the insert's OCS
        off = np.array([offset], dtype=np.float64)
        if tuple(ref_feature.ocs) != _DEFAULT_N:
            off = _ocs_to_wcs(tuple(ref_feature.ocs), off)
        ox, oy, oz = off[0]
        block = self.blocks.get(block_name)
        if block is None:
            return []
        merged_parts: list = []
        out: list = []
        has_z_any = False

        def rot_scale_ocs(a: np.ndarray) -> np.ndarray:
            b = a.copy()
            b[:, 0] *= scale[0]
            b[:, 1] *= scale[1]
            b[:, 2] *= scale[2]
            ca, sa = math.cos(angle_rad), math.sin(angle_rad)
            xn = b[:, 0] * ca - b[:, 1] * sa
            yn = b[:, 0] * sa + b[:, 1] * ca
            b[:, 0] = xn
            b[:, 1] = yn
            if tuple(ref_feature.ocs) != _DEFAULT_N:
                b = _ocs_to_wcs(tuple(ref_feature.ocs), b)
            return b

        for template in block:
            sub = template.clone()
            if ref_feature.fields["PaperSpace"]:
                sub.fields["PaperSpace"] = 1
            if sub.is_block_ref:
                inner = self._insert_inline(
                    sub.block_name, sub, sub.block_xyz, sub.block_scale,
                    math.radians(sub.block_angle), depth + 1)
                subs = inner
            else:
                subs = [sub]
            for s in subs:
                if s.geom is not None:
                    # rotate+scale, then the insert's OCS (may promote
                    # 2-D to 3-D, ApplyOCSTransformer rule)...
                    s.geom.map_coords(rot_scale_ocs)
                    if not s.geom.has_z:
                        zs = []
                        s.geom.map_coords(
                            lambda a: (zs.append(a[:, 2]), a)[1])
                        if zs and any(np.any(z != 0.0) for z in zs):
                            def promote(g):
                                g.has_z = True
                                if g.kind not in ("point", "line",
                                                  "polygon"):
                                    for c in g.data:
                                        promote(c)
                            promote(s.geom)
                    # ...then translation; a still-2-D geometry never
                    # picks up the Z offset (OGRGeometry::transform
                    # drops Z on 2-D geometries)
                    dz = oz if s.geom.has_z else 0.0

                    def shift(a, dz=dz):
                        b = a.copy()
                        b[:, 0] += ox
                        b[:, 1] += oy
                        b[:, 2] += dz
                        return b

                    s.geom.map_coords(shift)
                is_label = s.label_like or (
                    s.style is not None and "LABEL" in s.style)
                if (merge and not is_label and not s.is_block_ref
                        and s.geom is not None):
                    merged_parts.append(s.geom)
                    has_z_any |= s.geom.has_z
                elif s.attrib_tag == "":
                    if ((s.fields["Layer"] or "0") == "0"
                            and (ref_feature.fields["Layer"] or "")):
                        s.fields["Layer"] = ref_feature.fields["Layer"]
                    s.prepare_style(self, ref_feature)
                    s.style = _adjust_text(math.degrees(angle_rad),
                                           scale[0], scale[1], s.style)
                    if ref_feature.fields["EntityHandle"]:
                        s.fields["EntityHandle"] = \
                            ref_feature.fields["EntityHandle"]
                    out.append(s)
        if merged_parts:
            kinds = {g.kind for g in merged_parts}
            if len(merged_parts) == 1:
                merged = merged_parts[0]
            elif kinds == {"point"}:
                merged = _G("multipoint", merged_parts, has_z_any)
            elif kinds == {"line"}:
                merged = _G("multiline", merged_parts, has_z_any)
            elif kinds == {"polygon"}:
                merged = _G("multipolygon", merged_parts, has_z_any)
            else:
                merged = _G("collection", merged_parts, has_z_any)
            mf = ref_feature.clone()
            mf.is_block_ref = False
            mf.geom = merged
            mf.prepare_line_style(self, None)
            out.insert(0, mf)
        return out

    # -- output -------------------------------------------------------------

    def to_table(self) -> pa.Table:
        cols = {k: [] for k in ("Layer", "PaperSpace", "SubClasses",
                                "Linetype", "EntityHandle", "Text")}
        styles = []
        geoms = []
        for f in self._features:
            for k in cols:
                cols[k].append(f.fields.get(k))
            styles.append(f.style)
            geoms.append(None if f.geom is None else f.geom.to_wkb())
        out = {
            "Layer": pa.array(
                [v if v is not None else "0" for v in cols["Layer"]],
                pa.string()),
            "PaperSpace": pa.array(cols["PaperSpace"], pa.int32()),
            "SubClasses": pa.array(cols["SubClasses"], pa.string()),
            "Linetype": pa.array(cols["Linetype"], pa.string()),
            "EntityHandle": pa.array(cols["EntityHandle"], pa.string()),
            "Text": pa.array(cols["Text"], pa.string()),
            "OGR_STYLE": pa.array(styles, pa.string()),
            "geometry": pa.array(geoms, pa.binary()),
        }
        return pa.table(out)


# handle POLYLINE specially (needs the tape for VERTEX records)
def _patched_translate(self, etype, tape, in_block):
    pairs_fn = DxfReader._read_entity_pairs
    if etype == "POLYLINE":
        pairs = pairs_fn(self, tape)
        return self._translate_polyline(pairs, tape)
    if etype == "INSERT":
        return self._tr_insert(pairs_fn(self, tape), tape)
    pairs = pairs_fn(self, tape)
    fn = getattr(self, "_tr_" + etype.lower(), None)
    if fn is None:
        return None
    return fn(pairs)


DxfReader._translate_entity = _patched_translate


def read_dxf_table(path_or_bytes) -> pa.Table:
    """One DXF document -> pyarrow Table (layer ``entities``)."""
    if isinstance(path_or_bytes, (bytes, bytearray)):
        data = bytes(path_or_bytes)
    else:
        from gdal_ray.vsi import vsi_read_bytes

        data = vsi_read_bytes(path_or_bytes)
    return DxfReader(data).to_table()


def read_dxf(paths):
    """DXF file(s) -> Ray Dataset (one file = one task)."""
    import ray.data as rd

    if isinstance(paths, str):
        paths = [paths]
    ds = rd.from_items([{"path": p} for p in paths])

    def load(batch: pa.Table) -> pa.Table:
        tabs = [read_dxf_table(p) for p in batch["path"].to_pylist()]
        return pa.concat_tables(tabs, promote_options="default")

    return ds.map_batches(load, batch_format="pyarrow")
