"""Self-contained vector driver guards: write → read round trips on
synthetic geometries (Shapefile, FlatGeobuf, FileGDB, MIF, GMT), parses
of in-test text (TopoJSON, DXF, JSON-FG) and a PGDump EWKB decode.

None of them needs reference data, so they run on any host. The
writers are 2-D: a Z input reads back as its XY part. ``_canon``
compares geometries up to what a format may legitimately change:
ring orientation, Polygon → one-part MultiPolygon promotion, and the
split between a Point and a one-point MultiPoint.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray.geom import ops
from gdal_ray.geom import wkb as W


def _sq(x0, y0, x1, y1, ccw=True):
    r = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]],
                 np.float64)
    return r if ccw else r[::-1]


def _xyz(ring, z0):
    return np.column_stack([ring, z0 + np.arange(len(ring))])


CASES = {
    "polygon_with_hole": W.polygon_wkb(_sq(0, 0, 10, 10),
                                       [_sq(2, 2, 4, 4, ccw=False)]),
    "two_shells_with_holes": W.multipolygon_wkb([
        (_sq(0, 0, 10, 10), [_sq(2, 2, 4, 4, ccw=False)]),
        (_sq(20, 0, 30, 10), [_sq(22, 2, 24, 4, ccw=False),
                              _sq(26, 6, 28, 8, ccw=False)]),
    ]),
    "island_in_lake": W.multipolygon_wkb([
        (_sq(0, 0, 10, 10), [_sq(2, 2, 8, 8, ccw=False)]),
        (_sq(4, 4, 6, 6), []),
    ]),
    "multi_line": (struct.pack("<BII", 1, W.MULTILINESTRING, 2)
                   + W.linestring_wkb(np.array([[0.0, 0.0], [1.0, 2.0],
                                                [3.0, 1.0]]))
                   + W.linestring_wkb(np.array([[5.0, 5.0], [6.0, 7.0]]))),
    "multi_point": (struct.pack("<BII", 1, W.MULTIPOINT, 3)
                    + W.point_wkb(1.0, 2.0) + W.point_wkb(3.5, -4.0)
                    + W.point_wkb(-7.25, 8.0)),
    "polygon_z": W.polygon_wkb_d([_xyz(_sq(0, 0, 10, 10), 100.0),
                                  _xyz(_sq(2, 2, 4, 4, ccw=False), 200.0)],
                                 "xyz"),
    "line_z": W.linestring_wkb_d(np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 2.0],
                                           [2.0, 0.0, 3.0]]), "xyz"),
}


def _ring(r):
    r = np.asarray(r, np.float64)[:, :2]
    if ops.ring_area(r) < 0:
        r = r[::-1]
    return tuple(map(tuple, r.round(9).tolist()))


def _canon(buf):
    """→ (kind, parts): kind "point" / "line" / "polygon", parts the
    XY points, lines or polygons (tuples of CCW-normalised rings)."""
    g = W.parse(buf)
    t = g["type"]
    kids = g["parts"] if t in (W.MULTIPOINT, W.MULTILINESTRING,
                               W.MULTIPOLYGON) else [g]
    t = kids[0]["type"]
    if t == W.POINT:
        return "point", [tuple(k["coords"][0][:2].tolist()) for k in kids]
    if t == W.LINESTRING:
        return "line", [tuple(map(tuple, k["coords"][:, :2].tolist()))
                        for k in kids]
    return "polygon", [tuple(_ring(r) for r in k["rings"]) for k in kids]


def _table(geom):
    return pa.table({"id": pa.array([7], pa.int64()),
                     "geometry": pa.array([geom], pa.binary())})


def _shapefile(tmp_path, geom):
    from gdal_ray import shapefile

    p = str(tmp_path / "t.shp")
    shapefile.write_shapefile(_table(geom), p)
    return shapefile.read_shapefile_local(p)


def _flatgeobuf(tmp_path, geom):
    from gdal_ray import flatgeobuf as F

    p = tmp_path / "t.fgb"
    F.write_flatgeobuf(_table(geom), str(p))
    buf = p.read_bytes()
    hdr = F.read_header(buf)
    rows, pos = [], hdr.data_start
    while pos < len(buf):
        row, pos = F.parse_feature(buf, pos, hdr)
        rows.append(row)
    return pa.Table.from_pylist(rows)


def _filegdb(tmp_path, geom):
    from gdal_ray import filegdb

    p = str(tmp_path / "t.gdb")
    filegdb.write_filegdb(_table(geom), p, layer="t")
    return filegdb.read_filegdb_local(p, "t")


def _mif(tmp_path, geom):
    from gdal_ray import mif

    p = str(tmp_path / "t.mif")
    mif.write_mif(p, _table(geom))
    return mif.read_mif(p)


def _gmt(tmp_path, geom):
    from gdal_ray import gmtvector

    p = str(tmp_path / "t.gmt")
    gmtvector.write_gmt(p, _table(geom))
    return gmtvector.read_gmt(p)


DRIVERS = {"shapefile": _shapefile, "flatgeobuf": _flatgeobuf,
           "filegdb": _filegdb, "mif": _mif, "gmt": _gmt}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("driver", list(DRIVERS))
def test_write_read_round_trip(driver, case, tmp_path):
    t = DRIVERS[driver](tmp_path, CASES[case])
    assert t.num_rows == 1
    assert _canon(t["geometry"][0].as_py()) == _canon(CASES[case])
    assert str(t["id"][0].as_py()) == "7"


# spec winding (clockwise shell, counter-clockwise hole) survives the
# formats that store rings as written
SPEC_WOUND = W.polygon_wkb(_sq(0, 0, 10, 10, ccw=False), [_sq(2, 2, 4, 4)])


@pytest.mark.parametrize("driver", ["shapefile", "mif", "gmt"])
def test_holed_polygon_byte_for_byte(driver, tmp_path):
    t = DRIVERS[driver](tmp_path, SPEC_WOUND)
    assert t["geometry"][0].as_py() == SPEC_WOUND


# ---------------------------------------------------------------- parses

TOPOJSON = {
    "type": "Topology",
    "transform": {"scale": [0.5, 0.25], "translate": [100.0, 0.0]},
    "arcs": [[[0, 0], [4, 0], [0, 8], [-4, 0], [0, -8]],
             [[1, 2], [0, 4], [2, 0], [0, -4], [-2, 0]],
             [[10, 10], [2, 2], [2, -2]]],
    "objects": {"layer": {"type": "GeometryCollection", "geometries": [
        {"type": "Point", "coordinates": [2, 4], "id": "p"},
        {"type": "MultiPoint", "coordinates": [[0, 0], [2, 4]], "id": "mp"},
        {"type": "MultiPoint", "coordinates": [], "id": "mp_empty"},
        {"type": "LineString", "arcs": [2], "id": "l"},
        {"type": "MultiLineString", "arcs": [[2], [~2]], "id": "ml"},
        {"type": "MultiLineString", "arcs": [[9]], "id": "ml_bad"},
        {"type": "LineString", "arcs": [9], "id": "l_bad"},
        {"type": "Polygon", "arcs": [[9]], "id": "poly_bad"},
        {"type": "MultiPolygon", "arcs": [[[9]]], "id": "mpoly_bad"},
        {"type": "Polygon", "arcs": [[0], [~1]], "id": "poly"},
        {"type": "MultiPolygon", "arcs": [[[0]], [[1]]], "id": "mpoly"},
        {"type": "Point", "coordinates": ["x"], "id": "p_empty"},
    ]}},
}

TOPOJSON_WKB = {
    "p": "01010000000000000000405940000000000000f03f",
    "mp": "01040000000200000001010000000000000000005940000000000000"
          "000001010000000000000000405940000000000000f03f",
    "mp_empty": "010400000000000000",
    "l": "0102000000030000000000000000405a400000000000000440000000"
         "0000805a4000000000000008400000000000c05a4000000000000004"
         "40",
    "ml": "0105000000020000000102000000030000000000000000405a400000"
          "0000000004400000000000805a4000000000000008400000000000c0"
          "5a4000000000000004400102000000030000000000000000c05a4000"
          "000000000004400000000000805a4000000000000008400000000000"
          "405a400000000000000440",
    "ml_bad": "010500000000000000",
    "l_bad": "010200000000000000",
    "poly_bad": "010300000000000000",
    "mpoly_bad": "010600000000000000",
    "poly": "01030000000200000005000000000000000000594000000000000000"
            "00000000000080594000000000000000000000000000805940000000"
            "00000000400000000000005940000000000000004000000000000059"
            "400000000000000000050000000000000000205940000000000000e0"
            "3f0000000000605940000000000000e03f0000000000605940000000"
            "000000f83f0000000000205940000000000000f83f00000000002059"
            "40000000000000e03f",
    "mpoly": "01060000000200000001030000000100000005000000000000000000"
             "59400000000000000000000000000080594000000000000000000000"
             "00000080594000000000000000400000000000005940000000000000"
             "00400000000000005940000000000000000001030000000100000005"
             "0000000000000000205940000000000000e03f000000000020594000"
             "0000000000f83f0000000000605940000000000000f83f0000000000"
             "605940000000000000e03f0000000000205940000000000000e03f",
    "p_empty": "0101000000000000000000f87f000000000000f87f",
}


def test_topojson_parse(tmp_path):
    """Every geometry type, quantized, plus the empty forms an invalid
    arc or position falls back to; hex recorded from the parser."""
    from gdal_ray import topojson

    p = tmp_path / "t.topojson"
    p.write_text(json.dumps(TOPOJSON))
    t = topojson.read_topojson(str(p))["layer"]
    got = dict(zip(t["id"].to_pylist(),
                   (g.hex() for g in t["geometry"].to_pylist())))
    assert got == TOPOJSON_WKB


def _dxf(*pairs):
    return ("\n".join(f"{c}\n{v}" for c, v in pairs) + "\n").encode()


def _dxf_line(x0, y0, x1, y1):
    return [(0, "LINE"), (8, "0"), (10, x0), (20, y0), (30, 0.0),
            (11, x1), (21, y1), (31, 0.0)]


DXF = _dxf(
    (0, "SECTION"), (2, "BLOCKS"), (0, "BLOCK"), (2, "B"), (8, "0"),
    (70, 0), (10, 0), (20, 0), (30, 0),
    *_dxf_line(0, 0, 1, 0), *_dxf_line(0, 1, 1, 1),
    (0, "ENDBLK"), (0, "ENDSEC"),
    (0, "SECTION"), (2, "ENTITIES"),
    *_dxf_line(0, 0, 1, 1),
    (0, "POINT"), (8, "0"), (10, 2.0), (20, 3.0), (30, 4.0),
    (0, "INSERT"), (8, "0"), (2, "B"), (10, 10.0), (20, 0.0), (30, 0.0),
    (0, "ENDSEC"), (0, "EOF"))


def test_dxf_parse():
    from gdal_ray.dxf import read_dxf_table

    got = read_dxf_table(DXF)["geometry"].to_pylist()
    line = lambda *c: W.linestring_wkb_d(np.array(c, np.float64), "xyz")
    assert got == [
        line([0, 0, 0], [1, 1, 0]),
        W.point_wkb_d([2.0, 3.0, 4.0], "xyz"),
        struct.pack("<BII", 1, 1005, 2) + line([10, 0, 0], [11, 0, 0])
        + line([10, 1, 0], [11, 1, 0]),
    ]


JSONFG = {
    "type": "FeatureCollection", "conformsTo": ["[ogc-json-fg-1-0.1:core]"],
    "features": [
        {"type": "Feature", "id": 1, "properties": {},
         "geometry": None,
         "place": {"type": "MultiPoint", "coordinates": [[1, 2, 3],
                                                         [4, 5, 6]]}},
        {"type": "Feature", "id": 2, "properties": {}, "geometry": None,
         "place": {"type": "MultiPolygon", "coordinates": [
             [[[0, 0], [1, 0], [1, 1], [0, 0]]]]}},
        {"type": "Feature", "id": 3, "properties": {}, "geometry": None,
         "place": {"type": "CompoundCurve", "geometries": [
             {"type": "CircularString",
              "coordinates": [[0, 0], [1, 1], [2, 0]]},
             {"type": "LineString", "coordinates": [[2, 0], [3, 0]]}]}},
        {"type": "Feature", "id": 4, "properties": {}, "geometry": None,
         "place": {"type": "GeometryCollection", "geometries": [
             {"type": "Point", "coordinates": [1, 1]},
             {"type": "LineString", "coordinates": [[0, 0], [1, 1]]}]}},
        {"type": "Feature", "id": 5, "properties": {}, "geometry": None,
         "place": {"type": "Prism", "base": {
             "type": "LineString", "coordinates": [[0, 0], [1, 0]]},
             "lower": 0, "upper": 2}},
    ]}


def test_jsonfg_parse():
    from gdal_ray.jsonfg import parse_jsonfg

    table, _meta = parse_jsonfg(json.dumps(JSONFG))
    got = table["geometry"].to_pylist()
    pt = lambda *c: W.point_wkb_d(list(c), "xyz")
    arc = W.circularstring_wkb(np.array([[0, 0], [1, 1], [2, 0]], float))
    seg = W.linestring_wkb(np.array([[2.0, 0.0], [3.0, 0.0]]))
    wall = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 2], [0, 0, 2], [0, 0, 0]],
                    np.float64)
    assert got == [
        struct.pack("<BII", 1, 1004, 2) + pt(1, 2, 3) + pt(4, 5, 6),
        struct.pack("<BII", 1, 6, 1)
        + W.polygon_wkb(np.array([[0, 0], [1, 0], [1, 1], [0, 0]], float)),
        struct.pack("<BII", 1, 9, 2) + arc + seg,
        struct.pack("<BII", 1, 7, 2) + W.point_wkb(1.0, 1.0)
        + W.linestring_wkb(np.array([[0.0, 0.0], [1.0, 1.0]])),
        struct.pack("<BII", 1, 1006, 1) + W.polygon_wkb_d([wall], "xyz"),
    ]


# ---------------------------------------------------------------- PGDump


@pytest.mark.parametrize("dim", [2, 3])
def test_pgdump_ewkb_decodes(tmp_path, dim):
    from gdal_ray import pgdump

    geoms = [CASES["polygon_with_hole"], W.point_wkb(1.5, -2.0),
             W.linestring_wkb(np.array([[0.0, 0.0], [1.0, 1.0]]))]
    p = tmp_path / "t.sql"
    pgdump.write_pgdump(pa.table({"geometry": pa.array(geoms, pa.binary())}),
                        str(p), "t", dim=dim, use_copy=True)
    lines = p.read_text().splitlines()
    start = next(i for i, s in enumerate(lines) if s.startswith("COPY"))
    hexes = lines[start + 1:start + 1 + len(geoms)]
    for h, geom in zip(hexes, geoms):
        buf = bytes.fromhex(h)
        (gtype,) = struct.unpack_from("<I", buf, 1)
        assert bool(gtype & 0x80000000) == (dim == 3)
        g, want = W.parse(buf), W.parse(geom)
        assert g["type"] == want["type"]
        assert g["dims"] == ("xyz" if dim == 3 else "xy")
        assert _canon(buf) == _canon(geom)
        if dim == 3:
            zs = g["z"] if "z" in g else np.concatenate(g["rings_z"])
            assert (zs == 0).all()
