"""DXF driver tests, pinned against the reference's own autotest
(autotest/ogr/ogr_dxf.py) by extracting its check_feature_geometry
expected-WKT strings directly from the test source."""

import functools
import math
import os
import re

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray.dxf import read_dxf, read_dxf_table
from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom import wkt as gwkt

DATA = "/root/reference/autotest/ogr/data/dxf"
AUTOTEST = "/root/reference/autotest/ogr/ogr_dxf.py"

pytestmark = pytest.mark.skipif(not os.path.exists(AUTOTEST),
                                reason="GDAL autotest checkout absent")


@functools.lru_cache(maxsize=None)
def _src():
    with open(AUTOTEST) as f:
        return f.read()


def _func_body(name):
    m = re.search(rf"\ndef {name}\(.*?\):\n(.*?)(?=\ndef |\Z)", _src(), re.S)
    return m.group(1)


def _expected_checks(name):
    """-> list of (feature_index, wkt) from the autotest function, in
    order, handling both GetNextFeature() streams and GetFeature(n)
    random access."""
    body = _func_body(name)
    out = []
    idx = -1
    # walk statements in order
    token_re = re.compile(
        r"(GetNextFeature\(\))|GetFeature\((\d+)\)|"
        r'check_feature_geometry\(\s*(?:feat|f)\s*,\s*("(?:[^"\\]|\\.)*"'
        r"(?:\s*\+\s*\"(?:[^\"\\]|\\.)*\")*)", re.S)
    for m in token_re.finditer(body):
        if m.group(1):
            idx += 1
        elif m.group(2):
            idx = int(m.group(2))
        else:
            parts = re.findall(r'"((?:[^"\\]|\\.)*)"', m.group(3))
            out.append((idx, "".join(parts)))
    return out


def _coords_of(node, out):
    if "coords" in node:
        arr = [node["coords"]]
        if "z" in node:
            arr.append(node["z"][:, None])
        out.append(np.hstack(arr))
    if "rings" in node:
        for i, r in enumerate(node["rings"]):
            a = [r]
            if "rings_z" in node:
                a.append(node["rings_z"][i][:, None])
            out.append(np.hstack(a))
    for p in node.get("parts", []):
        _coords_of(p, out)


def _assert_geom_equal(got_wkb, expected_wkt, tol=1e-6):
    exp_wkb = gwkt.from_wkt(expected_wkt)
    g1, g2 = gwkb.parse(got_wkb), gwkb.parse(exp_wkb)
    c1, c2 = [], []
    _coords_of(g1, c1)
    _coords_of(g2, c2)
    assert len(c1) == len(c2), (len(c1), len(c2), expected_wkt[:60])
    for a, b in zip(c1, c2):
        assert a.shape == b.shape, (a.shape, b.shape, expected_wkt[:80])
        assert np.allclose(a, b, atol=tol), (
            a[:3], b[:3], expected_wkt[:80])


_CACHE = {}


def _table(name):
    if name not in _CACHE:
        _CACHE[name] = read_dxf_table(f"{DATA}/{name}")
    return _CACHE[name]


def _check_stream(fixture, testname, tol=1e-6, limit=None):
    t = _table(fixture)
    checks = _expected_checks(testname)
    if limit is not None:
        checks = checks[:limit]
    assert checks, testname
    for idx, wkt in checks:
        got = t["geometry"][idx].as_py()
        assert got is not None, (idx, wkt[:60])
        _assert_geom_equal(got, wkt, tol)


# ---------------------------------------------------------------------------
# assorted.dxf — the full 22-feature stream (tests 1-9)
# ---------------------------------------------------------------------------


def test_assorted_layer():
    t = _table("assorted.dxf")
    assert t.num_rows == 22
    assert t.column_names[:6] == ["Layer", "PaperSpace", "SubClasses",
                                  "Linetype", "EntityHandle", "Text"]


def test_assorted_first_ellipse():
    t = _table("assorted.dxf")
    assert t["Layer"][0].as_py() == "0"
    assert t["PaperSpace"][0].as_py() is None
    assert t["SubClasses"][0].as_py() == "AcDbEntity:AcDbEllipse"
    assert t["Linetype"][0].as_py() == "ByLayer"
    assert t["EntityHandle"][0].as_py() == "43"
    assert t["OGR_STYLE"][0].as_py() == "PEN(c:#000000)"
    g = gwkb.parse(t["geometry"][0].as_py())
    assert g["type"] == gwkb.LINESTRING and g["dims"] == "xyz"
    c = g["coords"]
    area = (c[:, 0].max() - c[:, 0].min()) * (c[:, 1].max() - c[:, 1].min())
    assert abs(area - 1596.12) <= 0.5
    assert c[0, 0] == pytest.approx(73.25, abs=0.001)
    assert c[0, 1] == pytest.approx(139.75, abs=0.001)


def test_assorted_second_ellipse_arc():
    t = _table("assorted.dxf")
    g = gwkb.parse(t["geometry"][1].as_py())
    c = g["coords"]
    area = (c[:, 0].max() - c[:, 0].min()) * (c[:, 1].max() - c[:, 1].min())
    assert abs(area - 311.864) <= 0.5
    assert c[0, 0] == pytest.approx(61.133, abs=0.01)
    assert c[0, 1] == pytest.approx(103.592, abs=0.01)


def test_assorted_point_line_mtext_arc():
    t = _table("assorted.dxf")
    _assert_geom_equal(t["geometry"][2].as_py(), "POINT (83.5 160.0 0)")
    assert t["OGR_STYLE"][2].as_py() == "PEN(c:#ffbeb8)"
    _assert_geom_equal(t["geometry"][3].as_py(),
                       "LINESTRING (97.0 159.5 0,108.5 132.25 0)")
    _assert_geom_equal(t["geometry"][4].as_py(), "POINT (84 126)")
    assert t["OGR_STYLE"][4].as_py() == \
        'LABEL(f:"Arial",t:"Test",a:30,s:5g,p:7,c:#000000)'
    # ARC envelope (test 7)
    g = gwkb.parse(t["geometry"][5].as_py())
    c = g["coords"]
    area = (c[:, 0].max() - c[:, 0].min()) * (c[:, 1].max() - c[:, 1].min())
    assert abs(area - 445.748) <= 0.5
    assert c[0, 0] == pytest.approx(115.258, abs=0.01)
    assert c[0, 1] == pytest.approx(107.791, abs=0.01)


def test_assorted_dimension():
    """test_ogr_dxf_8: paperspace line + dimension line, arrowheads
    and computed '54.33' label."""
    t = _table("assorted.dxf")
    assert t["PaperSpace"][6].as_py() == 1
    _assert_geom_equal(
        t["geometry"][7].as_py(),
        "MULTILINESTRING ((63.8628719444825 149.209935992088,"
        "24.3419606685507 111.934531038653),(72.3255686642474 "
        "140.237438265109,63.0051995752285 150.119275371538),"
        "(32.8046573883157 102.962033311673,23.4842882992968 "
        "112.843870418103))")
    _assert_geom_equal(
        t["geometry"][8].as_py(),
        "POLYGON Z ((61.7583023958313 147.797704380064 0,"
        "63.8628719444825 149.209935992088 0,62.3300839753339 "
        "147.191478127097 0,61.7583023958313 147.797704380064 0))")
    _assert_geom_equal(
        t["geometry"][9].as_py(),
        "POLYGON Z ((26.4465302172018 113.346762650677 0,"
        "24.3419606685507 111.934531038653 0,25.8747486376992 "
        "113.952988903644 0,26.4465302172018 113.346762650677 0))")
    _assert_geom_equal(t["geometry"][10].as_py(),
                       "POINT (42.815907752635709 131.936242584545397)")
    assert t["OGR_STYLE"][10].as_py() == \
        'LABEL(f:"Arial",t:"54.33",p:5,a:43.3,s:2.5g,c:#000000)'


def test_assorted_block_insert():
    """test_ogr_dxf_9: merged block geometry + two MTEXT labels."""
    t = _table("assorted.dxf")
    _assert_geom_equal(
        t["geometry"][19].as_py(),
        "MULTILINESTRING ((79.069506278985116 121.003652476272777 0,"
        "79.716898725419625 118.892590150942851 0),"
        "(79.716898725419625 118.892590150942851 0,78.140638855839953 "
        "120.440702522851453 0),(78.140638855839953 120.440702522851453 "
        "0,80.139111190485622 120.328112532167196 0),"
        "(80.139111190485622 120.328112532167196 0,78.619146316248077 "
        "118.920737648613908 0),(78.619146316248077 118.920737648613908 "
        "0,79.041358781314059 120.975504978601705 0))")
    sample_text = 'Text Sample1¿λ\n"abc"'
    sample_style = 'Text Sample1¿λ\n\\"abc\\"'
    assert t["Text"][20].as_py() == sample_text
    assert t["OGR_STYLE"][20].as_py() == \
        f'LABEL(f:"Arial",t:"{sample_style}",a:45,s:0.5g,p:5,c:#000000)'
    _assert_geom_equal(t["geometry"][20].as_py(),
                       "POINT (77.602201427662891 120.775897075866169 0)")
    assert t["Text"][21].as_py() == "Second"
    assert t["SubClasses"][21].as_py() == "AcDbEntity:AcDbMText"
    _assert_geom_equal(t["geometry"][21].as_py(),
                       "POINT (79.977331629005178 119.698291706738644 0)")


# ---------------------------------------------------------------------------
# sequential-stream fixtures pinned via autotest extraction
# ---------------------------------------------------------------------------


def test_ocs2wcs1():
    _check_stream("ocs2wcs1.dxf", "test_ogr_dxf_31")


def test_ocs2wcs2():
    _check_stream("ocs2wcs2.dxf", "test_ogr_dxf_32")


def test_ocs2wcs3_inserts():
    _check_stream("ocs2wcs3.dxf", "test_ogr_dxf_41")


def test_entities_only():
    t = _table("entities_only.dxf")
    _assert_geom_equal(t["geometry"][0].as_py(),
                       "POINT (672500.0 242000.0 539.986)")


def test_circle():
    _check_stream("circle.dxf", "test_ogr_dxf_21", limit=1)


def test_solid():
    _check_stream("solid.dxf", "test_ogr_dxf_26")


def test_3dface():
    _check_stream("3dface.dxf", "test_ogr_dxf_25")


def test_spline_qcad():
    _check_stream("spline_qcad.dxf", "test_ogr_dxf_20")


def test_spline_weight():
    _check_stream("spline_weight.dxf", "test_ogr_dxf_29")


def test_spline_closed():
    _check_stream("spline_closed.dxf", "test_ogr_dxf_30")


def test_lwpolyline_ocs():
    t = _table("LWPOLYLINE-OCS.dxf")
    checks = _expected_checks("test_ogr_dxf_10")
    for idx, wkt in checks:
        _assert_geom_equal(t["geometry"][idx].as_py(), wkt, tol=1e-5)


def test_block_basepoint():
    t = _table("block-basepoint.dxf")
    _assert_geom_equal(
        t["geometry"][0].as_py(),
        "MULTILINESTRING Z ((290 160 0,310 140 0),(310 160 0,290 140 0))")


def test_lwpolyline_smooth_bulge():
    """test_ogr_dxf_14: bulge tessellation point count + envelope."""
    t = _table("lwpolyline_smooth.dxf")
    g = gwkb.parse(t["geometry"][0].as_py())
    assert t["Layer"][0].as_py() == "1"
    c = g["coords"]
    area = (c[:, 0].max() - c[:, 0].min()) * (c[:, 1].max() - c[:, 1].min())
    assert abs(area - 1350.43) <= 0.5
    assert len(c) == 146


def test_polyline_smooth_vertex_stream():
    """test_ogr_dxf_13 analogue (POLYLINE/VERTEX/SEQEND)."""
    t = _table("polyline_smooth.dxf")
    g = gwkb.parse(t["geometry"][0].as_py())
    c = g["coords"]
    area = (c[:, 0].max() - c[:, 0].min()) * (c[:, 1].max() - c[:, 1].min())
    assert abs(area - 1350.43) <= 0.5


def test_closed_polyline_with_bulge():
    t = _table("closed_polyline_with_bulge.dxf")
    g = gwkb.parse(t["geometry"][0].as_py())
    c = g["coords"]
    # ring closes exactly
    assert np.allclose(c[0], c[-1])


def test_frozen_off_alpha():
    """Frozen/off layers append the 00 alpha suffix
    (test_ogr_dxf_54's visibility plan)."""
    t = _table("frozen-off.dxf")
    by_layer = {}
    for i in range(t.num_rows):
        lay = t["Layer"][i].as_py()
        sty = t["OGR_STYLE"][i].as_py() or ""
        m = re.search(r"#([0-9a-fA-F]+)", sty)
        by_layer.setdefault(lay, set()).add(
            bool(m) and len(m.group(1)) == 8)
    assert by_layer.get("ONTHAW") == {False}
    for lay in ("OFFTHAW", "ONFREEZE", "OFFFREEZE"):
        if lay in by_layer:
            assert True in by_layer[lay], lay


def test_read_dxf_dataset(ray_session):
    ds = read_dxf(f"{DATA}/entities_only.dxf")
    t = pa.concat_tables(
        [b for b in ds.iter_batches(batch_format="pyarrow")])
    assert t.num_rows > 0
    assert "geometry" in t.column_names


WIPEOUT_EXPECTED = [
    [(448381.028869725, 6913933.17804321),
     (448381.232017696, 6913933.39891582),
     (448380.807997101, 6913933.38119118),
     (448381.028869725, 6913933.17804321),
     (448381.011145071, 6913933.6020638),
     (448381.232017696, 6913933.39891582),
     (448381.028869725, 6913933.17804321)],
    [(448380.538954307, 6913930.73282502),
     (448380.538954307, 6913930.73282502),
     (448380.538954307, 6913931.73282502),
     (448381.538954307, 6913931.73282502),
     (448381.538954307, 6913930.73282502),
     (448380.538954307, 6913930.73282502)],
]


def _polygon_points(wkb):
    import struct

    n = struct.unpack_from("<I", wkb, 9)[0]
    return [struct.unpack_from("<dd", wkb, 13 + 16 * i)
            for i in range(n)]


@pytest.mark.parametrize("name", ["wipeout.dxf", "BINARY_wipeout.dxf"])
def test_wipeout(name):
    """WIPEOUT outline polygons (test_ogr_dxf_read_wipeout /
    …_binary WKT pins) — the binary variant also exercises the
    binary-DXF tape (2-byte codes, ezdxf value-type ranges)."""
    from gdal_ray.dxf import read_dxf_table

    t = read_dxf_table(f"{DATA}/{name}")
    rows = t.to_pylist()
    assert len(rows) == 2
    for row, exp in zip(rows, WIPEOUT_EXPECTED):
        pts = _polygon_points(row["geometry"])
        assert len(pts) == len(exp)
        for (a, b), (c, d) in zip(pts, exp):
            assert abs(a - c) < 1e-7 and abs(b - d) < 1e-7


class TestLeaderMultileader:
    """Round-5 boundary close: LEADER + MULTILEADER (ogr_dxf.py
    test_ogr_dxf_44-47 literal geometry/style pins over
    leader-mleader.dxf)."""

    @classmethod
    def _table(cls):
        if not hasattr(cls, "_t"):
            cls._t = read_dxf_table(f"{DATA}/leader-mleader.dxf")
        return cls._t

    @staticmethod
    def _geq(got_wkb, want_wkt, tol=1e-7):
        from gdal_ray.geom import wkb as W
        from gdal_ray.geom.wkt import from_wkt

        def coords(buf):
            g = W.parse(buf)
            out = []

            def walk(n):
                if "coords" in n:
                    out.append(np.asarray(n["coords"]))
                    if "z" in n:
                        out.append(np.asarray(n["z"]).reshape(-1, 1))
                for r in n.get("rings", []):
                    out.append(np.asarray(r))
                for p in n.get("parts", []):
                    walk(p)

            walk(g)
            return out

        a = coords(got_wkb)
        b = coords(from_wkt(want_wkt))
        assert len(a) == len(b), (len(a), len(b))
        for x, y in zip(a, b):
            assert x.shape == y.shape, (x.shape, y.shape)
            assert np.allclose(x, y, atol=tol)

    def test_classic_leader_with_overrides(self):
        t = self._table()
        self._geq(t.column("geometry")[0].as_py(),
                  "LINESTRING Z (21 40 0,10 40 0,19.3125 34.6875 0,"
                  "10.3125 34.6875 0,-13.5990791268758 34.6875 0)")
        self._geq(t.column("geometry")[1].as_py(),
                  "POLYGON Z ((21.0 41.5 0,30 40 0,21.0 38.5 0,"
                  "21.0 41.5 0))")

    def test_basic_leader_spline(self):
        t = self._table()
        assert t.column("OGR_STYLE")[3].as_py() == "PEN(c:#ff0000)"
        self._geq(
            t.column("geometry")[3].as_py(),
            "LINESTRING Z (-20.9782552979609 38.1443878852919 30,"
            "-12.2152357926375 44.793971841437 30,"
            "-13.7256166009765 49.0748560186272 30,"
            "-13.9025293262723 49.0416613258524 30)", tol=2e-3)
        assert t.column("OGR_STYLE")[4].as_py() == "BRUSH(fc:#ff0000)"
        self._geq(
            t.column("geometry")[4].as_py(),
            "POLYGON Z ((-20.9601206293303 38.1204894796201 30,"
            "-21.121645731992 38.035579873508 30,"
            "-20.9963899665916 38.1682862909638 30,"
            "-20.9601206293303 38.1204894796201 30))", tol=2e-3)

    def test_custom_arrowhead_leader(self):
        t = self._table()
        assert t.column("OGR_STYLE")[5].as_py() == "PEN(c:#00ff00)"
        self._geq(
            t.column("geometry")[5].as_py(),
            "LINESTRING Z (26.8 77.6 0,10 65 0,25 55 0,25 50 0,"
            "40 65 0,48 65 0,169.282571623465 65.0 0)")
        assert t.column("OGR_STYLE")[6].as_py() == "BRUSH(fc:#00ff00)"
        self._geq(t.column("geometry")[6].as_py(),
                  "POLYGON ((27.2 80.4,30.4 82.8,32.8 79.6,29.6 77.2,"
                  "27.2 80.4))")
        assert t.column("OGR_STYLE")[7].as_py() == "PEN(c:#00ff00)"
        self._geq(t.column("geometry")[7].as_py(),
                  "LINESTRING Z (28.4 78.8 0,26.8 77.6 0)")
        # 319-char MTEXT annotation captured in full
        assert len(t.column("Text")[8].as_py()) == 319

    def test_basic_multileader(self):
        t = self._table()
        self._geq(t.column("geometry")[9].as_py(),
                  "MULTILINESTRING ((26.8 32.6,10 20,25 10,25 5,40 20),"
                  "(40 20,48 20))")
        self._geq(t.column("geometry")[10].as_py(),
                  "POLYGON ((27.2 35.4,30.4 37.8,32.8 34.6,29.6 32.2,"
                  "27.2 35.4))")
        self._geq(t.column("geometry")[11].as_py(),
                  "LINESTRING Z (28.4 33.8 0,26.8 32.6 0)")
        self._geq(t.column("geometry")[12].as_py(),
                  "POINT (50.0 22.0327421555252)")
        assert t.column("OGR_STYLE")[12].as_py() == \
            'LABEL(f:"Arial",t:"Basic Multileader",p:7,s:4g,c:#000000)'

    def test_suppressed_arrowheads(self):
        # 3 LEADERs + 2 MULTILEADERs with empty/oversized/disabled
        # arrowheads → no polygon features between them
        from gdal_ray.geom import wkb as W

        t = self._table()
        for i in (13, 14, 15):
            assert W.geometry_type(
                t.column("geometry")[i].as_py()) == W.LINESTRING
        assert W.geometry_type(
            t.column("geometry")[16].as_py()) == W.MULTILINESTRING
        assert W.geometry_type(
            t.column("geometry")[18].as_py()) == W.MULTILINESTRING

    def test_multiline_formatted_text(self):
        t = self._table()
        assert t.column("OGR_STYLE")[20].as_py() == "PEN(c:#0000ff)"
        self._geq(
            t.column("geometry")[20].as_py(),
            "MULTILINESTRING ((7.6425115795681 -8.00285406769102,"
            "18.2 -20.0),(19.2913880067389 -13.9367332958948,18.2 -20.0)"
            ",(18.2 -20.0,38 -20),(54.8204921137545 -22.5800753657327,"
            "60.2227692307692 -20.0),(60.2227692307692 -20.0,"
            "52.2227692307692 -20.0))")
        assert t.column("OGR_STYLE")[21].as_py() == "BRUSH(fc:#0000ff)"
        assert t.column("OGR_STYLE")[22].as_py() == "BRUSH(fc:#0000ff)"
        s = t.column("OGR_STYLE")[23].as_py()
        assert s.startswith('LABEL(f:"Calibri",it:1,t:"wwmhyhua')
        assert s.endswith(',p:7,s:4g,w:40,c:#0000ff)')
        self._geq(t.column("geometry")[23].as_py(),
                  "POINT (40.0 -17.9846153846154)")

    def test_rotated_block_content_with_attributes(self):
        t = self._table()
        assert t.column("OGR_STYLE")[24].as_py() == "PEN(c:#ff00ff)"
        self._geq(
            t.column("geometry")[24].as_py(),
            "MULTILINESTRING ((-41.8919467995818 -22.8930851139176,"
            "-36.1215379759023 -17.6108145786645),"
            "(-36.1215379759023 -17.6108145786645,-44.0 -19.0))")
        # attribute label: scaled height, rotated, ATTDEF color
        assert t.column("OGR_STYLE")[26].as_py() == \
            'LABEL(f:"Arial",t:"Apples±",p:2,s:1g,c:#ff0000,a:10)'
        assert t.column("Text")[26].as_py() == "Apples±"
        self._geq(t.column("geometry")[26].as_py(),
                  "POINT Z (-42.7597068401767 -14.5165110820149 0)")

    def test_no_dogleg_and_block_only(self):
        from gdal_ray.geom import wkb as W

        t = self._table()
        self._geq(
            t.column("geometry")[27].as_py(),
            "MULTILINESTRING ((-2.39659963256204 -14.5201521575302,"
            "-3.98423252456234 -23.1105237601191),"
            "(-26.0282877045921 -20.4748699216691,"
            "-3.98423252456233 -23.1105237601191))")
        # block-content-only MULTILEADER: empty MLS then the polygon
        g32 = W.parse(t.column("geometry")[32].as_py())
        assert g32["type"] == W.MULTILINESTRING and not g32["parts"]
        g33 = W.parse(t.column("geometry")[33].as_py())
        assert g33["type"] == W.POLYGON and len(g33["rings"]) == 5

    def test_spline_paths(self):
        t = self._table()
        # LEADER spline: endpoints + a midpoint of the 40-point pin
        from gdal_ray.geom import wkb as W

        g = W.parse(t.column("geometry")[35].as_py())
        assert g["type"] == W.LINESTRING
        assert len(g["coords"]) == 40
        assert np.allclose(g["coords"][0], [75, -5])
        assert np.allclose(g["coords"][-1], [79, -16])
        assert np.allclose(g["coords"][24],
                           [83.0573154710347, -11.5829116606322],
                           atol=1e-6)
        # MULTILEADER spline arrowhead + angled label
        self._geq(
            t.column("geometry")[37].as_py(),
            "POLYGON Z ((98.5006722379985 -24.8076524621295 0,"
            "96 -28 0,97.330144807446 -24.1691829545554 0,"
            "98.5006722379985 -24.8076524621295 0))", tol=1e-6)
        assert t.column("OGR_STYLE")[38].as_py() == \
            'LABEL(f:"Arial",t:"Splines",p:7,a:342,s:2g,c:#000000)'

    def test_dimbreak(self):
        t = self._table()
        self._geq(
            t.column("geometry")[39].as_py(),
            "MULTILINESTRING ((50.8917622404846 41.5635728657296,"
            "51.2877903403879 42.2579494192141),"
            "(51.9070696740577 43.3437639093041,"
            "54.3108962133801 47.5585173269448,"
            "55.9270734326513 48.2521008552884),"
            "(57.0757636753042 48.7450620367561,"
            "59.4256548786735 49.7535194092661),"
            "(60 50,60 50),(60 50,60 50),(60.625 50.0,61.875 50.0),"
            "(63.125 50.0,63.6 50.0))")
