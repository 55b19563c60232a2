"""MiraMon structured vector reader tests, pinned to the reference
autotest expectations (autotest/ogr/ogr_miramon_vector.py
check_simple_point / check_simple_arc / check_simple_polygon /
check_multi_polygon, the 3d checks and the multiregister matrix)."""

import numpy as np
import pytest

from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom import wkt as gwkt
from gdal_ray.miramon import read_miramon_local

B = "/root/reference/autotest/ogr/data/miramon/"


def _assert_wkt(got_wkb, expected_wkt, tol=1e-9):
    exp = gwkb.parse(gwkt.from_wkt(expected_wkt))
    got = gwkb.parse(got_wkb)
    assert got["type"] == exp["type"], (got["type"], exp["type"])
    if "coords" in exp:
        np.testing.assert_allclose(got["coords"], exp["coords"], atol=tol)
    if "rings" in exp:
        assert len(got["rings"]) == len(exp["rings"])
        for g, e in zip(got["rings"], exp["rings"]):
            np.testing.assert_allclose(g, e, atol=tol)
    if "parts" in exp:
        assert len(got["parts"]) == len(exp["parts"])
        for g, e in zip(got["parts"], exp["parts"]):
            assert len(g["rings"]) == len(e["rings"])
            for gr, er in zip(g["rings"], e["rings"]):
                np.testing.assert_allclose(gr, er, atol=tol)


class TestSimplePoint:
    def test_simple_points(self):
        t = read_miramon_local(
            B + "Points/SimplePoints/SimplePointsFile.pnt")
        assert len(t) == 3
        # extended-DBF long field name surfaces as ATTRIBUTE_2
        assert t.column_names == ["ID_GRAFIC", "ATT1", "ATTRIBUTE_2",
                                  "LOGICALY", "LOGICALN", "geometry"]
        _assert_wkt(t["geometry"][0].as_py(),
                    "POINT (513.488106565226 848.806850618409)")
        _assert_wkt(t["geometry"][1].as_py(),
                    "POINT (342.325404376834 715.680304471881)")
        _assert_wkt(t["geometry"][2].as_py(),
                    "POINT (594.503182156354 722.692543360232)")
        assert t["ID_GRAFIC"].to_pylist() == [0, 1, 2]
        assert t["ATT1"].to_pylist() == ["A", "C", ""]
        assert t["ATTRIBUTE_2"].to_pylist() == ["B", "D", ""]
        assert t["LOGICALY"].to_pylist() == [True, True, True]
        assert t["LOGICALN"].to_pylist() == [False, False, False]


class TestSimpleArc:
    def test_simple_arcs(self):
        t = read_miramon_local(B + "Arcs/SimpleArcs/SimpleArcFile.arc")
        assert len(t) == 4
        _assert_wkt(
            t["geometry"][0].as_py(),
            "LINESTRING (351.333967649907 610.58039961936,"
            "474.450999048575 824.784015223546,"
            "758.721217887776 838.797335870549,"
            "1042.99143672698 610.58039961936,"
            "1369.30161750719 562.534728829636)")
        _assert_wkt(
            t["geometry"][2].as_py(),
            "LINESTRING (887.843958135159 858.816365366268,"
            "989.941008563323 767.729781160749)")
        assert t["ID_GRAFIC"].to_pylist() == [0, 1, 2, 3]
        assert t["N_VERTEXS"].to_pylist() == [5, 7, 2, 6]
        assert t["LONG_ARC"][0].as_py() == pytest.approx(
            1226.052754666, abs=1e-5)
        assert t["NODE_INI"].to_pylist() == [0, 2, 4, 6]
        assert t["NODE_FI"].to_pylist() == [1, 3, 5, 7]
        # cp850 OEM charset (LDID 0x14) → FÈÊ
        assert t["ATT2"].to_pylist() == ["B", "D", "D", "FÈÊ"]

    def test_empty_arcs(self):
        t = read_miramon_local(B + "Arcs/EmptyArcs/Empty_ARC.arc")
        assert len(t) == 0
        assert "LONG_ARC" in t.column_names


class TestSimplePolygon:
    def test_simple_polygons(self):
        t = read_miramon_local(
            B + "Polygons/SimplePolygons/SimplePolFile.pol")
        assert len(t) == 3  # universal polygon 0 is not a feature
        _assert_wkt(
            t["geometry"][0].as_py(),
            "POLYGON ((335.318744053333 769.731684110321,"
            "552.525214081877 856.814462416696,"
            "775.737392959137 707.672692673594,"
            "648.616555661325 493.469077069408,"
            "386.367269267414 498.473834443337,"
            "335.318744053333 769.731684110321))")
        # polygon 2's single arc carries VFG 0x04 → reversed traverse
        _assert_wkt(
            t["geometry"][1].as_py(),
            "POLYGON ((1068.01522359662 849.807802093194,"
            "1160.10275927693 795.756422454755,"
            "1224.16365366323 682.648905803946,"
            "1156.09895337779 525.499524262557,"
            "962.915318744103 489.465271170264,"
            "830.789724072362 617.587059942862,"
            "924.879162702239 740.704091341529,"
            "1068.01522359662 849.807802093194))")
        assert t["ID_GRAFIC"].to_pylist() == [1, 2, 3]
        assert t["N_VERTEXS"].to_pylist() == [6, 8, 6]
        assert t["PERIMETRE"][0].as_py() == pytest.approx(
            1289.866489495, abs=1e-5)
        assert t["AREA"][0].as_py() == pytest.approx(
            112471.221989, abs=1e-5)
        assert t["N_ARCS"].to_pylist() == [1, 1, 1]
        assert t["ATT1"].to_pylist() == ["A", "C", "C"]

    def test_polygon_arc_ref_without_extension(self):
        t = read_miramon_local(
            B + "Polygons/SimplePolygonsCycleNoExt/SimplePolFile.pol")
        assert len(t) == 3
        assert t["N_VERTEXS"].to_pylist() == [6, 8, 6]


class TestMultiPolygon:
    def test_geometry_and_multirecords(self):
        t = read_miramon_local(
            B + "Polygons/Multipolygons/Multipolygons.pol")
        assert len(t) == 1
        g = gwkb.parse(t["geometry"][0].as_py())
        # 2 exterior rings → 2 parts; part 1 carries the 2 holes
        assert len(g["parts"]) == 2
        assert len(g["parts"][0]["rings"]) == 3
        assert len(g["parts"][1]["rings"]) == 1
        r0 = g["parts"][0]["rings"][0]
        np.testing.assert_allclose(
            r0[0], [32.699999937575, 36.072500062925], atol=1e-9)
        np.testing.assert_allclose(
            g["parts"][1]["rings"][0][0],
            [34.269999937575, 35.602500062925], atol=1e-9)
        # multi-record fields render as OGR "(n:...)" lists
        assert t["ID_GRAFIC"][0].as_py() == "(2:1,1)"
        assert t["N_VERTEXS"][0].as_py() == "(2:56,56)"
        assert t["N_ARCS"][0].as_py() == "(2:4,4)"
        assert t["TEXT"][0].as_py() == "(2:Multip 1,Multip 2)"
        assert t["NUMBER"][0].as_py() == "(2:1,2)"
        # dates stay scalar under multi-records
        assert t["DATA"][0].as_py() == "2024/04/18"

    @pytest.mark.parametrize(
        "mri,field,expected",
        [("0", "TEXT", "Multip 1"), ("1", "TEXT", "Multip 2"),
         ("Last", "TEXT", "Multip 2"),
         ("JSON", "TEXT", "[Multip 1,Multip 2]"),
         ("0", "NUMBER", "1"), ("1", "NUMBER", "2"),
         ("Last", "NUMBER", "2"), ("JSON", "NUMBER", "[1,2]"),
         ("0", "DOUBLE", "22.558"), ("1", "DOUBLE", "22.000"),
         ("Last", "DOUBLE", "22.000"),
         ("JSON", "DOUBLE", "[22.558,22.000]")])
    def test_multiregister(self, mri, field, expected):
        t = read_miramon_local(
            B + "Polygons/Multipolygons/Multipolygons.pol",
            multi_record_index=mri)
        assert t[field][0].as_py() == expected


class Test3D:
    def test_3d_points(self):
        t = read_miramon_local(B + "Points/3dpoints/Some3dPoints.pnt")
        assert len(t) == 32
        _assert_wkt(t["geometry"][0].as_py(),
                    "POINT Z (440551.66 4635315.3 619.9599609375)")
        assert gwkb.parse(t["geometry"][30].as_py())["z"][0] == 619.77

    @pytest.mark.parametrize("height,expected",
                             [("First", 250.0), ("Lowest", 250.0),
                              ("Highest", 277.0)])
    def test_3d_point_height_option(self, height, expected):
        t = read_miramon_local(B + "Points/3dpoints/Some3dPoints.pnt",
                               height=height)
        assert gwkb.parse(t["geometry"][31].as_py())["z"][0] == expected

    def test_3d_arcs(self):
        t = read_miramon_local(B + "Arcs/3dArcs/linies_3d_WGS84.arc")
        assert len(t) == 6
        z = gwkb.parse(t["geometry"][5].as_py())["z"]
        assert z[0] == 233.82064819335938
        assert z[1] == 794.5372314453125

    def test_3d_polygons(self):
        t = read_miramon_local(B + "Polygons/3dPolygons/tin_3d.pol")
        assert len(t) == 5
        z = gwkb.parse(t["geometry"][0].as_py())["rings_z"][0]
        np.testing.assert_allclose(
            z, [11.223576545715332, 9.221868515014648,
                21.929399490356445, 11.223576545715332])
        z = gwkb.parse(t["geometry"][4].as_py())["rings_z"][0]
        np.testing.assert_allclose(
            z, [18.207277297973633, 21.929399490356445,
                5.746463775634766, 18.207277297973633])


class TestDataset:
    def test_ray_dataset(self, ray_session):
        from gdal_ray.miramon import read_miramon

        ds = read_miramon(B + "Arcs/SimpleArcs/SimpleArcFile.arc")
        assert ds.count() == 4

    def test_cli_dispatch(self):
        from gdal_ray.drivers import resolve_vector_source

        src = resolve_vector_source(
            B + "Points/SimplePoints/SimplePointsFile.pnt")
        assert src is not None
