"""GML reader tests — reference autotest pins (ogr/ogr_gml.py:
test_ogr_gml_1 ionic_wfs Name/polygon, test_ogr_gml_3 rnf_eg
ngd_id/type/linestring, test_ogr_gml_4 bom.gml 3 features,
test_ogr_gml_20 archsites gml_id/cat-int64/str1-string) plus axis
order and multi-geometry cases.  Reference role: ogr/ogrsf_frmts/gml.
"""

import numpy as np
import pyarrow as pa
import pytest

from conftest import ref_path
from gdal_ray.geom import wkb as W
from gdal_ray.gml import gml_layers, parse_gml, read_gml, read_gml_local

D = "autotest/ogr/data/gml/"


def test_ionic_wfs_pin():
    # test_ogr_gml_1 role
    layers = parse_gml(open(ref_path(D + "ionic_wfs.gml"), "rb").read())
    assert list(layers) == ["GEM"]
    t = layers["GEM"]
    assert t.num_rows == 1
    assert t["Name"][0].as_py() == "Aartselaar"
    g = W.parse(t["geometry"][0].as_py())
    assert g["type"] == 3  # polygon
    assert g["rings"][0][0].tolist() == [44038.0, 511549.0]


def test_rnf_eg_pin():
    # test_ogr_gml_3 role
    t = read_gml_local(ref_path(D + "rnf_eg.gml"))
    assert t.num_rows == 1
    assert t["ngd_id"][0].as_py() == 817792
    assert t["type"][0].as_py() == "HWY"
    g = W.parse(t["geometry"][0].as_py())
    assert g["type"] == 2
    np.testing.assert_allclose(
        g["coords"][0], [-63.500411040289066, 46.240122507771368])
    np.testing.assert_allclose(
        g["coords"][-1], [-63.509946573455622, 46.241745397977233])


def test_bom_pin():
    # test_ogr_gml_4 role: BOM + custom *Member containers
    layers = parse_gml(open(ref_path(D + "bom.gml"), "rb").read())
    assert list(layers) == ["CartographicText"]
    assert layers["CartographicText"].num_rows == 3


def test_archsites_types():
    # test_ogr_gml_20 role: gml_id present, cat int64, str1 string
    t = read_gml_local(ref_path(D + "archsites.gml"))
    assert t["gml_id"][0].as_py() == "archsites.3951"
    assert t.schema.field("cat").type == pa.int64()
    assert t.schema.field("str1").type == pa.string()
    g = W.parse(t["geometry"][0].as_py())
    # projected urn (EPSG:26713): NO axis swap — easting first
    assert g["coords"][0].tolist() == [593493.0, 4914730.0]


def test_urn_geographic_axis_swap():
    # GML3 urn:…EPSG::4326 puts lat first on the wire
    t = parse_gml(open(ref_path(D + "expected_gml_gml3.gml"), "rb").read())[
        "firstlayer"]
    g = W.parse(t["geometry"][0].as_py())
    assert g["coords"][0].tolist() == [2.0, 49.0]  # x=lon


def test_gnis_multi_feature():
    t = read_gml_local(ref_path(D + "gnis_pop_100.gml"))
    assert t.num_rows == 20
    assert t.schema.field("population").type == pa.int64()
    assert "geometry" in t.column_names
    assert gml_layers(ref_path(D + "gnis_pop_100.gml")) == ["gnis_pop"]


def test_gml2_coordinates_and_multipolygon():
    data = b"""<FeatureCollection xmlns:gml="http://www.opengis.net/gml">
  <featureMember>
    <f><geom><gml:MultiPolygon><gml:polygonMember>
      <gml:Polygon><gml:outerBoundaryIs><gml:LinearRing>
        <gml:coordinates>0,0 4,0 4,4 0,4 0,0</gml:coordinates>
      </gml:LinearRing></gml:outerBoundaryIs></gml:Polygon>
    </gml:polygonMember></gml:MultiPolygon></geom>
    <name>sq</name></f>
  </featureMember>
</FeatureCollection>"""
    t = parse_gml(data)["f"]
    g = W.parse(t["geometry"][0].as_py())
    assert g["type"] == 6
    assert t["name"][0].as_py() == "sq"


def test_read_gml_dataset(ray_session):
    ds = read_gml([ref_path(D + "gnis_pop_100.gml"), ref_path(D + "gnis_pop_110.gml")])
    rows = ds.take_all()
    assert len(rows) == read_gml_local(
        ref_path(D + "gnis_pop_100.gml")).num_rows + read_gml_local(
        ref_path(D + "gnis_pop_110.gml")).num_rows


class TestGmlWrite:
    def test_roundtrip_all_types(self, tmp_path):
        from gdal_ray.gml import write_gml_table

        sq = W.polygon_wkb(
            np.array([[0.0, 0.0], [4, 0], [4, 4], [0, 4], [0, 0]]),
            [np.array([[1.0, 1], [2, 1], [2, 2], [1, 2], [1, 1]])])
        geoms = [
            W.point_wkb(2.5, 49.25),
            W.linestring_wkb(np.array([[0.0, 0], [1, 1], [2, 0]])),
            sq,
        ]
        t = pa.table({
            "name": ["a", "b <&> c", "d"],
            "n": [1, 2, 3],
            "v": [0.5, None, 2.25],
            "geometry": pa.array(geoms, pa.binary()),
        })
        p = str(tmp_path / "out.gml")
        write_gml_table(t, p, layer="mylayer")
        back = read_gml_local(p, "mylayer")
        assert back.num_rows == 3
        assert back["name"].to_pylist() == ["a", "b <&> c", "d"]
        assert back["n"].to_pylist() == [1, 2, 3]
        assert back["v"].to_pylist() == [0.5, None, 2.25]
        for i in range(3):
            assert back["geometry"][i].as_py() == geoms[i]

    def test_multigeoms_roundtrip(self, tmp_path):
        from gdal_ray.gml import write_gml_table

        mp = W.multipolygon_wkb([
            np.array([[0.0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]),
            np.array([[5.0, 5], [6, 5], [6, 6], [5, 6], [5, 5]]),
        ])
        t = pa.table({"geometry": pa.array([mp], pa.binary())})
        p = str(tmp_path / "mp.gml")
        write_gml_table(t, p)
        back = read_gml_local(p)
        g = W.parse(back["geometry"][0].as_py())
        assert g["type"] == 6
        assert back["geometry"][0].as_py() == mp

    def test_dataset_write(self, ray_session, tmp_path):
        import ray.data as rd

        from gdal_ray.gml import write_gml

        rows = [{"id": i,
                 "geometry": W.point_wkb(float(i), float(-i))}
                for i in range(10)]
        p = str(tmp_path / "pts.gml")
        write_gml(rd.from_items(rows), p, layer="pts")
        back = read_gml_local(p, "pts")
        assert back.num_rows == 10
        assert back["id"].to_pylist() == list(range(10))
