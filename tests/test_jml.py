"""OpenJUMP JML driver — the reference's test.jml, verbatim, and one
document opened through the driver registry."""

import pyarrow as pa
from conftest import ref_path

from gdal_ray.geom import wkb as W
from gdal_ray.jml import read_jml

PATH = "autotest/ogr/data/jml/test.jml"


class TestJML:
    def test_schema(self):
        # ogr_jml.py test_ogr_jml_1's 11 typed fields, in order;
        # the template-external "ignored" column must NOT appear
        t = read_jml(ref_path(PATH))
        assert t.column_names == [
            "first_property", "another_property", "objectAttr",
            "attr2", "attr3", "int", "double", "date", "datetime",
            "R_G_B", "not_ignored", "geometry"]
        assert t.schema.field("int").type == pa.int64()
        assert t.schema.field("double").type == pa.float64()

    def test_first_feature_values(self):
        t = read_jml(ref_path(PATH))
        assert t["first_property"][0].as_py() == "even"
        assert t["another_property"][0].as_py() == "rouault"
        assert t["objectAttr"][0].as_py() == "foo"
        assert t["attr2"][0].as_py() == "bar"
        assert t["attr3"][0].as_py() == "baz"
        assert t["int"][0].as_py() == 123
        assert t["double"][0].as_py() == 1.23
        assert t["date"][0].as_py() == "2014/10/18 00:00:00"
        assert t["datetime"][0].as_py() == "2014/10/18 21:36:45"
        assert t["R_G_B"][0].as_py() == "0000FF"
        assert t["not_ignored"][0].as_py() is None  # empty → NULL
        g = W.parse(t["geometry"][0].as_py())
        assert g["type"] == 3
        assert g["rings"][0].tolist() == [
            [0.0, 0.0], [0.0, 10.0], [10.0, 10.0], [10.0, 0.0],
            [0.0, 0.0]]

    def test_iso_datetime_and_point(self):
        t = read_jml(ref_path(PATH))
        # 2014-10-18T21:36:45.000+0200 → the reference's +02 form
        assert t["datetime"][1].as_py() == "2014/10/18 21:36:45+02"
        assert t["R_G_B"][1].as_py() == "FF00FF"
        g = W.parse(t["geometry"][1].as_py())
        assert g["coords"].tolist() == [[-1.0, -1.0]]

    def test_empty_geometry_row(self):
        t = read_jml(ref_path(PATH))
        assert t.num_rows == 3
        assert t["geometry"][2].as_py() is None


def test_document_opens_through_the_registry(tmp_path, ray_session):
    from gdal_ray.drivers import identify, resolve_vector_source

    p = str(tmp_path / "x.jml")
    with open(p, "w") as f:
        f.write(
            '<?xml version="1.0"?>\n'
            '<JCSDataFile xmlns:gml="http://www.opengis.net/gml">'
            "<JCSGMLInputTemplate>"
            "<CollectionElement>featureCollection</CollectionElement>"
            "<FeatureElement>feature</FeatureElement>"
            "<GeometryElement>geometry</GeometryElement>"
            "<ColumnDefinitions>"
            "<column><name>name</name><type>STRING</type>"
            '<valueElement elementName="property" attributeName="name"'
            ' attributeValue="name"/><valueLocation position="body"/>'
            "</column>"
            "<column><name>n</name><type>INTEGER</type>"
            '<valueElement elementName="property" attributeName="name"'
            ' attributeValue="n"/><valueLocation position="body"/>'
            "</column>"
            "</ColumnDefinitions></JCSGMLInputTemplate>"
            "<featureCollection><feature>"
            "<geometry><gml:Point><gml:coordinates>1,2</gml:coordinates>"
            "</gml:Point></geometry>"
            '<property name="name">a</property>'
            '<property name="n">7</property>'
            "</feature></featureCollection></JCSDataFile>")
    assert identify(p, "vector").name == "JML"
    (row,) = resolve_vector_source(p)().take_all()
    assert (row["name"], row["n"]) == ("a", 7)
    assert W.parse(row["geometry"])["coords"].tolist() == [[1.0, 2.0]]
