"""GeoRSS driver — the reference's expectations, verbatim, and one
feed opened through the driver registry."""

import pytest
from conftest import ref_path

from gdal_ray.geom import wkb as W
from gdal_ray.georss import read_georss

D = "autotest/ogr/data/georss/"

# ogr_georss.py's gdaltest.atom_field_values, verbatim
ATOM_FIELDS = [
    ("title", "Atom draft-07 snapshot"),
    ("link_rel", "alternate"),
    ("link_type", "text/html"),
    ("link_href", "http://example.org/2005/04/02/atom"),
    ("link2_rel", "enclosure"),
    ("link2_type", "audio/mpeg"),
    ("link2_length", 1337),
    ("link2_href", "http://example.org/audio/ph34r_my_podcast.mp3"),
    ("id", "tag:example.org,2003:3.2397"),
    ("updated", "2005/07/31 12:29:29+00"),
    ("published", "2003/12/13 08:29:29-04"),
    ("author_name", "Mark Pilgrim"),
    ("author_uri", "http://example.org/"),
    ("author_email", "f8dy@example.com"),
    ("contributor_name", "Sam Ruby"),
    ("contributor2_name", "Joe Gregorio"),
    ("content_type", "xhtml"),
    ("content_xml_lang", "en"),
    ("content_xml_base", "http://diveintomark.org/"),
]


class TestAtom:
    @pytest.mark.parametrize("name", ["atom_rfc_sample.xml",
                                      "atom_rfc_sample_atom_ns.xml"])
    def test_atom_field_table(self, name):
        t = read_georss(ref_path(D + name))
        assert t.num_rows == 1
        for field, want in ATOM_FIELDS:
            assert t[field][0].as_py() == want, field
        assert '<div xmlns="http://www.w3.org/1999/xhtml">' in \
            t["content"][0].as_py()


def _wkt_tuple(buf):
    g = W.parse(bytes(buf))
    if g["type"] == 1:
        return ("POINT", g["coords"].tolist())
    if g["type"] == 2:
        return ("LINESTRING", g["coords"].tolist())
    return ("POLYGON", [r.tolist() for r in g["rings"]])


class TestSimpleRSS:
    def test_geometries_and_fields(self):
        # ogr_georss_test_rss's exact WKTs and attribute values
        t = read_georss(ref_path(D + "test_georss_simple.xml"))
        assert t.num_rows == 4
        kinds = [_wkt_tuple(t["geometry"][i].as_py())
                 for i in range(4)]
        assert kinds[0] == ("POINT", [[2.0, 49.0]])
        assert kinds[1] == ("LINESTRING",
                            [[2.0, 48.0], [2.1, 48.1], [2.2, 48.0]])
        assert kinds[2] == ("POLYGON", [[[2.0, 50.0], [2.1, 50.1],
                                         [2.2, 48.1], [2.1, 46.1],
                                         [2.0, 50.0]]])
        assert kinds[3] == ("POLYGON", [[[2.0, 49.0], [2.0, 49.5],
                                         [2.2, 49.5], [2.2, 49.0],
                                         [2.0, 49.0]]])
        assert t["title"].to_pylist() == ["A point", "A line",
                                          "A polygon", "A box"]
        assert t["pubDate"][0].as_py() == "2008/12/07 20:13:00+02"
        assert t["category"][0].as_py() == "First category"
        assert t["category_domain"][0].as_py() == "first_domain"
        assert t["category2"][0].as_py() == "Second category"
        assert t["category2_domain"][0].as_py() == "second_domain"

    def test_gml_where_variant(self):
        # georss:where + gml:Point in lat-lon order → x=lon
        t = read_georss(ref_path(D + "test_georss_gml.xml"))
        assert _wkt_tuple(t["geometry"][0].as_py()) == \
            ("POINT", [[2.0, 49.0]])


def test_feed_opens_through_the_registry(tmp_path, ray_session):
    from gdal_ray.drivers import identify, resolve_vector_source

    p = str(tmp_path / "feed.xml")
    with open(p, "w") as f:
        f.write('<?xml version="1.0"?>\n'
                '<rss version="2.0" '
                'xmlns:georss="http://www.georss.org/georss"><channel>'
                "<item><title>A point</title>"
                "<georss:point>49 2</georss:point></item>"
                "<item><title>A box</title>"
                "<georss:box>49 2 49.5 2.2</georss:box></item>"
                "</channel></rss>")
    assert identify(p, "vector").name == "GeoRSS"
    rows = resolve_vector_source(p)().take_all()
    assert [r["title"] for r in rows] == ["A point", "A box"]
    assert _wkt_tuple(rows[0]["geometry"]) == ("POINT", [[2.0, 49.0]])
    assert _wkt_tuple(rows[1]["geometry"]) == (
        "POLYGON", [[[2.0, 49.0], [2.0, 49.5], [2.2, 49.5], [2.2, 49.0],
                     [2.0, 49.0]]])
