"""KML + GPX drivers vs the reference autotest fixtures
(autotest/ogr/ogr_gpx.py test_ogr_gpx_1 expectations; kml/geometries.kml
degenerate-geometry cascade)."""

from __future__ import annotations

from pathlib import Path

from conftest import ref_path
from gdal_ray import kmlgpx
from gdal_ray.geom import wkb as W

KML_DATA = "autotest/ogr/data/kml"
GPX_DATA = "autotest/ogr/data/gpx"
ROOT = Path(__file__).resolve().parents[1]  # this repository's checkout


class TestKML:
    def test_geometries_cascade(self):
        """geometries.kml: empty Polygons parse to NULL geometry, the
        populated ones to valid WKB (reference NULL-geometry rule)."""
        t = kmlgpx.parse_kml(
            open(ref_path(f"{KML_DATA}/geometries.kml"), "rb").read())
        geoms = t["geometry"].to_pylist()
        assert len(geoms) > 8
        # first four Placemarks are structurally empty polygons
        assert geoms[0] is None and geoms[3] is None
        # the first populated one is the 0,0 0,1 1,1 1,0 unit square
        square = next(g for g in geoms if g is not None)
        rings = W.polygon_rings(square)
        assert len(rings[0]) == 5

    def test_placemark_fields(self):
        t = kmlgpx.parse_kml(
            open(ref_path(f"{KML_DATA}/ID_simple_field.kml"), "rb").read())
        assert "Name" in t.column_names
        assert t.num_rows >= 1

    def test_roundtrip_via_write(self, tmp_path):
        import pyarrow as pa

        from gdal_ray.geom.wkb import linestring_wkb, point_wkb, polygon_wkb

        src = pa.table(
            {
                "name": ["p", "l", "pg"],
                "geometry": pa.array(
                    [
                        point_wkb(1.5, 2.5),
                        linestring_wkb([[0, 0], [1, 1]]),
                        polygon_wkb([[0, 0], [1, 0], [1, 1], [0, 0]]),
                    ],
                    pa.binary(),
                ),
            }
        )
        out = tmp_path / "rt.kml"
        kmlgpx.write_kml(src, str(out), name_col="name")
        back = kmlgpx.parse_kml(out.read_bytes())
        assert back.num_rows == 3
        assert back["Name"].to_pylist() == ["p", "l", "pg"]
        gj = [
            kmlgpx.wkb_to_geojson_geom(g) for g in back["geometry"].to_pylist()
        ]
        assert gj[0]["coordinates"] == [1.5, 2.5]
        assert gj[1]["type"] == "LineString"
        assert gj[2]["type"] == "Polygon"


class TestGPX:
    def _wpt(self):
        return kmlgpx.parse_gpx(
            open(ref_path(f"{GPX_DATA}/test.gpx"), "rb").read(), "waypoints")

    def test_waypoints_parity(self):
        """test_ogr_gpx_1: ele [2, None], name ['waypoint name', None],
        link1_*/link2_* values."""
        t = self._wpt()
        assert t["ele"].to_pylist() == [2.0, None]
        assert t["name"].to_pylist() == ["waypoint name", None]
        assert t["link1_href"].to_pylist() == ["href", None]
        assert t["link1_text"].to_pylist() == ["text", None]
        assert t["link1_type"].to_pylist() == ["type", None]
        assert t["link2_href"].to_pylist() == ["href2", None]

    def test_waypoint_geometry(self):
        t = self._wpt()
        g = kmlgpx.wkb_to_geojson_geom(t["geometry"][0].as_py())
        assert g["coordinates"][:2] == [1.0, 0.0]  # wpt lat=0 lon=1

    def test_five_layers(self):
        data = open(ref_path(f"{GPX_DATA}/test.gpx"), "rb").read()
        rows = {
            layer: kmlgpx.parse_gpx(data, layer).num_rows
            for layer in kmlgpx.GPX_LAYERS
        }
        assert rows["waypoints"] == 2
        assert rows["routes"] >= 1
        assert rows["tracks"] >= 1
        assert rows["route_points"] >= 1
        assert rows["track_points"] >= 1

    def test_track_point_ids(self):
        data = open(ref_path(f"{GPX_DATA}/test.gpx"), "rb").read()
        t = kmlgpx.parse_gpx(data, "track_points")
        assert t["track_fid"][0].as_py() == 0
        assert t["track_seg_id"][0].as_py() == 0
        assert t["track_seg_point_id"][0].as_py() == 0

    def test_dataset_read(self, ray_session):
        df = kmlgpx.read_gpx(
            ref_path(f"{GPX_DATA}/test.gpx"), "waypoints").to_pandas()
        assert len(df) == 2

    def test_corpus_robustness(self):
        """Every parseable fixture in the reference gpx/kml corpora
        either parses or raises cleanly (no hangs/crashes)."""
        import glob

        for f in glob.glob(ref_path(f"{GPX_DATA}/*.gpx")):
            try:
                kmlgpx.parse_gpx(open(f, "rb").read(), "waypoints")
            except Exception:
                pass
        for f in glob.glob(ref_path(f"{KML_DATA}/*.kml")):
            try:
                kmlgpx.parse_kml(open(f, "rb").read())
            except Exception:
                pass


class TestInfoCLI:
    def test_vector_info(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "vector", "info",
             ref_path("autotest/ogr/data/poly.shp")],
            capture_output=True, text=True, cwd=ROOT, timeout=200,
        )
        assert out.returncode == 0
        assert "Feature Count: 10" in out.stdout
        assert "EPSG:27700" in out.stdout
        assert "478315.531250" in out.stdout  # autotest-known extent

    def test_raster_info(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "raster", "info",
             ref_path("autotest/gcore/data/byte.tif")],
            capture_output=True, text=True, cwd=ROOT, timeout=200,
        )
        assert out.returncode == 0
        assert "Size is 20, 20" in out.stdout
        assert "EPSG:26711" in out.stdout

    def test_kml_pipeline_cli(self, tmp_path):
        import subprocess
        import sys

        out_kml = tmp_path / "out.kml"
        spec = (
            f"read {ref_path(f'{KML_DATA}/geometries.kml')} ! write {out_kml}"
        )
        out = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "vector", "pipeline", spec],
            capture_output=True, text=True, cwd=ROOT, timeout=200,
        )
        assert out.returncode == 0, out.stderr[-500:]
        assert out_kml.exists()
        back = kmlgpx.parse_kml(out_kml.read_bytes())
        assert back.num_rows > 8
