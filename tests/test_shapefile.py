"""Shapefile driver tests — parity against the public autotest
vectors (poly.shp field/filter expectations from ogr_shape.py) and
robustness over the whole reference .shp corpus."""

import glob
import os

import numpy as np
import pyarrow.compute as pc
import pytest

from gdal_ray import shapefile as SHP
from gdal_ray.geom import wkb as W
from gdal_ray.geom.predicates import PolygonEdges

DATA = "/root/reference/autotest/ogr/data"
pytestmark = pytest.mark.skipif(
    not os.path.isdir(DATA), reason="reference data absent")


class TestPolyShp:
    def test_fields_and_filter(self):
        """ogr_shape.py: poly.shp has (AREA real, EAS_ID int,
        PRFEDEA string); eas_id < 170 yields [168,169,166,158,165]."""
        t = SHP.read_shapefile_local(f"{DATA}/poly.shp")
        assert t.column_names == ["AREA", "EAS_ID", "PRFEDEA", "geometry"]
        assert len(t) == 10
        got = t.filter(pc.less(t["EAS_ID"], 170))["EAS_ID"].to_pylist()
        assert got == [168, 169, 166, 158, 165]

    def test_geometry_and_extent(self):
        """Layer extent matches the autotest-known poly.shp extent."""
        t = SHP.read_shapefile_local(f"{DATA}/poly.shp")
        bounds = [W.bounds(g.as_py()) for g in t["geometry"]]
        minx = min(b[0] for b in bounds)
        miny = min(b[1] for b in bounds)
        maxx = max(b[2] for b in bounds)
        maxy = max(b[3] for b in bounds)
        assert (minx, miny, maxx, maxy) == pytest.approx(
            (478315.53125, 4762880.5, 481645.3125, 4765610.5))
        assert all(W.geometry_type(g.as_py()) in (W.POLYGON, W.MULTIPOLYGON)
                   for g in t["geometry"])

    def test_prj(self):
        t = SHP.read_shapefile_local(f"{DATA}/poly.shp")
        assert (t.schema.metadata or {}).get(b"crs") == b"EPSG:27700"


class TestRingOrganization:
    def test_testpoly_holes(self):
        """testpoly.shp (the layer-algebra test set) has CCW hole
        rings; every hole must land inside its outer ring."""
        t = SHP.read_shapefile_local(f"{DATA}/shp/testpoly.shp")
        assert len(t) > 0
        for g in t["geometry"]:
            buf = g.as_py()
            if W.geometry_type(buf) != W.POLYGON:
                continue
            rings = W.polygon_rings(buf)
            shell = PolygonEdges(rings[:1])
            for hole in rings[1:]:
                assert shell.contains_points(hole[:, 0], hole[:, 1]).all()


class TestCorpus:
    def test_parse_all(self):
        """Every non-corrupt reference shapefile parses; the buggy*
        fixtures and multipatch raise clean ValueErrors."""
        ok = 0
        expected_bad = {"buggymultiline.shp", "buggymultipoint.shp",
                        "buggymultipoly.shp", "buggymultipoly2.shp",
                        "multipatch.shp"}
        for p in sorted(glob.glob(f"{DATA}/shp/*.shp")
                        + glob.glob(f"{DATA}/*.shp")):
            name = os.path.basename(p)
            try:
                SHP.read_shapefile_local(p)
                ok += 1
                assert name not in expected_bad, f"{name} now parses"
            except ValueError:
                assert name in expected_bad, name
        assert ok >= 40

    def test_z_and_m_variants(self):
        cases = (("shp/arcm_with_m.shp", {"xym"}),
                 ("shp/pointz_without_m.shp", {"xyz"}),
                 ("shp/testpointzm.shp", {"xyz", "xyzm"}),
                 ("shp/polygonm_with_m.shp", {"xym"}),
                 ("shp/multipointz_without_m.shp", {"xyz"}))
        for name, allowed in cases:
            path = f"{DATA}/{name}"
            if not os.path.exists(path):
                pytest.skip(f"{name} absent")
            t = SHP.read_shapefile_local(path)
            for g in t["geometry"]:
                if g.as_py() is None:
                    continue
                parsed = W.parse(g.as_py())
                assert parsed["dims"] in allowed, (name, parsed["dims"])


class TestDataset:
    def test_read_shapefile_dataset(self, ray_session):
        ds = SHP.read_shapefile([f"{DATA}/poly.shp"])
        rows = ds.take_all()
        assert len(rows) == 10
        assert {r["EAS_ID"] for r in rows} >= {168, 179, 158}


class TestWriter:
    """Shapefile writer: reference-fixture roundtrip + type coverage."""

    def test_poly_shp_roundtrip(self, tmp_path):
        from gdal_ray.shapefile import (
            read_shapefile_local,
            write_shapefile,
        )

        src = read_shapefile_local(
            "/root/reference/autotest/ogr/data/poly.shp")
        p = str(tmp_path / "rt.shp")
        write_shapefile(src, p)
        rt = read_shapefile_local(p)
        assert rt.num_rows == src.num_rows
        # geometry WKB bit-identical through the roundtrip
        assert src["geometry"].to_pylist() == rt["geometry"].to_pylist()
        assert src["EAS_ID"].to_pylist() == rt["EAS_ID"].to_pylist()
        import numpy as np

        np.testing.assert_allclose(
            [float(v) for v in rt["AREA"].to_pylist()],
            [float(v) for v in src["AREA"].to_pylist()], rtol=1e-9)

    def test_point_line_multipoint(self, tmp_path):
        import numpy as np
        import pyarrow as pa

        from gdal_ray.geom import wkb as W
        from gdal_ray.geom import wkt as WT
        from gdal_ray.shapefile import (
            read_shapefile_local,
            write_shapefile,
        )

        cases = {
            "pts.shp": [W.point_wkb(1.5, 2.5), W.point_wkb(-3.0, 4.0)],
            "lines.shp": [WT.from_wkt("LINESTRING (0 0, 1 1, 2 0)")],
            "mpts.shp": [WT.from_wkt("MULTIPOINT ((0 0), (5 5))")],
        }
        for fname, geoms in cases.items():
            t = pa.table({
                "fid": pa.array(range(len(geoms)), pa.int64()),
                "name": pa.array([f"f{i}" for i in range(len(geoms))]),
                "geometry": pa.array(geoms, pa.binary()),
            })
            p = str(tmp_path / fname)
            write_shapefile(t, p)
            rt = read_shapefile_local(p)
            assert rt.num_rows == len(geoms), fname
            assert rt["name"].to_pylist() == [f"f{i}" for i in
                                              range(len(geoms))]
            for a, b in zip(geoms, rt["geometry"].to_pylist()):
                ga, gb = WT.to_wkt(a), WT.to_wkt(b)
                # multipoint reads back as multipoint; point as point
                assert ga.split(" ")[0].rstrip("(") in gb or ga == gb, \
                    (ga, gb)

    def test_mixed_types_rejected(self, tmp_path):
        import pyarrow as pa
        import pytest as _pytest

        from gdal_ray.geom import wkb as W
        from gdal_ray.geom import wkt as WT
        from gdal_ray.shapefile import write_shapefile

        t = pa.table({"geometry": pa.array(
            [W.point_wkb(0, 0), WT.from_wkt("LINESTRING (0 0, 1 1)")],
            pa.binary())})
        with _pytest.raises(ValueError):
            write_shapefile(t, str(tmp_path / "x.shp"))
