"""Pipeline CLI tests (spec parsing + execution + real subprocess)."""

import subprocess
import sys

import pytest

from conftest import ref_path
from gdal_ray import cli


def test_where_predicate_parsing():
    import pyarrow as pa

    p = cli._where_predicate("l_quantity > 45")
    t = pa.table({"l_quantity": [44.0, 46.0]})
    assert p(t).to_pylist() == [False, True]
    p2 = cli._where_predicate("name = 'foo'")
    t2 = pa.table({"name": ["foo", "bar"]})
    assert p2(t2).to_pylist() == [True, False]
    with pytest.raises(ValueError):
        cli._where_predicate("l_quantity BETWEEN 1 AND 2")


def test_formats_lists_every_driver_row(capsys):
    from gdal_ray.drivers import DRIVERS

    assert cli.main(["formats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(DRIVERS)
    for d, line in zip(DRIVERS, lines):
        name, roles, suffixes, prefixes = line.split("\t")
        assert name == d.name
        assert roles.split(",") == [
            r for r in ("raster", "vector", "write") if getattr(d, r)
        ]
        assert suffixes.split() == (list(d.suffixes) or ["-"])
        assert prefixes.split() == (list(d.prefixes) or ["-"])
    assert "RS2\traster\tproduct.xml\tRADARSAT_2_CALIB:" in lines
    assert "Parquet\tvector,write\t-\t-" in lines


def test_unknown_step():
    with pytest.raises(ValueError):
        cli.build_pipeline("read /x.parquet ! frobnicate")
    with pytest.raises(ValueError):
        cli.build_pipeline("filter --where 'a > 1'")  # must start with read


def test_run_pipeline_chain(ray_session, sf_small):
    n, kind = cli.run_pipeline(
        f"read {sf_small}/lineitem.parquet --cols l_orderkey,l_quantity "
        "! filter --where 'l_quantity > 45' ! count"
    )
    assert kind == "count"
    import duckdb

    expected = duckdb.sql(
        f"SELECT COUNT(*) FROM read_parquet('{sf_small}/lineitem.parquet') "
        "WHERE l_quantity > 45"
    ).fetchone()[0]
    assert n == expected


def test_dedup_steps(ray_session, sf_small):
    # both dedup pair routes through the `!` pipeline protocol agree
    # on the corpus's high-similarity pairs
    ds, kind = cli.run_pipeline(
        f"read {sf_small}/documents.parquet --cols doc_id,text "
        "! near-dups --threshold 0.8"
    )
    lsh = set(map(tuple, ds.to_pandas()[["a", "b"]].to_numpy()))
    ds2, _ = cli.run_pipeline(
        f"read {sf_small}/documents.parquet --cols doc_id,text "
        "! jaccard-ngram --threshold 0.8"
    )
    exact = set(map(tuple, ds2.to_pandas()[["a", "b"]].to_numpy()))
    assert lsh == exact and kind == "collect"


def test_geoparse_tile_steps(ray_session, sf_small, tmp_path):
    # pages fixture through geoparse + tile-encode + pip-join steps
    import pyarrow.parquet as pq

    from gdal_ray import fixtures

    p = tmp_path / "pages.parquet"
    pq.write_table(fixtures.gen_pages(200), str(p))
    ds, kind = cli.run_pipeline(
        f"read {p} ! geoparse ! tile-encode --zooms 7 ! pip-join"
    )
    df = ds.to_pandas()
    assert "tile_z7_x" in df.columns and "admin_id" in df.columns
    assert len(df) > 0


def test_cli_subprocess(sf_small):
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "gdal_ray.cli",
            "vector",
            "pipeline",
            f"read {sf_small}/region.parquet ! count",
        ],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        timeout=180,
    )
    assert out.returncode == 0, out.stderr[-500:]
    assert out.stdout.strip().splitlines()[-1] == "5"


def test_sql_step(ray_session, tmp_path):
    """`... ! sql statement='SELECT ...'` runs the OGR SQL dialect
    over the piped dataset (table name: input)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {"a": pa.array([1, 2, 3, 4], pa.int64()),
         "b": pa.array([10.0, 20.0, 30.0, 40.0])}
    )
    p = tmp_path / "t.parquet"
    pq.write_table(t, p)
    out, kind = cli.run_pipeline(
        f"read {p} ! sql --statement 'SELECT a, b * 2.0 AS b2 FROM input "
        f"WHERE a >= 2 ORDER BY a DESC LIMIT 2'"
    )
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    assert df["a"].tolist() == [4, 3]
    assert df["b2"].tolist() == [80.0, 60.0]


class TestDemCLI:
    """gdaldem-role CLI (raster dem MODE src dst)."""

    def _dem(self, tmp_path):
        import numpy as np

        from gdal_ray.raster.gtiff import write_geotiff

        y, x = np.mgrid[0:32, 0:32]
        dem = (x * 2.0 + y * 1.0).astype(np.float32)
        p = str(tmp_path / "dem.tif")
        write_geotiff(p, [dem], crs="EPSG:32633",
                      geotransform=(0.0, 10.0, 0.0, 0.0, 0.0, -10.0))
        return p, dem

    def _run(self, *args):
        import subprocess
        import sys

        return subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", *args],
            capture_output=True,
            env={"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin"},
        )

    def test_slope_plane(self, tmp_path):
        import numpy as np

        from gdal_ray.raster.gtiff import decode_geotiff

        p, dem = self._dem(tmp_path)
        out = str(tmp_path / "slope.tif")
        r = self._run("raster", "dem", "slope", p, out)
        assert r.returncode == 0, r.stderr
        g = decode_geotiff(open(out, "rb").read())
        # plane dz/dx=2/10, dz/dy=1/10 -> slope = atan(sqrt(.04+.01))
        want = np.degrees(np.arctan(np.sqrt(0.05)))
        inner = g["bands"][0][1:-1, 1:-1]
        np.testing.assert_allclose(inner, want, rtol=1e-6)

    def test_color_relief(self, tmp_path):
        import numpy as np

        from gdal_ray.raster.gtiff import decode_geotiff

        p, dem = self._dem(tmp_path)
        ct = tmp_path / "ramp.txt"
        ct.write_text("0 0 0 255\n100 255 0 0\n# comment\nnv 0 0 0\n")
        out = str(tmp_path / "cr.tif")
        r = self._run("raster", "dem", "color-relief", p, out,
                      "--color-text", str(ct))
        assert r.returncode == 0, r.stderr
        g = decode_geotiff(open(out, "rb").read())
        assert len(g["bands"]) == 3
        # value 50 -> halfway: r=128 (rint(127.5) banker's -> 128)
        v = dem
        mask = v == 50.0
        assert mask.any()
        red = g["bands"][0]
        np.testing.assert_allclose(red[mask], 128, atol=1)

    def test_hillshade_byte_range(self, tmp_path):
        from gdal_ray.raster.gtiff import decode_geotiff

        p, _ = self._dem(tmp_path)
        out = str(tmp_path / "hs.tif")
        r = self._run("raster", "dem", "hillshade", p, out,
                      "--zfactor", "2.0")
        assert r.returncode == 0, r.stderr
        g = decode_geotiff(open(out, "rb").read())
        b = g["bands"][0]
        assert b.min() >= 1 and b.max() <= 255


class TestJobEntry:
    """ray-job-submit entrypoint (job_entry.py): end-to-end run +
    resume skip via the lineage manifest."""

    def test_run_and_resume(self, tmp_path):
        import json
        import subprocess
        import sys

        out = str(tmp_path / "job")
        env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin",
               "HOME": "/tmp"}
        cmd = [sys.executable, "/root/repo/job_entry.py",
               "--input", "/root/testdata/sf0.001",
               "--output", out, "--num-cpus", "4"]
        r1 = subprocess.run(cmd, capture_output=True, env=env)
        assert r1.returncode == 0, r1.stderr[-2000:]
        s1 = json.loads(r1.stdout.decode().strip().splitlines()[-1])
        assert s1["rows"] == 500 and s1["partitions"] > 0
        assert s1["skipped"] == 0
        assert s1["rows_per_s"] == pytest.approx(
            s1["rows"] / s1["wall_s"], rel=0.05, abs=1.0)
        # resume: same manifest, nothing recomputed, same totals
        r2 = subprocess.run(cmd, capture_output=True, env=env)
        assert r2.returncode == 0, r2.stderr[-2000:]
        s2 = json.loads(r2.stdout.decode().strip().splitlines()[-1])
        assert s2["rows"] == s1["rows"]
        assert s2["partitions"] == s1["partitions"]
        assert s2["skipped"] == s2["partitions"]


class TestContourCLI:
    def test_radial_bowl_contours(self, tmp_path):
        import json
        import subprocess
        import sys

        import numpy as np

        from gdal_ray.raster.gtiff import write_geotiff

        y, x = np.mgrid[0:32, 0:32]
        dem = ((x - 16.0) ** 2 + (y - 16.0) ** 2).astype(np.float32)
        p = str(tmp_path / "bowl.tif")
        write_geotiff(p, [dem], crs="EPSG:32633",
                      geotransform=(100.0, 2.0, 0.0, 500.0, 0.0, -2.0))
        out = str(tmp_path / "c.geojson")
        r = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "raster", "contour",
             p, out, "--levels", "64,144"],
            capture_output=True,
            env={"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin"})
        assert r.returncode == 0, r.stderr
        gj = json.load(open(out))
        assert len(gj["features"]) == 2  # one closed ring per level
        for f in gj["features"]:
            coords = np.array(f["geometry"]["coordinates"])
            # closed ring
            assert (coords[0] == coords[-1]).all()
            # radius in world units: level 64 -> r=8 px -> 16 m
            r_px = np.sqrt(f["properties"]["elev"])
            cx, cy = 100.0 + (16 + 0.5) * 2.0, 500.0 - (16 + 0.5) * 2.0
            d = np.sqrt((coords[:, 0] - cx) ** 2 + (coords[:, 1] - cy) ** 2)
            np.testing.assert_allclose(d, 2.0 * r_px, rtol=0.05)


class TestVectorConvert:
    """ogr2ogr-role format conversion."""

    def _run(self, *args):
        import subprocess
        import sys

        return subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", *args],
            capture_output=True,
            env={"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin",
                 "HOME": "/tmp"})

    def test_osm_to_fgb_to_geojson(self, tmp_path, ray_session):
        import json

        fgb = str(tmp_path / "pts.fgb")
        r = self._run("vector", "convert",
                      ref_path("autotest/ogr/data/osm/test.pbf"),
                      fgb, "--layer", "points")
        assert r.returncode == 0, r.stderr[-1500:]
        gj = str(tmp_path / "pts.geojson")
        r2 = self._run("vector", "convert", fgb, gj)
        assert r2.returncode == 0, r2.stderr[-1500:]
        fc = json.load(open(gj))
        assert len(fc["features"]) == 1
        f = fc["features"][0]
        assert f["properties"]["name"] == "Some interesting point"
        assert f["geometry"]["coordinates"] == [3.0, 49.5]


class TestPolygonizeCLI:
    def test_quadrants(self, tmp_path):
        import json
        import subprocess
        import sys

        import numpy as np

        from gdal_ray.raster.gtiff import write_geotiff

        arr = np.zeros((16, 16), dtype=np.uint8)
        arr[:8, 8:] = 1
        arr[8:, :8] = 2
        arr[8:, 8:] = 3
        p = str(tmp_path / "q.tif")
        write_geotiff(p, [arr], crs="EPSG:4326",
                      geotransform=(0.0, 1.0, 0.0, 16.0, 0.0, -1.0))
        out = str(tmp_path / "q.geojson")
        r = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "raster",
             "polygonize", p, out],
            capture_output=True,
            env={"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin"})
        assert r.returncode == 0, r.stderr
        gj = json.load(open(out))
        assert len(gj["features"]) == 4
        dns = sorted(f["properties"]["DN"] for f in gj["features"])
        assert dns == [0.0, 1.0, 2.0, 3.0]
        for f in gj["features"]:
            assert f["properties"]["pixel_count"] == 64
            # ring coordinates are in world (gt-applied) space
            ys = [pt[1] for pt in f["geometry"]["coordinates"][0]]
            assert 0.0 <= min(ys) and max(ys) <= 16.0


class TestCalcCLI:
    def test_band_algebra(self, tmp_path):
        import subprocess
        import sys

        import numpy as np

        from gdal_ray.raster.gtiff import decode_geotiff, write_geotiff

        a = np.arange(64, dtype=np.float32).reshape(8, 8)
        b = np.full((8, 8), 10.0, dtype=np.float32)
        pa_ = str(tmp_path / "a.tif")
        pb = str(tmp_path / "b.tif")
        gt = (0.0, 1.0, 0.0, 0.0, 0.0, -1.0)
        write_geotiff(pa_, [a], crs="EPSG:4326", geotransform=gt)
        write_geotiff(pb, [b], crs="EPSG:4326", geotransform=gt)
        out = str(tmp_path / "o.tif")
        env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin"}
        r = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "raster", "calc",
             "A*2 + B", out, "-A", pa_, "-B", pb],
            capture_output=True, env=env)
        assert r.returncode == 0, r.stderr
        g = decode_geotiff(open(out, "rb").read())
        np.testing.assert_allclose(g["bands"][0], a * 2.0 + 10.0)

    def test_expression_safety(self, tmp_path):
        import subprocess
        import sys

        import numpy as np

        from gdal_ray.raster.gtiff import write_geotiff

        p = str(tmp_path / "x.tif")
        write_geotiff(p, [np.ones((4, 4), np.uint8)], crs="EPSG:4326")
        r = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "raster", "calc",
             "().__class__", str(tmp_path / "o.tif"), "-A", p],
            capture_output=True,
            env={"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin"})
        assert r.returncode != 0  # AST validation rejects the escape


class TestRasterizeProximityCLI:
    def _run(self, *args):
        import subprocess
        import sys

        return subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", *args],
            capture_output=True,
            env={"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin",
                 "HOME": "/tmp"})

    def test_rasterize_geojson_square(self, tmp_path):
        import json

        import numpy as np

        from gdal_ray.raster.gtiff import decode_geotiff

        gj = {
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "properties": {"v": 7},
                "geometry": {"type": "Polygon", "coordinates": [[
                    [2, 2], [6, 2], [6, 6], [2, 6], [2, 2]]]},
            }],
        }
        src = tmp_path / "sq.geojson"
        src.write_text(json.dumps(gj))
        out = str(tmp_path / "r.tif")
        r = self._run("raster", "rasterize", str(src), out,
                      "--size", "8", "8",
                      "--extent", "0", "0", "8", "8", "--attr", "v")
        assert r.returncode == 0, r.stderr[-1500:]
        g = decode_geotiff(open(out, "rb").read())
        a = g["bands"][0]
        assert a[4, 4] == 7.0   # pixel center (4.5, 3.5) world in box
        assert a[0, 0] == 0.0
        # burned pixel count = 4x4 interior centers
        assert (a == 7.0).sum() == 16

    def test_proximity_distances(self, tmp_path):
        import numpy as np

        from gdal_ray.raster.gtiff import decode_geotiff, write_geotiff

        arr = np.zeros((9, 9), dtype=np.uint8)
        arr[4, 4] = 1
        p = str(tmp_path / "t.tif")
        write_geotiff(p, [arr], crs="EPSG:32633",
                      geotransform=(0.0, 10.0, 0.0, 0.0, 0.0, -10.0))
        out = str(tmp_path / "d.tif")
        r = self._run("raster", "proximity", p, out, "--georef")
        assert r.returncode == 0, r.stderr[-1500:]
        d = decode_geotiff(open(out, "rb").read())["bands"][0]
        assert d[4, 4] == 0.0
        assert abs(d[4, 0] - 40.0) < 1e-6     # 4 px * 10 m
        assert abs(d[0, 0] - np.sqrt(32) * 10.0) < 1e-4


class TestTileCLI:
    def test_pyramid_to_pmtiles_and_tree(self, tmp_path):
        import os
        import subprocess
        import sys

        import numpy as np

        from gdal_ray.raster.gtiff import write_geotiff

        M = 20037508.342789244
        src = np.linspace(0, 100, 512 * 512,
                          dtype=np.float32).reshape(512, 512)
        gt = (-M, 2 * M / 512, 0.0, M, 0.0, -2 * M / 512)
        p = str(tmp_path / "world.tif")
        write_geotiff(p, [src], crs="EPSG:3857", geotransform=gt)
        env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin",
               "HOME": "/tmp"}

        pm = str(tmp_path / "w.pmtiles")
        r = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "raster", "tile",
             p, pm, "--zmin", "0", "--zmax", "1"],
            capture_output=True, env=env)
        assert r.returncode == 0, r.stderr[-1500:]
        from gdal_ray.pmtiles import PMTilesReader

        reader = PMTilesReader(pm)
        assert reader.header["n_addressed"] == 5
        assert reader.get_tile(0, 0, 0) is not None

        tree = str(tmp_path / "tree")
        r2 = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "raster", "tile",
             p, tree, "--zmin", "0", "--zmax", "1"],
            capture_output=True, env=env)
        assert r2.returncode == 0, r2.stderr[-1500:]
        assert os.path.exists(os.path.join(tree, "0", "0", "0.png"))
        assert os.path.exists(os.path.join(tree, "1", "1", "1.png"))
