"""OSM PBF driver (gdal_ray/osmpbf.py): feature-for-feature parity
with the reference OSM driver on its own fixtures
(autotest/ogr/data/osm/*, expectations from autotest/ogr/ogr_osm.py
test_ogr_osm_1), plus the blob-sharded Ray elements reader and the
distributed way-assembly join."""

import numpy as np
import pytest

from gdal_ray.geom import wkt as WT
from gdal_ray.osmpbf import (
    osm_layers,
    parse_osm_pbf,
    read_osm_elements,
    scan_blob_ranges,
)

FIX = "/root/reference/autotest/ogr/data/osm"


def _wkt(row):
    return WT.to_wkt(row["geometry"])


@pytest.mark.parametrize("fname", [
    "test.pbf",
    "test_uncompressed_dense_true_nometadata.pbf",
    "test_uncompressed_dense_false.pbf",
    "test.osm",  # the XML sibling (autotest test_ogr_osm_2)
])
class TestOgrOsm1Parity:
    """The autotest test_ogr_osm_1 pins, on all three encodings
    (zlib dense / uncompressed dense / uncompressed non-dense)."""

    def test_points(self, fname):
        L = osm_layers(f"{FIX}/{fname}")
        pts = L["points"].to_pylist()
        assert len(pts) == 1
        f = pts[0]
        assert f["osm_id"] == "3"
        assert f["name"] == "Some interesting point"
        assert f["other_tags"] == '"foo"=>"bar","bar"=>"baz"'
        assert _wkt(f) == "POINT (3 49.5)"

    def test_lines(self, fname):
        L = osm_layers(f"{FIX}/{fname}")
        lines = L["lines"].to_pylist()
        assert [f["osm_id"] for f in lines] == ["1", "6"]
        f = lines[0]
        assert f["highway"] == "motorway"
        assert f["z_order"] == 9
        assert f["other_tags"] == '"foo"=>"bar"'
        assert _wkt(f) == "LINESTRING (2 49, 3 50)"
        assert _wkt(lines[1]) == "LINESTRING (2 49, 3 49, 3 50, 2 50, 2 49)"

    def test_multipolygons(self, fname):
        L = osm_layers(f"{FIX}/{fname}")
        mp = L["multipolygons"].to_pylist()
        assert len(mp) == 3
        assert mp[0]["osm_id"] == "1"
        assert mp[0]["type"] == "multipolygon"
        assert mp[0]["natural"] == "forest"
        assert _wkt(mp[0]) == (
            "MULTIPOLYGON (((2 49, 3 49, 3 50, 2 50, 2 49), "
            "(2.1 49.1, 2.2 49.1, 2.2 49.2, 2.1 49.2, 2.1 49.1)))"
        )
        # old-style tag inheritance from the outer way
        assert mp[1]["osm_id"] == "5"
        assert mp[1]["natural"] == "wood"
        # closed tagged way reported standalone under osm_way_id
        assert mp[2]["osm_way_id"] == "8"
        assert mp[2]["name"] == "standalone_polygon"
        # relation 2 (member way missing) must NOT be reported
        assert all(f["osm_id"] != "2" for f in mp)

    def test_multilinestrings_and_other(self, fname):
        L = osm_layers(f"{FIX}/{fname}")
        mls = L["multilinestrings"].to_pylist()
        assert len(mls) == 1
        assert mls[0]["osm_id"] == "3" and mls[0]["type"] == "route"
        assert _wkt(mls[0]) == "MULTILINESTRING ((2 49, 3 50))"
        other = L["other_relations"].to_pylist()
        assert len(other) == 1
        assert other[0]["osm_id"] == "4"
        assert other[0]["type"] == "other_type"
        assert _wkt(other[0]) == (
            "GEOMETRYCOLLECTION (POINT (2 49), LINESTRING (2 49, 3 50))"
        )


class TestWire:
    def test_blob_scan(self):
        rs = scan_blob_ranges(f"{FIX}/test.pbf")
        assert rs[0]["type"] == "OSMHeader"
        assert all(r["type"] in ("OSMHeader", "OSMData") for r in rs)

    def test_two_points(self):
        el = parse_osm_pbf(f"{FIX}/two_points.pbf")
        assert len(el["nodes"]) == 2

    def test_element_counts(self):
        el = parse_osm_pbf(f"{FIX}/test.pbf")
        assert (len(el["nodes"]), len(el["ways"]),
                len(el["relations"])) == (9, 8, 5)
        # dense coords decode: node 3 at (3, 49.5)
        n3 = next(n for n in el["nodes"] if n[0] == 3)
        assert (n3[1], n3[2]) == (3.0, 49.5)


class TestRayPaths:
    def test_elements_dataset(self, ray_session):
        ds = read_osm_elements(f"{FIX}/test.pbf")
        df = ds.to_pandas()
        assert (df["kind"] == 0).sum() == 9
        assert (df["kind"] == 1).sum() == 8
        assert (df["kind"] == 2).sum() == 5
        w1 = df[(df["kind"] == 1) & (df["id"] == 1)].iloc[0]
        assert list(w1["refs"]) == [1, 2]

    def test_distributed_way_assembly(self, ray_session):
        from gdal_ray.osmpbf import assemble_way_lines

        ds = read_osm_elements(f"{FIX}/test.pbf")
        out = assemble_way_lines(ds).to_pandas()
        got = {int(r["osm_id"]): WT.to_wkt(r["geometry"])
               for _, r in out.iterrows()}
        assert got[1] == "LINESTRING (2 49, 3 50)"
        # way 6 has one unresolvable ref (900) — skipped, order kept
        assert got[6] == "LINESTRING (2 49, 3 49, 3 50, 2 50, 2 49)"


class TestSyntheticAssembly:
    """The distributed way assembly equals the single-process layer
    builder on a file written by ``write_osm_pbf`` (no reference
    fixtures needed)."""

    def test_assembly_matches_osm_layers(self, ray_session, tmp_path):
        from gdal_ray.geom import wkb as gwkb
        from gdal_ray.osmpbf import (
            assemble_way_geometries,
            assemble_way_lines,
            write_osm_pbf,
        )

        nodes = [(i, 2.0 + 0.5 * (i % 3), 49.0 + 0.25 * i, [], [])
                 for i in range(1, 9)]
        ways = [
            (10, [1, 2, 3], ["highway"], ["residential"]),
            # closed + area=yes: a polygon
            (11, [4, 5, 6, 7, 4], ["area", "name"], ["yes", "plaza"]),
            # ref 900 is absent from the file: skipped, order kept
            (12, [2, 900, 3, 8], ["highway"], ["track"]),
            # closed but not an area way: stays a line
            (13, [5, 6, 7, 5], ["highway"], ["service"]),
        ]
        p = str(tmp_path / "synthetic.osm.pbf")
        write_osm_pbf(p, {"nodes": nodes, "ways": ways, "relations": []},
                      elements_per_blob=3)

        layers = osm_layers(p)
        want_lines = {int(r["osm_id"]): r["geometry"]
                      for r in layers["lines"].to_pylist()}
        want_polys = {int(r["osm_way_id"]): r["geometry"]
                      for r in layers["multipolygons"].to_pylist()
                      if r["osm_way_id"] is not None}
        assert set(want_lines) == {10, 12, 13}
        assert set(want_polys) == {11}

        ds = read_osm_elements(p)
        lines = {int(r["osm_id"]): r["geometry"]
                 for r in assemble_way_lines(ds).to_pandas()
                 .to_dict("records")}
        geoms = {int(r["osm_id"]): (bool(r["is_polygon"]), r["geometry"])
                 for r in assemble_way_geometries(ds).to_pandas()
                 .to_dict("records")}
        assert set(lines) == set(geoms) == {10, 11, 12, 13}
        for wid, wkb in want_lines.items():
            assert lines[wid] == wkb
            assert geoms[wid] == (False, wkb)
        (ring,) = gwkb.polygon_rings(want_polys[11])
        assert geoms[11][0] is True
        (got,) = gwkb.polygon_rings(geoms[11][1])
        assert np.array_equal(got, ring)
        assert np.array_equal(gwkb.parse(lines[11])["coords"], ring)


class TestCLI:
    def test_pipeline_read_osm_layer(self, tmp_path):
        import glob
        import subprocess
        import sys

        import pyarrow.parquet as pq

        out = str(tmp_path / "lines.parquet")
        spec = (f"read {FIX}/test.pbf --layer lines ! "
                "select --cols osm_id,highway,z_order ! "
                f"write {out}")
        r = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "vector",
             "pipeline", spec],
            capture_output=True,
            env={"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin",
                 "HOME": "/tmp"})
        assert r.returncode == 0, r.stderr[-1500:]
        rows = pq.read_table(glob.glob(out + "/*")[0]).to_pylist()
        assert rows == [
            {"osm_id": "1", "highway": "motorway", "z_order": 9},
            {"osm_id": "6", "highway": None, "z_order": 0},
        ]


class TestWriter:
    @pytest.mark.parametrize("compress", [True, False])
    def test_roundtrip(self, tmp_path, compress):
        from gdal_ray.osmpbf import write_osm_pbf

        el = parse_osm_pbf(f"{FIX}/test.pbf")
        p = str(tmp_path / "rt.osm.pbf")
        write_osm_pbf(p, el, compress=compress)
        assert parse_osm_pbf(p) == el
        # layer builder sees identical features through the roundtrip
        a, b = osm_layers(f"{FIX}/test.pbf"), osm_layers(p)
        for k in a:
            assert a[k].equals(b[k]), k

    def test_multi_blob_chunking(self, tmp_path, ray_session):
        from gdal_ray.osmpbf import write_osm_pbf

        el = parse_osm_pbf(f"{FIX}/test.pbf")
        p = str(tmp_path / "chunked.osm.pbf")
        write_osm_pbf(p, el, elements_per_blob=5)  # 22 elements -> 5 blobs
        rs = [r for r in scan_blob_ranges(p) if r["type"] == "OSMData"]
        assert len(rs) == 5
        assert parse_osm_pbf(p) == el
        # the sharded Ray reader sees the same elements across blobs
        df = read_osm_elements(p).to_pandas()
        assert len(df) == 22


class TestScale:
    @pytest.mark.skipif(
        __import__("os").environ.get("GDAL_RAY_SLOW") != "1",
        reason="synthetic planet shard; set GDAL_RAY_SLOW=1",
    )
    def test_planet_shard_sharded_read(self, ray_session, tmp_path):
        """200k-node synthetic shard: the writer chunks into ~25
        blobs and the sharded reader decodes them in parallel with
        counts identical to the single-process parse."""
        import time

        from gdal_ray.osmpbf import write_osm_pbf

        n = 200_000
        rng = np.random.default_rng(11)
        lon = rng.uniform(-180, 180, n)
        lat = rng.uniform(-85, 85, n)
        nodes = [(i + 1, float(lon[i]), float(lat[i]),
                  (["highway"] if i % 100 == 0 else []),
                  (["bus_stop"] if i % 100 == 0 else []))
                 for i in range(n)]
        ways = [(w + 1, list(range(w * 10 + 1, w * 10 + 6)),
                 ["highway"], ["residential"]) for w in range(5000)]
        p = str(tmp_path / "shard.osm.pbf")
        write_osm_pbf(p, {"nodes": nodes, "ways": ways,
                          "relations": []})
        blobs = [r for r in scan_blob_ranges(p)
                 if r["type"] == "OSMData"]
        assert len(blobs) >= 20  # genuinely sharded
        t0 = time.time()
        df = read_osm_elements(p).to_pandas()
        wall = time.time() - t0
        assert (df["kind"] == 0).sum() == n
        assert (df["kind"] == 1).sum() == 5000
        el = parse_osm_pbf(p)
        assert len(el["nodes"]) == n and len(el["ways"]) == 5000
        print(f"planet shard: {len(blobs)} blobs, {wall:.1f}s sharded")

    def test_distributed_geometry_assembly(self, ray_session):
        from gdal_ray.osmpbf import assemble_way_geometries

        ds = read_osm_elements(f"{FIX}/test.pbf")
        out = assemble_way_geometries(ds).to_pandas()
        got = {int(r["osm_id"]): (bool(r["is_polygon"]),
                                  WT.to_wkt(r["geometry"]))
               for _, r in out.iterrows()}
        # way 1 is a plain line
        assert got[1] == (False, "LINESTRING (2 49, 3 50)")
        # way 8 (closed + area=yes) becomes a polygon — identical ring
        # to the layer builder's standalone polygon
        assert got[8][0] is True
        assert got[8][1] == \
            "POLYGON ((2 49, 3 49, 3 50, 2 50, 2 49))"
        # way 6 closed but NOT an area way -> stays a line
        assert got[6][0] is False
