"""SQLite / Spatialite vector driver — the reference's own
poly_spatialite fixtures (compressed polygon blobs, v3 text + v4
numeric geometry_columns), null-geometry handling, FDO 'WKB' layout,
blob codec roundtrips and the rowid-sharded Ray read path."""

import sqlite3
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from conftest import ref_path
from gdal_ray.geom import wkb as W
from gdal_ray.geom.wkt import from_wkt, to_wkt
from gdal_ray.spatialite import (
    feature_layers,
    read_sqlite,
    read_sqlite_local,
    spatialite_srid,
    spatialite_to_wkb,
    wkb_to_spatialite,
    write_sqlite,
)

SQL = "autotest/ogr/data/sqlite"
REPO = str(Path(__file__).resolve().parents[1])


class TestFixtures:
    def test_poly_spatialite_v3(self):
        t = read_sqlite_local(ref_path(f"{SQL}/poly_spatialite.sqlite"))
        assert t.num_rows == 10
        assert t.schema.metadata[b"crs"] == b"EPSG:32631"
        assert t.column("prfedea")[0].as_py() == "35043411"
        assert t.column("eas_id")[0].as_py() == 168.0
        # geometry ≈ the independent Shapefile reader's poly.shp
        # (compressed f32 deltas → mm-level tolerance)
        from gdal_ray.shapefile import read_shapefile_local

        s = read_shapefile_local(ref_path("autotest/ogr/data/poly.shp"))
        for i in range(10):
            a = W.parse(t.column("geometry")[i].as_py())
            b = W.parse(s.column("geometry")[i].as_py())
            assert a["type"] == W.POLYGON
            assert len(a["rings"]) == len(b["rings"])
            for x, y in zip(a["rings"], b["rings"]):
                assert np.allclose(x, y, atol=1e-3)
            # first/last vertices are stored uncompressed → exact
            assert np.array_equal(a["rings"][0][0], b["rings"][0][0])
            assert np.array_equal(a["rings"][0][-1], b["rings"][0][-1])

    def test_poly_spatialite_v4_numeric_metadata(self):
        t3 = read_sqlite_local(ref_path(f"{SQL}/poly_spatialite.sqlite"))
        t4 = read_sqlite_local(ref_path(f"{SQL}/poly_spatialite4.sqlite"))
        assert t4.num_rows == 10
        for i in range(10):
            assert (t4.column("geometry")[i].as_py()
                    == t3.column("geometry")[i].as_py())

    def test_first_geometry_null(self):
        t = read_sqlite_local(ref_path(f"{SQL}/first_geometry_null.db"))
        assert t.num_rows == 2
        assert t.column("geometry")[0].as_py() is None
        wkt = to_wkt(t.column("geometry")[1].as_py())
        assert wkt.startswith("MULTIPOLYGON")

    def test_layer_listing(self):
        assert feature_layers(ref_path(f"{SQL}/poly_spatialite.sqlite")) == ["poly"]


class TestBlobCodec:
    CASES = [
        "POINT (1.5 -2.25)",
        "LINESTRING (0 0, 1 1, 2 0.5)",
        "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 1))",
        "MULTIPOINT (0 0, 1 1)",
        "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
        "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))",
        "GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))",
        "POINT Z (1 2 3)",
        "LINESTRING Z (0 0 1, 1 1 2)",
    ]

    @pytest.mark.parametrize("wkt", CASES)
    def test_roundtrip(self, wkt):
        wkb = from_wkt(wkt)
        blob = wkb_to_spatialite(wkb, srid=4326)
        assert blob[0] == 0x00 and blob[-1] == 0xFE
        assert spatialite_srid(blob) == 4326
        assert spatialite_to_wkb(blob) == wkb

    def test_mbr_matches_bounds(self):
        import struct

        wkb = from_wkt("LINESTRING (1 2, 5 8, -3 4)")
        blob = wkb_to_spatialite(wkb, srid=0)
        mbr = struct.unpack_from("<4d", blob, 6)
        assert mbr == W.bounds(wkb)

    def test_compressed_decode(self):
        # synthesize a compressed linestring per gaiaCompress: first/
        # last absolute f64, intermediates f32 deltas
        import struct

        pts = np.array([[0.0, 0.0], [1.25, 2.5], [3.5, 1.0],
                        [10.0, 10.0]])
        body = struct.pack("<I", 1000002) + struct.pack("<I", 4)
        body += struct.pack("<2d", *pts[0])
        body += struct.pack("<2f", 1.25, 2.5)
        body += struct.pack("<2f", 2.25, -1.5)
        body += struct.pack("<2d", *pts[3])
        blob = (b"\x00\x01" + struct.pack("<I", 0)
                + struct.pack("<4d", 0, 0, 10, 10) + b"\x7C" + body
                + b"\xFE")
        g = W.parse(spatialite_to_wkb(blob))
        assert np.allclose(g["coords"], pts)


class TestWriter:
    def _table(self):
        return pa.table({
            "name": ["a", "b", "c"],
            "val": [1, 2, 3],
            "geometry": [from_wkt("POINT (1 2)"),
                         from_wkt("POLYGON ((0 0, 1 0, 1 1, 0 0))"),
                         None],
        })

    def test_spatialite_roundtrip(self, tmp_path):
        p = str(tmp_path / "t.sqlite")
        n = write_sqlite(self._table(), p, layer="lyr",
                         crs="EPSG:3857")
        assert n == 3
        t = read_sqlite_local(p)
        assert t.schema.metadata[b"crs"] == b"EPSG:3857"
        assert t.column("geometry")[0].as_py() == from_wkt("POINT (1 2)")
        assert t.column("geometry")[2].as_py() is None
        assert t.column("name").to_pylist() == ["a", "b", "c"]
        con = sqlite3.connect(p)
        assert con.execute("SELECT type FROM geometry_columns"
                           ).fetchone()[0] == "POINT"
        con.close()

    def test_fdo_wkb_roundtrip(self, tmp_path):
        p = str(tmp_path / "t.db")
        write_sqlite(self._table(), p, layer="lyr",
                     spatialite=False)
        con = sqlite3.connect(p)
        fmt = con.execute("SELECT geometry_format FROM "
                          "geometry_columns").fetchone()[0]
        con.close()
        assert fmt == "WKB"
        t = read_sqlite_local(p)
        assert t.column("geometry")[1].as_py() == from_wkt(
            "POLYGON ((0 0, 1 0, 1 1, 0 0))")

    def test_attribute_only_fallback(self, tmp_path):
        p = str(tmp_path / "plain.db")
        con = sqlite3.connect(p)
        con.execute("CREATE TABLE stuff (a INTEGER, b TEXT)")
        con.execute("INSERT INTO stuff VALUES (1, 'x')")
        con.commit()
        con.close()
        assert feature_layers(p) == ["stuff"]
        t = read_sqlite_local(p)
        assert t.to_pydict() == {"a": [1], "b": ["x"]}


class TestRayPath:
    def test_sharded_read(self):
        ds = read_sqlite(ref_path(f"{SQL}/poly_spatialite.sqlite"), shards=4)
        t = pa.concat_tables(
            ds.iter_batches(batch_format="pyarrow", batch_size=None))
        assert t.num_rows == 10
        ids = sorted(t.column("OGC_FID").to_pylist())
        assert ids == list(range(1, 11))

    def test_cli_convert(self, tmp_path):
        # .sqlite → .geojson through the CLI source dispatch
        import subprocess
        import sys

        out = str(tmp_path / "o.geojson")
        r = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "vector",
             "convert", ref_path(f"{SQL}/poly_spatialite.sqlite"), out],
            capture_output=True, text=True, cwd=REPO)
        assert r.returncode == 0, r.stderr[-2000:]
        import json

        gj = json.load(open(out))
        assert len(gj["features"]) == 10
