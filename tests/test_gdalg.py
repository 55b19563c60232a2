"""gdalg saved streamed pipelines (.gdalg.json, frmts/gdalg role):
the reference's own fixtures re-enter the engine's pipeline compiler
with paths rebased on the document location."""

from pathlib import Path

import pytest

from conftest import ref_path
from gdal_ray.cli import gdalg_raster, parse_gdalg, run_gdalg_source
from gdal_ray.raster.checksum import checksum_array

G = "autotest/gdrivers/data/gdalg"


class TestGdalg:
    def test_parse(self):
        kind, spec = parse_gdalg(ref_path(f"{G}/read_byte.gdalg.json"))
        assert kind == "raster"
        assert spec.startswith("read ")
        assert spec.endswith("byte.tif")

    def test_vector_pipeline(self):
        ds = run_gdalg_source(ref_path(f"{G}/read_poly.gdalg.json"))
        assert ds.count() == 10

    def test_raster_pipeline(self):
        d = gdalg_raster(ref_path(f"{G}/read_byte.gdalg.json"))
        assert checksum_array(d["bands"][0]) == 4672

    def test_vector_dispatch(self, tmp_path):
        # .gdalg.json flows through resolve_vector_source / convert
        import subprocess
        import sys

        out = str(tmp_path / "gdalg_out.geojson")
        r = subprocess.run(
            [sys.executable, "-m", "gdal_ray.cli", "vector",
             "convert", ref_path(f"{G}/read_poly.gdalg.json"), out],
            capture_output=True, text=True,
            cwd=Path(__file__).resolve().parents[1])
        assert r.returncode == 0, r.stderr[-1500:]
        import json

        assert len(json.load(open(out))["features"]) == 10

    def test_guards(self, tmp_path):
        p = tmp_path / "bad.gdalg.json"
        p.write_text('{"type": "other"}')
        with pytest.raises(ValueError):
            parse_gdalg(str(p))
