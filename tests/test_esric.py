"""Esri Compact Cache V2 / .tpkx driver — pinned to the reference's
own autotest fixtures (gdrivers/esric.py): Layers.tar conf.xml and
Usa.tpkx band/overview checksums."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.esric import read_esric, read_esric_tiles

TAR = ("/vsitar//root/reference/autotest/gdrivers/data/esric/"
       "Layers.tar/Layers/conf.xml")
TPKX = "/root/reference/autotest/gdrivers/data/esric/Usa.tpkx"


class TestConfXML:
    def test_geometry(self):
        d = read_esric(TAR, level=0)
        assert d["bands"][0].shape == (2048, 2048)
        assert len(d["bands"]) == 4
        assert d["crs"] == "EPSG:3857"
        gt = d["geotransform"]
        assert gt[0] == pytest.approx(-20037508, abs=1)
        assert gt[1] == pytest.approx(20037508 / 1024, abs=1)
        assert gt[3] == pytest.approx(20037508, abs=1)
        assert gt[5] == pytest.approx(-20037508 / 1024, abs=1)
        assert d["levels"] == 4

    def test_missing_level_black(self):
        # no bundle at full resolution → checksum 0 (esric.py test 3)
        d = read_esric(TAR, level=0)
        assert checksum_array(d["bands"][0]) == 0

    def test_png_level_checksum(self):
        # four PNG tiles (one grayscale) at L01 → 46857 (test 4)
        d = read_esric(TAR, level=2)
        assert d["bands"][0].shape == (512, 512)
        assert checksum_array(d["bands"][1]) == 46857


class TestTpkx:
    def test_geometry(self):
        d = read_esric(TPKX, level=0)
        assert d["bands"][0].shape == (8192, 8192)
        assert d["crs"] == "EPSG:3857"
        gt = d["geotransform"]
        assert gt[1] == pytest.approx(20037508 / 4096, abs=1)
        assert d["levels"] == 6

    def test_band_checksums(self):
        # autotest test_tpkx_3 full-resolution band checksums
        d = read_esric(TPKX, level=0)
        for b, want in zip(d["bands"], (61275, 57672, 61542, 19476)):
            assert checksum_array(b) == want

    def test_overview_checksum(self):
        # autotest test_tpkx_4: overview 1 (L03) band 2 → 53503
        d = read_esric(TPKX, level=2)
        assert d["bands"][0].shape == (2048, 2048)
        assert checksum_array(d["bands"][1]) == 53503

    def test_dispatch(self):
        from gdal_ray.drivers import load_raster

        assert load_raster(TPKX)["bands"][0].shape == (8192, 8192)


class TestTileDataset:
    def test_ray_tiles(self):
        ds = read_esric_tiles(TPKX, level=0)
        import pyarrow as pa

        t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow",
                                             batch_size=None))
        assert t.num_rows == 99
        assert t.column("data")[0].as_py()[:4] == b"\x89PNG"
