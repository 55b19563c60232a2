"""CTG (USGS LULC grid) and SIGDEM tests pinned to the reference
autotest expectations (gdrivers/ctg.py, gdrivers/sigdem.py)."""

import numpy as np

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.ctg import read_ctg
from gdal_ray.raster.sigdem import decode_sigdem, encode_sigdem

CTG = "/root/reference/autotest/gdrivers/data/ctg/fake_grid_cell"
BYTE = "/root/reference/autotest/gcore/data/byte.tif"


class TestCTG:
    def test_fake_grid_cell(self):
        d = read_ctg(CTG)
        assert checksum_array(d["bands"][0]) == 21
        assert d["geotransform"] == (
            421000.0, 200.0, 0.0, 5094400.0, 0.0, -200.0)
        assert d["crs"] == "EPSG:32614"
        assert d["nodata"] == 0
        assert len(d["bands"]) == 6
        # band 1 carries LULC category names, the others none
        assert d["category_names"][1]
        assert 2 not in d["category_names"]
        assert d["category_names"][1][52] == "Lakes"

    def test_dispatch(self):
        from gdal_ray.drivers import load_raster

        d = load_raster(CTG)
        assert checksum_array(d["bands"][0]) == 21


class TestSIGDEM:
    def test_byte_roundtrip(self):
        from gdal_ray.raster.gtiff import decode_geotiff

        src = decode_geotiff(open(BYTE, "rb").read())
        blob = encode_sigdem(src["bands"][0], src["geotransform"],
                             crs="EPSG:26711")
        back = decode_sigdem(blob)
        assert checksum_array(back["bands"][0]) == 4672
        np.testing.assert_allclose(back["geotransform"],
                                   src["geotransform"])
        assert back["crs"] == "EPSG:26711"

    def test_header_fields(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4) / 8.0
        gt = (100.0, 10.0, 0.0, 230.0, 0.0, -10.0)
        back = decode_sigdem(encode_sigdem(arr, gt))
        # scale factor 1000 → millimetre quantization
        np.testing.assert_allclose(back["bands"][0], arr, atol=5e-4)
        assert back["geotransform"] == gt

    def test_nodata_sentinel(self):
        arr = np.array([[1.5, -9999.0]])
        gt = (0.0, 1.0, 0.0, 1.0, 0.0, -1.0)
        back = decode_sigdem(encode_sigdem(arr, gt, nodata=-9999.0))
        assert back["bands"][0][0, 1] == -9999.0
        assert back["bands"][0][0, 0] == 1.5
