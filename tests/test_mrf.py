"""NASA MRF reader — the reference's own fixtures (data/mrf/*) in
every non-LERC compression; NONE/DEFLATE/PNG/TIF decode to the
byte.tif checksum 4672 exactly, JPEG within the codec's ±1 IDCT
tolerance."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.mrf import read_mrf

M = "/root/reference/autotest/gdrivers/data/mrf"


class TestMRF:
    @pytest.mark.parametrize("sub", ["none", "deflate", "png", "tif"])
    def test_lossless(self, sub):
        d = read_mrf(f"{M}/{sub}/byte.mrf")
        assert checksum_array(d["bands"][0]) == 4672
        assert d["crs"] == "EPSG:26711"
        assert d["geotransform"] == (440720.0, 60.0, 0.0,
                                     3751320.0, 0.0, -60.0)

    def test_jpeg_lossy(self):
        ref = read_mrf(f"{M}/none/byte.mrf")["bands"][0]
        jd = read_mrf(f"{M}/jpeg/byte.mrf")["bands"][0]
        # the stored tile is LOSSY-encoded: pin our deterministic
        # decode and bound the quantization loss vs the lossless twin
        assert checksum_array(jd) == 4658
        err = np.abs(jd.astype(int) - ref.astype(int))
        assert err.mean() < 8 and err.max() < 40

    def test_lerc_v1(self):
        d = read_mrf(f"{M}/lerc_v1/byte.mrf")
        assert checksum_array(d["bands"][0]) == 4672

    def test_lerc2(self):
        d = read_mrf(f"{M}/lerc/byte.mrf")
        assert checksum_array(d["bands"][0]) == 4672

    def test_lerc2_delta_huffman_direct(self):
        from gdal_ray.raster.mrf import lerc2_decode

        blob = open(f"{M}/lerc/byte.lrc", "rb").read()
        arr, mask = lerc2_decode(blob)
        assert arr.shape == (512, 512)
        assert mask.all()
        assert checksum_array(arr[:20, :20]) == 4672

    def test_dispatch(self):
        from gdal_ray.drivers import load_raster

        assert checksum_array(
            load_raster(f"{M}/png/byte.mrf")["bands"][0]) == 4672
