"""DTED driver (raster/dted.py): reference-fixture checksum pins
(autotest/gdrivers/dted.py expectations) + sign-magnitude roundtrip."""

import numpy as np
import pytest

from gdal_ray.raster.checksum import checksum_array
from gdal_ray.raster.dted import decode_dted, encode_dted, read_dted

DATA = "/root/reference/autotest/gdrivers/data"


class TestReferenceFixtures:
    @pytest.mark.parametrize("path,cs", [
        ("n43.dt0", 49187),
        ("dted/n43_partial_cols.dt0", 56006),
        ("dted/n43_sparse_cols.dt0", 56369),
        ("dted/n43_wgs72.dt0", 49187),
    ])
    def test_checksums(self, path, cs):
        g = read_dted(f"{DATA}/{path}")
        assert checksum_array(g["bands"][0]) == cs

    def test_geotransform_and_nodata(self):
        g = read_dted(f"{DATA}/n43.dt0")
        gt = g["geotransform"]
        want = (-80.004166666666663, 0.0083333333333333332, 0.0,
                44.00416666666667, 0.0, -0.0083333333333333332)
        for a, b in zip(gt, want):
            assert abs(a - b) < 1e-6
        assert g["nodata"] == -32767.0
        assert g["crs"] == "EPSG:4326"
        assert g["bands"][0].dtype == np.int16


class TestRoundtrip:
    def test_fixture_roundtrip(self):
        g = read_dted(f"{DATA}/n43.dt0")
        arr = g["bands"][0]
        rt = decode_dted(encode_dted(arr, -80.0, 43.0, 30.0))
        np.testing.assert_array_equal(rt["bands"][0], arr)
        np.testing.assert_allclose(rt["geotransform"],
                                   g["geotransform"])

    def test_negative_elevations_sign_magnitude(self):
        arr = np.array([[-412, 0], [77, -32767]], dtype=np.int16)
        rt = decode_dted(encode_dted(arr, 5.0, 50.0, 30.0))
        np.testing.assert_array_equal(rt["bands"][0], arr)

    def test_load_raster_dispatch(self):
        from gdal_ray.drivers import load_raster

        g = load_raster(f"{DATA}/n43.dt0")
        assert checksum_array(g["bands"][0]) == 49187


class TestTransmittalHeader:
    def test_dt1_with_hdr_label_opens(self):
        # tape-derived files carry HDR1/VOL1 label records before UHL
        # (autotest dted_11 just asserts the file opens)
        g = read_dted(f"{DATA}/dted/w118n033_trunc.dt1")
        assert g["bands"][0].shape[1] > 0
        assert g["crs"] == "EPSG:4326"


class TestFuzzRoundtrip:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    import hypothesis.extra.numpy as hnp

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.int16, (9, 6),
                      elements=st.integers(-32767, 32767)))
    def test_sign_magnitude_values(self, arr):
        rt = decode_dted(encode_dted(arr, -10.0, 40.0, 30.0))
        np.testing.assert_array_equal(rt["bands"][0], arr)
