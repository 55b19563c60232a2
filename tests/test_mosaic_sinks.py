"""Mosaic tests."""

import numpy as np

from gdal_ray.raster import mosaic


class TestMosaic:
    def test_last_wins_and_nodata(self):
        a = np.full((4, 4), 1.0)
        b = np.full((4, 4), 2.0)
        b[0, 0] = -9  # nodata hole → earlier source shows through
        gt = (0.0, 1.0, 0.0, 4.0, 0.0, -1.0)
        out = mosaic.mosaic_arrays([(a, gt), (b, gt)], gt, (4, 4), nodata=-9)
        assert out[0, 0] == 1.0
        assert (out.ravel()[1:] == 2.0).all()

    def test_offset_sources(self):
        # two 4x4 sources side by side onto one 4x8 grid
        a = np.full((4, 4), 5.0)
        b = np.full((4, 4), 7.0)
        gt_a = (0.0, 1.0, 0.0, 4.0, 0.0, -1.0)
        gt_b = (4.0, 1.0, 0.0, 4.0, 0.0, -1.0)
        dst_gt = (0.0, 1.0, 0.0, 4.0, 0.0, -1.0)
        out = mosaic.mosaic_arrays([(a, gt_a), (b, gt_b)], dst_gt, (4, 8),
                                   init=-1.0)
        assert (out[:, :4] == 5.0).all()
        assert (out[:, 4:] == 7.0).all()
