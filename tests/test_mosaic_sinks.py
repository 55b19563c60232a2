"""Mosaic tests."""

import numpy as np
import pyarrow as pa

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

    def test_distributed_compositor(self, ray_session):
        import ray.data as rd

        from gdal_ray.raster import model

        gt = (0.0, 1.0, 0.0, 8.0, 0.0, -1.0)
        rows = []
        for sidx, fill in ((0, 1.0), (1, 2.0)):
            t = model.from_array(
                np.full((8, 8), fill), "EPSG:3857", gt, tile_size=8
            )
            t = t.append_column("source_idx", pa.array([sidx], pa.int32()))
            t = t.append_column("dst_bx", pa.array([0], pa.int32()))
            t = t.append_column("dst_by", pa.array([0], pa.int32()))
            rows.append(t)
        ds = rd.from_arrow(pa.concat_tables(rows))
        comp = mosaic.MosaicCompositor(gt, tile_size=8)
        out = ds.groupby(["dst_bx", "dst_by"]).map_groups(
            lambda g: comp(g), batch_format="pyarrow"
        ).to_pandas()
        assert len(out) == 1
        arr = np.frombuffer(out.iloc[0]["data"], dtype=np.float64).reshape(8, 8)
        assert (arr == 2.0).all()  # last source wins
