"""Polygonize / sieve tests incl. cross-tile merge."""

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom.predicates import PolygonEdges
from gdal_ray.geom.ops import ring_area
from gdal_ray.raster import model, polygonize


class TestLabel:
    def test_simple_components(self):
        arr = np.array(
            [[1, 1, 2],
             [1, 2, 2],
             [3, 3, 2]], dtype=np.int32)
        lab = polygonize.label_array(arr, 4)
        assert lab[0, 0] == lab[0, 1] == lab[1, 0]
        assert lab[0, 2] == lab[1, 1] == lab[1, 2] == lab[2, 2]
        assert lab[2, 0] == lab[2, 1]
        assert len(np.unique(lab)) == 3

    def test_diagonal_4_vs_8(self):
        arr = np.array([[1, 0], [0, 1]], dtype=np.int32)
        lab4 = polygonize.label_array(arr, 4)
        assert len(np.unique(lab4)) == 4
        lab8 = polygonize.label_array(arr, 8)
        assert len(np.unique(lab8)) == 2


class TestTrace:
    def test_single_pixel(self):
        m = np.zeros((3, 3), bool)
        m[1, 1] = True
        rings = polygonize.trace_rings(m)
        assert len(rings) == 1
        assert abs(ring_area(rings[0])) == 1.0

    def test_square_with_hole(self):
        m = np.ones((5, 5), bool)
        m[2, 2] = False
        rings = polygonize.trace_rings(m)
        areas = sorted(abs(ring_area(r)) for r in rings)
        assert len(rings) == 2
        assert areas == [1.0, 25.0]

    def test_l_shape_area(self):
        m = np.zeros((4, 4), bool)
        m[0, :] = True
        m[:, 0] = True
        rings = polygonize.trace_rings(m)
        assert len(rings) == 1
        assert abs(ring_area(rings[0])) == 7.0


class TestPolygonize:
    def test_areas_and_counts(self):
        arr = np.zeros((10, 10), np.int32)
        arr[2:5, 2:7] = 1
        arr[6:9, 1:4] = 2
        t = polygonize.polygonize_array(arr).to_pandas()
        assert len(t) == 3
        by_val = t.set_index("value")
        assert by_val.loc[1.0, "pixel_count"] == 15
        assert by_val.loc[2.0, "pixel_count"] == 9
        assert by_val.loc[0.0, "pixel_count"] == 100 - 24
        # polygon of value 1 contains its pixel centers and not others
        g = by_val.loc[1.0, "geometry"]
        edges = PolygonEdges(gwkb.polygon_rings(g))
        assert edges.contains_points([4.5], [3.5])[0]
        assert not edges.contains_points([8.5], [8.5])[0]
        # background polygon must have holes (the two islands)
        g0 = by_val.loc[0.0, "geometry"]
        assert len(gwkb.polygon_rings(g0)) == 3

    def test_world_coords(self):
        arr = np.zeros((4, 4), np.int32)
        arr[1:3, 1:3] = 5
        gt = (100.0, 10.0, 0.0, 200.0, 0.0, -10.0)
        t = polygonize.polygonize_array(arr, gt).to_pandas()
        g = t.set_index("value").loc[5.0, "geometry"]
        b = gwkb.bounds(g)
        assert b == (110.0, 170.0, 130.0, 190.0)

    def test_exclude_nodata(self):
        arr = np.zeros((4, 4), np.int32)
        arr[0, 0] = 7
        t = polygonize.polygonize_array(arr, exclude=0).to_pandas()
        assert len(t) == 1
        assert t.iloc[0]["value"] == 7.0


class TestSieve:
    def test_small_component_merges_into_largest_neighbor(self):
        arr = np.zeros((8, 8), np.int32)
        arr[0:8, 4:8] = 2
        arr[3, 3] = 9  # single-pixel island inside zone 0 touching 2? no
        out = polygonize.sieve_array(arr, threshold=2)
        assert (out != 9).all()
        # island became one of its neighbors (0 is the bigger neighbor)
        assert out[3, 3] == 0

    def test_threshold_keeps_big(self):
        arr = np.zeros((6, 6), np.int32)
        arr[2:5, 2:5] = 1
        out = polygonize.sieve_array(arr, threshold=4)
        assert (out == arr).all()


class TestDistributed:
    def test_cross_tile_merge_counts(self, ray_session):
        import ray.data as rd

        rng = np.random.default_rng(21)
        # blobs spanning tile borders
        arr = np.zeros((64, 64), np.int32)
        arr[10:40, 20:50] = 1
        arr[30:60, 5:15] = 2
        tiles_t = model.from_array(arr.astype(np.uint8), "EPSG:3857",
                                   (0, 1, 0, 64, 0, -1), tile_size=16)
        ds = rd.from_arrow(tiles_t)
        parts = ds.map_batches(
            polygonize.tile_labels_and_borders, batch_format="pyarrow"
        ).to_pandas()
        merged = polygonize.merge_tile_components(parts)
        # global truth from single-array labeling
        glob = polygonize.polygonize_array(arr).to_pandas()
        got = sorted(zip(merged["value"], merged["pixel_count"]))
        exp = sorted(zip(glob["value"], glob["pixel_count"]))
        assert got == exp


class TestFullyDistributed:
    def test_distributed_component_counts_match_single_array(self, ray_session):
        import ray.data as rd

        rng = np.random.default_rng(33)
        # random multi-valued raster: many components crossing borders
        arr = (rng.random((96, 96)) * 3).astype(np.int32)
        # plus deterministic blobs spanning several tiles
        arr[10:70, 20:80] = 7
        arr[50:90, 5:15] = 8
        tiles_t = model.from_array(arr, "EPSG:3857",
                                   (0, 1, 0, 96, 0, -1), tile_size=32)
        comps = polygonize.distributed_component_counts(
            rd.from_arrow(tiles_t), connectivity=4
        ).to_pandas()
        glob = polygonize.polygonize_array(arr).to_pandas()
        got = sorted(zip(comps["value"], comps["pixel_count"]))
        exp = sorted(zip(glob["value"], glob["pixel_count"]))
        assert got == exp

    def test_single_tile_no_pairs(self, ray_session):
        import ray.data as rd

        arr = np.array([[1, 1], [2, 2]], np.int32)
        tiles_t = model.from_array(arr, "EPSG:3857",
                                   (0, 1, 0, 2, 0, -1), tile_size=16)
        comps = polygonize.distributed_component_counts(
            rd.from_arrow(tiles_t)
        ).to_pandas()
        assert sorted(zip(comps["value"], comps["pixel_count"])) == [
            (1.0, 2), (2.0, 2)]


class TestDistributedGeometry:
    def test_dissolve_matches_single_array_polygons(self, ray_session):
        import ray.data as rd

        arr = np.zeros((64, 64), np.int32)
        arr[10:40, 20:50] = 1   # spans several 16px tiles
        arr[30:60, 5:15] = 2
        arr[45:50, 40:45] = 3   # single-tile island
        gt = (0.0, 1.0, 0.0, 64.0, 0.0, -1.0)
        tiles_t = model.from_array(arr.astype(np.uint8), "EPSG:3857",
                                   gt, tile_size=16)
        parts = rd.from_arrow(tiles_t).map_batches(
            polygonize.tile_labels_and_borders, batch_format="pyarrow"
        ).to_pandas()
        dissolved = polygonize.dissolve_components(
            tiles_t, parts, 16, gt
        ).to_pandas()
        single = polygonize.polygonize_array(arr, gt).to_pandas()

        got = sorted(zip(dissolved["value"], dissolved["pixel_count"]))
        exp = sorted(zip(single["value"], single["pixel_count"]))
        assert got == exp
        # geometry parity: same ring counts and areas per value
        from gdal_ray.geom import ops as gops

        for val in (0.0, 1.0, 2.0, 3.0):
            gd = dissolved[dissolved["value"] == val].iloc[0]["geometry"]
            gs = single[single["value"] == val].iloc[0]["geometry"]
            rd_ = gwkb.polygon_rings(gd)
            rs_ = gwkb.polygon_rings(gs)
            assert len(rd_) == len(rs_)
            a_d = sorted(round(abs(gops.ring_area(r)), 6) for r in rd_)
            a_s = sorted(round(abs(gops.ring_area(r)), 6) for r in rs_)
            assert a_d == a_s
