"""Point-in-polygon predicate, grid index, and PIP-join stage tests."""

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray import fixtures
from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom.index import GridPolygonIndex
from gdal_ray.geom.predicates import PolygonEdges


def _edges(*rings):
    return PolygonEdges([np.array(r, dtype=float) for r in rings])


class TestPolygonEdges:
    def test_square_interior_exterior(self):
        sq = _edges([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]])
        px = np.array([5.0, -1.0, 15.0, 9.999, 0.001])
        py = np.array([5.0, 5.0, 5.0, 9.999, 0.001])
        np.testing.assert_array_equal(
            sq.contains_points(px, py), [True, False, False, True, True]
        )

    def test_boundary_inclusive(self):
        # intersects semantics: edges and vertices are IN
        sq = _edges([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]])
        px = np.array([0.0, 10.0, 5.0, 0.0, 10.0])
        py = np.array([5.0, 5.0, 0.0, 0.0, 10.0])
        assert sq.contains_points(px, py).all()

    def test_shared_edge_matches_both(self):
        # FIXTURES.md §3: a point on a shared edge matches BOTH boxes
        a = _edges([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]])
        b = _edges([[10, 0], [20, 0], [20, 10], [10, 10], [10, 0]])
        assert a.contains_points([10.0], [5.0])[0]
        assert b.contains_points([10.0], [5.0])[0]

    def test_hole_even_odd(self):
        outer = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]
        hole = [[4, 4], [6, 4], [6, 6], [4, 6], [4, 4]]
        poly = _edges(outer, hole)
        px = np.array([5.0, 2.0, 4.0])
        py = np.array([5.0, 2.0, 5.0])
        # center is in the hole (out), 2,2 in the ring (in),
        # hole edge itself is boundary (in, intersects semantics)
        np.testing.assert_array_equal(poly.contains_points(px, py), [False, True, True])

    def test_concave(self):
        # C-shape
        c = _edges(
            [[0, 0], [10, 0], [10, 3], [3, 3], [3, 7], [10, 7], [10, 10], [0, 10], [0, 0]]
        )
        px = np.array([5.0, 1.0, 5.0])
        py = np.array([5.0, 5.0, 1.0])
        np.testing.assert_array_equal(c.contains_points(px, py), [False, True, True])

    def test_unclosed_ring_autoclosed(self):
        sq = _edges([[0, 0], [10, 0], [10, 10], [0, 10]])  # not closed
        assert sq.contains_points([5.0], [5.0])[0]


class TestGridIndex:
    def test_matches_bruteforce(self):
        b = fixtures.gen_boundaries()
        idx = GridPolygonIndex(b["geometry"].to_pylist())
        rng = np.random.default_rng(5)
        px = rng.uniform(-90, 90, 3000)
        py = rng.uniform(-70, 70, 3000)
        pts, ids = idx.query_points(px, py)
        got = set(zip(pts.tolist(), ids.tolist()))
        edges = [PolygonEdges(gwkb.polygon_rings(w)) for w in b["geometry"].to_pylist()]
        expected = set()
        for pid, e in enumerate(edges):
            hit = e.contains_points(px, py)
            for i in np.flatnonzero(hit):
                expected.add((int(i), pid))
        assert got == expected
        assert len(expected) > 2000  # dense coverage incl. multi-matches

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_probe_matches_nothing(self):
        idx = GridPolygonIndex([gwkb.box_polygon_wkb(0, 0, 1, 1)])
        px = np.array([np.nan, 0.5, np.inf, 0.5])
        py = np.array([0.5, np.nan, 0.5, 0.5])
        assert (idx._bucket_of(px, py)[:3] == -1).all()
        pts, ids = idx.query_points(px, py)
        assert pts.tolist() == [3] and ids.tolist() == [0]

    def test_empty_probe(self):
        idx = GridPolygonIndex([gwkb.box_polygon_wkb(0, 0, 1, 1)])
        pts, ids = idx.query_points(np.empty(0), np.empty(0))
        assert len(pts) == 0 and len(ids) == 0


class TestPIPJoinStage(object):
    def test_inner_join(self, ray_session):
        import ray.data as rd

        from gdal_ray.stages.join import pip_join

        pts = pa.table(
            {
                "pid": pa.array(np.arange(4, dtype=np.int64)),
                "lon": pa.array([-75.0, 0.0, 150.0, 106.8456]),
                "lat": pa.array([-55.0, 0.0, 0.0, -6.2088]),
            }
        )
        out = pip_join(
            rd.from_arrow(pts), fixtures.gen_boundaries(), concurrency=2
        ).to_pandas()
        # every output row must truly intersect
        assert set(out.columns) == {"pid", "lon", "lat", "admin_id", "name"}
        assert (out["name"] == "admin_" + out["admin_id"].astype(str)).all()
        # pid=2 (150,0) is outside all boxes
        assert 2 not in set(out["pid"])
        # pid=3 is the hot-city point — matches the Jakarta box (admin_99)
        assert 99 in set(out[out["pid"] == 3]["admin_id"])

    def test_left_join(self, ray_session):
        import ray.data as rd

        from gdal_ray.stages.join import pip_join

        pts = pa.table({"lon": pa.array([150.0]), "lat": pa.array([0.0])})
        out = pip_join(
            rd.from_arrow(pts),
            fixtures.gen_boundaries(),
            keep_unmatched=True,
            concurrency=1,
        ).to_pandas()
        assert len(out) == 1
        assert out["admin_id"].isna().all()


class TestSemiAntiJoin:
    def test_partitioned_semi_anti_match_set_reference(self, ray_session):
        """join_partitions left_semi / left_anti (hash-partitioned, no
        driver key set) against a plain Python set reference, on a
        key space spread over many blocks with duplicate right keys."""
        import ray.data as rd

        from gdal_ray.stages.partition import join_partitions

        n = 20_000
        left = rd.from_arrow([
            pa.table({"k": pa.array(range(i, i + 2500), pa.int64())})
            for i in range(0, n, 2500)])
        # right keys: every third key, with duplicates
        rk = [i for i in range(0, n, 3) for _ in range(2)]
        right = rd.from_arrow(pa.table({"rk": pa.array(rk, pa.int64())}))

        semi = sorted(r["k"] for r in join_partitions(
            left, right, "k", "rk", "left_semi").take_all())
        anti = sorted(r["k"] for r in join_partitions(
            left, right, "k", "rk", "left_anti").take_all())
        keyset = set(rk)
        assert semi == [k for k in range(n) if k in keyset]
        assert anti == [k for k in range(n) if k not in keyset]
