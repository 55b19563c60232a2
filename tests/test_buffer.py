"""General-geometry buffer tests: closed-form Minkowski identities on
convex inputs, union formulas on turning lines, grid oracles on
concave shapes, and the WKB dispatch."""

import numpy as np
import pytest

from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom import buffer
from gdal_ray.geom.buffer import buffer_area, buffer_line, buffer_polygon
from gdal_ray.geom.clip import PolygonEdges
from gdal_ray.stages.vector import buffer_wkb

Q = 8
N = 4 * Q


def ngon_circle(r):
    return 0.5 * N * r * r * np.sin(2 * np.pi / N)


class TestClosedForms:
    def test_rectangle_minkowski_exact(self):
        r = 0.5
        rect = np.array([(0, 0), (4, 0), (4, 2), (0, 2), (0, 0)], float)
        got = buffer_area(buffer_polygon(rect, r, Q))
        assert got == pytest.approx(8 + 12 * r + ngon_circle(r), abs=1e-12)

    def test_convex_pentagon_minkowski_exact(self):
        """Any convex polygon: area + perimeter*r + arc wedges; the
        wedge sum equals the n-gon circle only when every exterior
        angle is a multiple of 2pi/n, so compute wedges per-vertex."""
        r = 0.3
        p = np.array(
            [(0, 0), (3, -1), (5, 1), (3, 4), (0, 3), (0, 0)], float
        )
        got = buffer_area(buffer_polygon(p, r, Q))
        a = 0.5 * abs(
            np.sum(p[:-1, 0] * p[1:, 1] - p[1:, 0] * p[:-1, 1])
        )
        per = np.linalg.norm(np.diff(p, axis=0), axis=1).sum()
        d = np.diff(p, axis=0)
        th = np.arctan2(d[:, 1], d[:, 0])
        wedges = 0.0
        m = len(th)
        for i in range(m):
            turn = (th[(i + 1) % m] - th[i] + np.pi) % (2 * np.pi) - np.pi
            k = max(1, int(round(abs(turn) / (2 * np.pi / N))))
            wedges += 0.5 * r * r * k * np.sin(abs(turn) / k)
        assert got == pytest.approx(a + per * r + wedges, abs=1e-10)

    def test_capsule_exact(self):
        r = 0.5
        line = np.array([(0, 0), (3, 0)], float)
        got = buffer_area(buffer_line(line, r, Q))
        assert got == pytest.approx(3.0 + ngon_circle(r), abs=1e-12)

    def test_l_line_union_formula(self):
        r = 0.5
        line = np.array([(0, 0), (2, 0), (2, 2)], float)
        got = buffer_area(buffer_line(line, r, Q))
        want = (
            2 * r * 4.0 - r * r + ngon_circle(r)
            + 0.5 * Q * r * r * np.sin((np.pi / 2) / Q)
        )
        assert got == pytest.approx(want, abs=1e-12)


class TestGridOracle:
    @staticmethod
    def _grid_area(contains_fn, bounds, n=400):
        xs = np.linspace(bounds[0], bounds[2], n)
        ys = np.linspace(bounds[1], bounds[3], n)
        X, Y = np.meshgrid(xs, ys)
        inside = contains_fn(X.ravel(), Y.ravel())
        cell = ((bounds[2] - bounds[0]) / (n - 1)) * (
            (bounds[3] - bounds[1]) / (n - 1)
        )
        return inside.sum() * cell

    def test_zigzag_line(self):
        r = 0.3
        zig = np.array([(0, 0), (2, 1), (4, 0), (6, 1)], float)
        rings = buffer_line(zig, r, Q)
        got = buffer_area(rings)

        def true_contains(x, y):
            p = np.stack([x, y], 1)
            d = np.full(len(p), np.inf)
            for i in range(len(zig) - 1):
                a, b = zig[i], zig[i + 1]
                ab = b - a
                t = np.clip(((p - a) @ ab) / (ab @ ab), 0, 1)
                d = np.minimum(d, np.linalg.norm(p - (a + t[:, None] * ab), axis=1))
            return d <= r

        est = self._grid_area(true_contains, (-1, -1, 7, 2))
        assert got == pytest.approx(est, rel=0.01)

    def test_concave_polygon(self):
        r = 0.4
        poly = np.array(
            [(0, 0), (6, 0), (6, 4), (3, 1.5), (0, 4), (0, 0)], float
        )
        rings = buffer_polygon(poly, r, Q)
        got = buffer_area(rings)

        def true_contains(x, y):
            p = np.stack([x, y], 1)
            d = np.full(len(p), np.inf)
            for i in range(len(poly) - 1):
                a, b = poly[i], poly[i + 1]
                ab = b - a
                t = np.clip(((p - a) @ ab) / (ab @ ab), 0, 1)
                d = np.minimum(d, np.linalg.norm(p - (a + t[:, None] * ab), axis=1))
            inside = PolygonEdges([poly]).contains_points(x, y)
            return inside | (d <= r)

        est = self._grid_area(true_contains, (-1, -1, 7, 5))
        assert got == pytest.approx(est, rel=0.01)


class TestWkbDispatch:
    def test_point_line_polygon(self):
        r = 0.5
        pt = gwkb.point_wkb(1.0, 2.0)
        out = gwkb.parse(buffer_wkb(pt, r, Q))
        assert out["type"] == gwkb.POLYGON

        ln = gwkb.linestring_wkb(np.array([(0, 0), (3, 0)], float))
        out = buffer_wkb(ln, r, Q)
        rings = gwkb.polygon_rings(out)
        assert sum(
            0.5 * abs(np.sum(rg[:-1, 0] * rg[1:, 1] - rg[1:, 0] * rg[:-1, 1]))
            for rg in rings
        ) == pytest.approx(3.0 + ngon_circle(r), abs=1e-12)

        poly = gwkb.polygon_wkb(
            np.array([(0, 0), (2, 0), (2, 1), (0, 1), (0, 0)], float)
        )
        out = buffer_wkb(poly, r, Q)
        rings = gwkb.polygon_rings(out)
        assert len(rings) == 1

    def test_unsupported_raises(self):
        gc = gwkb.collection_wkb(gwkb.GEOMETRYCOLLECTION,
                                 [gwkb.point_wkb(0, 0)])
        with pytest.raises(NotImplementedError):
            buffer_wkb(gc, 1.0)


class TestErosion:
    def test_rectangle_erosion_exact(self):
        rect = np.array([(0, 0), (6, 0), (6, 4), (0, 4), (0, 0)], float)
        got = buffer_area(buffer_polygon(rect, -1.0, Q))
        assert got == pytest.approx(4.0 * 2.0, abs=1e-12)

    def test_full_erosion_empty(self):
        rect = np.array([(0, 0), (6, 0), (6, 4), (0, 4), (0, 0)], float)
        assert buffer_polygon(rect, -2.5, Q) == []

    def test_l_shape_reflex_arc_exact(self):
        """Erosion rounds the reflex corner: the region gains the
        square-minus-quarter-arc sliver beyond the shrunk arms —
        closed form 9 + (r^2 - quarter-ngon)."""
        L = np.array(
            [(0, 0), (6, 0), (6, 2), (2, 2), (2, 6), (0, 6), (0, 0)], float
        )
        r = 0.5
        got = buffer_area(buffer_polygon(L, -r, Q))
        quarter_ngon = 0.5 * Q * r * r * np.sin((np.pi / 2) / Q)
        assert got == pytest.approx(9.0 + r * r - quarter_ngon, abs=1e-12)

    def test_dilate_then_erode_roundtrip(self):
        """Opening-style sanity: erode(dilate(P, r), r) ~ P for a
        convex polygon (exact for convex: offsets cancel; small
        discretization residue from the arc corners)."""
        rect = np.array([(0, 0), (4, 0), (4, 3), (0, 3), (0, 0)], float)
        r = 0.5
        dil = buffer_polygon(rect, r, Q)
        assert len(dil) == 1
        back = buffer_polygon(dil[0], -r, Q)
        got = buffer_area(back)
        assert got == pytest.approx(12.0, rel=0.01)


class TestBatchedRectKernel:
    """rect_buffer_rings_batch must agree with the per-row
    buffer_polygon walk and be >=5x faster at 1e5 rows (r2 verdict
    vectorization item)."""

    def _dims(self, n, seed=5):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 3.0, n)

    def test_dilate_matches_per_row_walk(self):
        from gdal_ray.geom.ops import ring_area

        w, h = self._dims(50)
        rings = buffer.rect_buffer_rings_batch(w, h, 0.25, 8)
        areas = buffer.ring_area_batch(rings)
        for i in range(len(w)):
            rect = np.array([(0.0, 0.0), (w[i], 0.0), (w[i], h[i]),
                             (0.0, h[i]), (0.0, 0.0)])
            ref = sum(ring_area(r) for r in buffer.buffer_polygon(rect, 0.25, 8))
            assert abs(areas[i] - ref) < 1e-12

    def test_erode_matches_per_row_walk(self):
        from gdal_ray.geom.ops import ring_area

        w, h = self._dims(50, seed=6)
        rings = buffer.rect_buffer_rings_batch(w, h, -0.1, 8)
        areas = buffer.ring_area_batch(rings)
        for i in range(len(w)):
            rect = np.array([(0.0, 0.0), (w[i], 0.0), (w[i], h[i]),
                             (0.0, h[i]), (0.0, 0.0)])
            ref = sum(ring_area(r) for r in buffer.buffer_polygon(rect, -0.1, 8))
            assert abs(areas[i] - ref) < 1e-12

    def test_full_erosion_zero_area(self):
        rings = buffer.rect_buffer_rings_batch(
            np.array([0.15]), np.array([2.0]), -0.1, 8)
        assert abs(buffer.ring_area_batch(rings)[0]) < 1e-15

    def test_batched_speedup(self):
        import time

        n = 100_000
        w, h = self._dims(n, seed=7)
        t0 = time.perf_counter()
        areas = buffer.ring_area_batch(
            buffer.rect_buffer_rings_batch(w, h, 0.25, 8))
        batched = time.perf_counter() - t0
        # per-row walk on a 1/100 sample, extrapolated
        from gdal_ray.geom.ops import ring_area

        t0 = time.perf_counter()
        for i in range(n // 100):
            rect = np.array([(0.0, 0.0), (w[i], 0.0), (w[i], h[i]),
                             (0.0, h[i]), (0.0, 0.0)])
            sum(ring_area(r) for r in buffer.buffer_polygon(rect, 0.25, 8))
        per_row = (time.perf_counter() - t0) * 100.0
        assert len(areas) == n
        assert per_row > 5.0 * batched, (per_row, batched)
