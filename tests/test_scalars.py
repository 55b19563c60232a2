"""Geometry scalar tests: Distance, IsSimple, Touches/Crosses/
Overlaps, Delaunay (empty-circumcircle property), ConcaveHull, and
the layer-algebra Update composition."""

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray.geom import scalars as S
from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom.ops import convex_hull, ring_area


class TestDistance:
    def test_point_point(self):
        assert S.distance(gwkb.point_wkb(0, 0), gwkb.point_wkb(3, 4)) == (
            pytest.approx(5.0)
        )

    def test_point_line_polygon(self):
        ln = gwkb.linestring_wkb(np.array([(0, 2), (10, 2)], float))
        assert S.distance(gwkb.point_wkb(0, 0), ln) == pytest.approx(2.0)
        poly = gwkb.polygon_wkb(
            np.array([(1, 1), (5, 1), (5, 5), (1, 5), (1, 1)], float)
        )
        assert S.distance(gwkb.point_wkb(2, 2), poly) == 0.0  # inside
        assert S.distance(gwkb.point_wkb(0, 0), poly) == pytest.approx(
            np.sqrt(2)
        )

    def test_polygon_polygon_and_crossing_line(self):
        a = gwkb.polygon_wkb(
            np.array([(1, 1), (5, 1), (5, 5), (1, 5), (1, 1)], float)
        )
        b = gwkb.polygon_wkb(
            np.array([(6, 1), (8, 1), (8, 3), (6, 3), (6, 1)], float)
        )
        assert S.distance(a, b) == pytest.approx(1.0)
        ln = gwkb.linestring_wkb(np.array([(0, 0), (10, 10)], float))
        assert S.distance(a, ln) == 0.0


class TestIsSimple:
    def test_cases(self):
        assert S.is_simple(
            gwkb.linestring_wkb(np.array([(0, 0), (1, 0), (1, 1)], float))
        )
        assert not S.is_simple(
            gwkb.linestring_wkb(
                np.array([(0, 0), (2, 2), (2, 0), (0, 2)], float)
            )
        )
        bow = gwkb.polygon_wkb(
            np.array([(0, 0), (2, 2), (2, 0), (0, 2), (0, 0)], float)
        )
        assert not S.is_simple(bow)
        assert S.is_simple(
            gwkb.polygon_wkb(
                np.array([(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)], float)
            )
        )


class TestRelate:
    SQ1 = gwkb.polygon_wkb(np.array([(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)], float))
    SQ2 = gwkb.polygon_wkb(np.array([(2, 0), (4, 0), (4, 2), (2, 2), (2, 0)], float))
    SQ3 = gwkb.polygon_wkb(np.array([(1, 1), (3, 1), (3, 3), (1, 3), (1, 1)], float))
    SQ4 = gwkb.polygon_wkb(np.array([(5, 5), (6, 5), (6, 6), (5, 6), (5, 5)], float))

    def test_touches(self):
        assert S.touches(self.SQ1, self.SQ2)      # shared edge
        assert not S.touches(self.SQ1, self.SQ3)  # interior overlap
        assert not S.touches(self.SQ1, self.SQ4)  # disjoint

    def test_overlaps(self):
        assert S.overlaps(self.SQ1, self.SQ3)
        assert not S.overlaps(self.SQ1, self.SQ2)
        assert not S.overlaps(self.SQ1, self.SQ4)

    def test_crosses_lines(self):
        l1 = gwkb.linestring_wkb(np.array([(0, 0), (4, 4)], float))
        l2 = gwkb.linestring_wkb(np.array([(0, 4), (4, 0)], float))
        l3 = gwkb.linestring_wkb(np.array([(4, 4), (8, 0)], float))
        assert S.crosses(l1, l2)
        assert not S.crosses(l1, l3)
        assert S.touches(l1, l3)       # endpoint meet only
        assert not S.touches(l1, l2)   # interior crossing

    def test_crosses_line_polygon(self):
        lc = gwkb.linestring_wkb(np.array([(-1, 1), (3, 1)], float))
        li = gwkb.linestring_wkb(np.array([(0.5, 0.5), (1.5, 1.5)], float))
        assert S.crosses(lc, self.SQ1)
        assert not S.crosses(li, self.SQ1)


class TestDelaunay:
    def test_empty_circumcircle_and_count(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, (40, 2))
        tris = S.delaunay(pts)
        for t in tris:
            a, b, c = pts[t[0]], pts[t[1]], pts[t[2]]
            d = 2 * (
                a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1])
            )
            ux = (
                (a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1])
                + (c @ c) * (a[1] - b[1])
            ) / d
            uy = (
                (a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0])
                + (c @ c) * (b[0] - a[0])
            ) / d
            r2 = (a[0] - ux) ** 2 + (a[1] - uy) ** 2
            dist2 = (pts[:, 0] - ux) ** 2 + (pts[:, 1] - uy) ** 2
            inside = dist2 < r2 - 1e-9
            inside[t] = False
            assert not inside.any()
        h = len(convex_hull(pts)) - 1
        assert len(tris) == 2 * len(pts) - 2 - h

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 5, (25, 2))
        assert (S.delaunay(pts) == S.delaunay(pts)).all()


class TestConcaveHull:
    def _crescent(self):
        theta = np.linspace(0, np.pi, 30)
        return np.vstack(
            [
                np.column_stack([np.cos(theta) * 5, np.sin(theta) * 5]),
                np.column_stack([np.cos(theta) * 2, np.sin(theta) * 2])[::-1],
            ]
        )

    def test_ratio_one_is_convex(self):
        pts = self._crescent()
        ch = S.concave_hull(pts, ratio=1.0)
        cv = convex_hull(pts)
        assert abs(ring_area(ch)) == pytest.approx(abs(ring_area(cv)), abs=1e-6)

    def test_concave_shrinks_and_closes(self):
        pts = self._crescent()
        cc = S.concave_hull(pts, ratio=0.05)
        assert (cc[0] == cc[-1]).all()
        assert abs(ring_area(cc)) < abs(ring_area(convex_hull(pts))) - 1.0


class TestUpdateLayer:
    def test_update_composition(self, ray_session):
        import ray.data as rd

        from gdal_ray.stages.overlay import update_layer

        inp = pa.table(
            {
                "fid": pa.array([1], pa.int64()),
                "geometry": pa.array(
                    [gwkb.polygon_wkb(
                        np.array([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)], float)
                    )],
                    pa.binary(),
                ),
            }
        )
        method = pa.table(
            {
                "admin_id": pa.array([7], pa.int64()),
                "geometry": pa.array(
                    [gwkb.polygon_wkb(
                        np.array([(2, 2), (6, 2), (6, 6), (2, 6), (2, 2)], float)
                    )],
                    pa.binary(),
                ),
            }
        )
        out = update_layer(
            rd.from_arrow(inp), method, general=True
        ).to_pandas()
        # erased input (16-4=12) + method feature (16) — total area 28,
        # the union of both footprints (update semantics)
        assert out["overlay_area"].sum() == pytest.approx(28.0)
        assert len(out[out["fid"].notna()]) >= 1   # cut input piece(s)
        assert len(out[out["fid"].isna()]) == 1    # the method feature


def _dense_seg_point_dist(px, py, ax, ay, bx, by):
    """The dense (points × segments) distance matrix the blocked
    per-point minimum replaced, kept as its oracle."""
    abx = bx - ax
    aby = by - ay
    den = abx * abx + aby * aby
    t = np.where(
        den > 0,
        ((px[:, None] - ax) * abx + (py[:, None] - ay) * aby)
        / np.where(den > 0, den, 1.0),
        0.0,
    )
    t = np.clip(t, 0.0, 1.0)
    dx = px[:, None] - (ax + t * abx)
    dy = py[:, None] - (ay + t * aby)
    return np.sqrt(dx * dx + dy * dy)


def _circle(n, r=1.0, cx=0.0, cy=0.0):
    a = np.linspace(0, 2 * np.pi, n, endpoint=False)
    ring = np.c_[cx + r * np.cos(a), cy + r * np.sin(a)]
    return np.vstack([ring, ring[:1]])


class TestBlockedScalars:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 18])
    def test_seg_point_dist_matches_dense(self, chunk, monkeypatch):
        monkeypatch.setattr(S, "CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        p = rng.normal(size=(37, 2))
        a, b = rng.normal(size=(23, 2)), rng.normal(size=(23, 2))
        b[3] = a[3]  # a zero-length segment
        want = _dense_seg_point_dist(p[:, 0], p[:, 1], a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        got = S._seg_point_dist(p[:, 0], p[:, 1], a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        np.testing.assert_array_equal(got, want.min(axis=1))

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 18])
    def test_predicates_unchanged_by_blocking(self, chunk, monkeypatch):
        big = gwkb.polygon_wkb(_circle(40, 2.0))
        small = gwkb.polygon_wkb(_circle(30, 0.5, 0.3))
        far = gwkb.polygon_wkb(_circle(25, 0.5, 5.0))
        line = gwkb.linestring_wkb(np.array([(-3.0, 0.1), (0.0, 0.2), (3.0, 0.1)]))
        pts = gwkb.collection_wkb(gwkb.MULTIPOINT, [gwkb.point_wkb(9.0, 9.0), gwkb.point_wkb(8.0, 7.5)])
        zig = gwkb.linestring_wkb(np.array([(-1.0, -1.0), (0.0, 1.0), (1.0, -1.0), (2.0, 1.0)]))
        pairs = [(small, big), (big, far), (line, big), (far, line), (pts, far), (line, pts),
                 (line, zig), (zig, far)]

        def run():
            return [(S.distance(a, b), S.within(a, b), S.touches(a, b), S.crosses(a, b))
                    for a, b in pairs]

        want = run()
        monkeypatch.setattr(S, "CHUNK", chunk)
        assert run() == want

    def test_memory_bound(self):
        import tracemalloc

        a = gwkb.polygon_wkb(_circle(3000, 1.0))
        b = gwkb.polygon_wkb(_circle(3000, 2.0))
        x = np.linspace(0, 10, 3000)
        la = gwkb.linestring_wkb(np.c_[x, np.sin(x * 7)])
        lb = gwkb.linestring_wkb(np.c_[x, np.cos(x * 5)])
        for pred in (lambda: S.within(a, b), lambda: S.crosses(la, lb)):
            tracemalloc.start()
            try:
                assert pred()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, peak
