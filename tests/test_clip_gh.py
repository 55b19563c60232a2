"""Greiner–Hormann general polygon intersection tests (vs convex S-H,
closed forms, and a rasterized area oracle)."""

import numpy as np
import pytest

from gdal_ray.geom import clip as gh
from gdal_ray.geom import ops as gops


def box(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)


def _raster_area(subject, clipper, res=512):
    """Monte-Carlo-free oracle: pixel-center rasterization of both."""
    from gdal_ray.geom.predicates import PolygonEdges

    allpts = np.vstack([subject, clipper])
    minx, miny = allpts.min(axis=0) - 1
    maxx, maxy = allpts.max(axis=0) + 1
    xs = np.linspace(minx, maxx, res)
    ys = np.linspace(miny, maxy, res)
    X, Y = np.meshgrid(xs, ys)
    es = PolygonEdges([subject])
    ec = PolygonEdges([clipper])
    inside = es.contains_points(X.ravel(), Y.ravel()) & ec.contains_points(
        X.ravel(), Y.ravel()
    )
    cell = ((maxx - minx) / (res - 1)) * ((maxy - miny) / (res - 1))
    return inside.sum() * cell


class TestBasics:
    def test_box_box(self):
        out = gh.polygon_intersection(box(0, 0, 10, 10), box(5, 5, 20, 20))
        assert len(out) == 1
        assert gh.intersection_area(box(0, 0, 10, 10), box(5, 5, 20, 20)) == pytest.approx(25.0)

    def test_disjoint_and_contained(self):
        assert gh.polygon_intersection(box(0, 0, 1, 1), box(5, 5, 6, 6)) == []
        out = gh.polygon_intersection(box(0, 0, 10, 10), box(2, 2, 4, 4))
        assert len(out) == 1
        assert abs(gops.ring_area(out[0])) == pytest.approx(4.0)
        out2 = gh.polygon_intersection(box(2, 2, 4, 4), box(0, 0, 10, 10))
        assert abs(gops.ring_area(out2[0])) == pytest.approx(4.0)

    def test_triangle_box(self):
        tri = np.array([[0, 0], [10, 0], [0, 10], [0, 0]], float)
        a = gh.intersection_area(tri, box(0, 0, 5, 5))
        assert a == pytest.approx(50 - 12.5 - 12.5)

    def test_concave_two_components(self):
        # C-shape clipped by a bar crossing its opening → 2 pieces
        c_shape = np.array(
            [[0, 0], [10, 0], [10, 2], [3, 2], [3, 8], [10, 8], [10, 10],
             [0, 10], [0, 0]], float)
        bar = box(5, -1, 12, 11)
        out = gh.polygon_intersection(c_shape, bar)
        assert len(out) == 2
        total = sum(abs(gops.ring_area(r)) for r in out)
        # two bars: x∈[5,10], y∈[0,2] and y∈[8,10] → 2·(5·2)=20
        assert total == pytest.approx(20.0)

    def test_matches_convex_sh(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            # random convex quad (hull of 6 points) vs random box
            pts = rng.uniform(0, 20, (6, 2))
            hull = gops.convex_hull(pts)
            if len(hull) < 4:
                continue
            x0, y0 = rng.uniform(0, 10, 2)
            w, h = rng.uniform(3, 10, 2)
            sh = gops.clip_polygon_bbox(hull, x0, y0, x0 + w, y0 + h)
            sh_area = abs(gops.ring_area(sh)) if len(sh) else 0.0
            gh_area = gh.intersection_area(hull, box(x0, y0, x0 + w, y0 + h))
            assert gh_area == pytest.approx(sh_area, abs=1e-6)

    def test_random_concave_vs_raster_oracle(self):
        rng = np.random.default_rng(29)
        for trial in range(5):
            # star-ish concave polygon
            ang = np.sort(rng.uniform(0, 2 * np.pi, 9))
            rad = rng.uniform(2, 10, 9)
            subject = np.column_stack(
                [10 + rad * np.cos(ang), 10 + rad * np.sin(ang)]
            )
            subject = np.vstack([subject, subject[:1]])
            clipper = box(*rng.uniform(4, 8, 2), *rng.uniform(12, 16, 2))
            a = gh.intersection_area(subject, clipper)
            oracle = _raster_area(subject, clipper)
            assert a == pytest.approx(oracle, abs=max(0.05 * oracle, 0.3))

    def test_degenerate_touch_retries(self):
        # shared edge: perturbation fallback must return ≈0 or the
        # shared sliver, not crash
        a = gh.intersection_area(box(0, 0, 10, 10), box(10, 0, 20, 10))
        assert a == pytest.approx(0.0, abs=1e-3)


def test_general_overlay_stage(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.geom import wkb as gwkb
    from gdal_ray.stages.overlay import convex_overlay

    # concave L-shaped method polygon — convex path would be wrong here
    l_ring = np.array(
        [[0, 0], [10, 0], [10, 3], [3, 3], [3, 10], [0, 10], [0, 0]], float)
    method = pa.table(
        {"zone_id": pa.array([0], pa.int64()),
         "geometry": pa.array([gwkb.polygon_wkb(l_ring)], pa.binary())}
    )
    subject = pa.table(
        {"sid": pa.array([0], pa.int64()),
         "geometry": pa.array([gwkb.box_polygon_wkb(1, 1, 9, 9)], pa.binary())}
    )
    out = convex_overlay(
        rd.from_arrow(subject), method, mode="intersection",
        method_id_col="zone_id", general=True,
    ).to_pandas()
    assert len(out) == 1
    # box [1,9]^2 ∩ L = 8x2 bottom strip + 2x8 left strip - 2x2 overlap
    assert out.iloc[0]["overlay_area"] == pytest.approx(8 * 2 + 2 * 8 - 4)


class TestUnionDifference:
    def test_union_overlapping_boxes(self):
        a = box(0, 0, 10, 10)
        b = box(5, 5, 15, 15)
        rings = gh.polygon_union(a, b)
        assert len(rings) == 1
        assert abs(gops.ring_area(rings[0])) == pytest.approx(100 + 100 - 25)

    def test_union_disjoint(self):
        rings = gh.polygon_union(box(0, 0, 1, 1), box(5, 5, 6, 6))
        assert len(rings) == 2
        assert sum(abs(gops.ring_area(r)) for r in rings) == pytest.approx(2.0)

    def test_difference_overlapping(self):
        a = box(0, 0, 10, 10)
        b = box(5, 5, 15, 15)
        assert gh.difference_area(a, b) == pytest.approx(100 - 25)

    def test_difference_contained_makes_hole(self):
        a = box(0, 0, 10, 10)
        b = box(3, 3, 5, 5)
        rings = gh.polygon_difference(a, b)
        assert len(rings) == 2
        areas = sorted(gops.ring_area(r) for r in rings)
        assert areas[0] == pytest.approx(-4.0)   # CW hole
        assert areas[1] == pytest.approx(100.0)
        assert gh.difference_area(a, b) == pytest.approx(96.0)

    def test_difference_disjoint_and_swallowed(self):
        assert gh.difference_area(box(0, 0, 2, 2), box(5, 5, 6, 6)) == pytest.approx(4.0)
        assert gh.polygon_difference(box(3, 3, 4, 4), box(0, 0, 10, 10)) == []

    def test_identities_on_random_boxes(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            a = box(*rng.uniform(0, 5, 2), *rng.uniform(6, 12, 2))
            x0, y0 = rng.uniform(2, 8, 2)
            b = box(x0, y0, x0 + rng.uniform(1, 6), y0 + rng.uniform(1, 6))
            ia = gh.intersection_area(a, b)
            ua = gh.union_area(a, b)
            da = gh.difference_area(a, b)
            area_a = abs(gops.ring_area(a))
            area_b = abs(gops.ring_area(b))
            assert ua == pytest.approx(area_a + area_b - ia, abs=1e-6)
            assert da == pytest.approx(area_a - ia, abs=1e-6)


def test_symdifference():
    a = box(0, 0, 10, 10)
    b = box(5, 5, 15, 15)
    # A⊕B = A + B − 2·I = 100 + 100 − 50 = 150
    assert gh.symdifference_area(a, b) == pytest.approx(150.0)
    # disjoint: sum of areas
    assert gh.symdifference_area(box(0, 0, 2, 2), box(5, 5, 6, 6)) == pytest.approx(5.0)
    # identical-ish (offset to avoid degenerate touching): tiny ring area
    assert gh.symdifference_area(a, box(0.001, 0.001, 10.001, 10.001)) == pytest.approx(
        2 * (100.0 - 9.999 * 9.999), rel=1e-6
    )


def test_cell_partitioned_overlay_matches_direct(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.geom import wkb as gwkb
    from gdal_ray.stages.overlay import cell_partitioned_overlay

    rng = np.random.default_rng(37)
    def mk(n, seed_off):
        r = np.random.default_rng(seed_off)
        rows = []
        for i in range(n):
            x0 = r.uniform(-60, 40)
            y0 = r.uniform(-40, 30)
            w, h = r.uniform(3, 25, 2)
            rows.append({"pid": i, "geometry": gwkb.box_polygon_wkb(
                x0, y0, x0 + w, y0 + h)})
        return pa.Table.from_pylist(rows)

    A = mk(30, 1).rename_columns(["a_id", "geometry"])
    B = mk(25, 2).rename_columns(["b_id", "geometry"])
    out = cell_partitioned_overlay(
        rd.from_arrow(A), rd.from_arrow(B), left_id="a_id", right_id="b_id",
        zoom=4, num_partitions=4,
    ).to_pandas()
    # direct oracle: closed-form box intersection per pair
    import itertools

    expected = {}
    for ra, rb in itertools.product(A.to_pylist(), B.to_pylist()):
        ba = gwkb.bounds(ra["geometry"])
        bb = gwkb.bounds(rb["geometry"])
        ix = min(ba[2], bb[2]) - max(ba[0], bb[0])
        iy = min(ba[3], bb[3]) - max(ba[1], bb[1])
        if ix > 0 and iy > 0:
            expected[(ra["a_id"], rb["b_id"])] = ix * iy
    got = {(r["a_id"], r["b_id"]): r["overlay_area"]
           for _, r in out.iterrows()}
    assert set(got) == set(expected)       # each pair exactly once
    assert len(got) == len(out)            # no duplicate rows
    for k, v in expected.items():
        assert got[k] == pytest.approx(v, rel=1e-9)


def test_interlocking_concave_union_hole():
    """Union of two interlocking U-shapes produces a hole ring — the
    result must orient shells CCW and holes CW so signed-area sums are
    the true union area (round-2 ADVICE regression: the hole ring was
    being flipped positive, adding 36 instead of subtracting)."""
    import numpy as np

    from gdal_ray.geom.clip import polygon_union, union_area

    A = np.array(
        [(0, 0), (10, 0), (10, 6), (8, 6), (8, 2), (2, 2), (2, 6), (0, 6),
         (0, 0)], float)
    B = np.array(
        [(0, 10), (0, 4), (2, 4), (2, 8), (8, 8), (8, 4), (10, 4), (10, 10),
         (0, 10)], float)
    # truth: outer 10x10 square minus the 6x6 enclosed hole = 64
    assert union_area(A, B) == pytest.approx(64.0, abs=1e-5)
    rings = polygon_union(A, B)
    areas = sorted(gops.ring_area(r) for r in rings)
    assert areas[0] == pytest.approx(-36.0, abs=1e-5)   # hole, CW
    assert areas[-1] == pytest.approx(100.0, abs=1e-5)  # shell, CCW


def test_difference_components_all_ccw():
    """U minus a crossing slab = three disjoint shells — every ring
    must come out CCW (traversal direction alone gives mixed signs)."""
    import numpy as np

    from gdal_ray.geom.clip import polygon_difference

    U = np.array(
        [(0, 0), (10, 0), (10, 6), (8, 6), (8, 2), (2, 2), (2, 6), (0, 6),
         (0, 0)], float)
    slab = np.array(
        [(-1, 3), (11, 3), (11, 5), (-1, 5), (-1, 3)], float)
    rings = polygon_difference(U, slab)
    assert len(rings) == 3
    for r in rings:
        assert gops.ring_area(r) > 0
    assert sum(gops.ring_area(r) for r in rings) == pytest.approx(
        28.0, abs=1e-5)


class TestMultiHoleOverlay:
    def test_intersection_with_holes_closed_form(self):
        """Boxes with holes: inclusion-exclusion of rectangles gives
        the exact expected area."""
        import numpy as np

        from gdal_ray.geom.clip import (
            polygon_area_holes,
            polygon_intersection_holes,
        )

        def box(x0, y0, x1, y1):
            return np.array(
                [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)], float
            )

        # A: 10x10 with a 2x2 hole at (2..4, 2..4)
        A = [box(0, 0, 10, 10), box(2, 2, 4, 4)]
        # B: 8x8 shifted with a 2x2 hole at (5..7, 5..7)
        B = [box(3, 3, 11, 11), box(5, 5, 7, 7)]
        pieces = polygon_intersection_holes(A, B)
        got = polygon_area_holes(pieces)
        # shell∩shell = (3..10)x(3..10) = 49;
        # minus holeA∩region = (3..4)x(3..4) = 1;
        # minus holeB (inside region, disjoint from holeA) = 4
        assert got == 49 - 1 - 4

    def test_hole_fully_covering_piece(self):
        import numpy as np

        from gdal_ray.geom.clip import (
            polygon_area_holes,
            polygon_intersection_holes,
        )

        def box(x0, y0, x1, y1):
            return np.array(
                [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)], float
            )

        A = [box(0, 0, 4, 4), box(1, 1, 3, 3)]       # ring (donut)
        B = [box(1.25, 1.25, 2.75, 2.75)]            # inside the hole
        pieces = polygon_intersection_holes(A, B)
        assert polygon_area_holes(pieces) == 0.0
