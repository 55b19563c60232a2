"""The vectorised point-in-polygon probe (``GridPolygonIndex`` over
``PolygonEdges.contains``) against the per-bucket loop it replaced:
same (point, polygon) pairs in the same order, bit for bit, on
adversarial layouts; bounded memory; one kernel call per chunk."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gdal_ray import fixtures
from gdal_ray.geom import predicates
from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom.index import GridPolygonIndex
from gdal_ray.geom.predicates import PolygonEdges


# --- the per-bucket loop this probe replaced, kept verbatim as the oracle


class _LoopPolygonEdges:
    """Precomputed edge arrays of one polygon (all rings, even-odd).

    Built once (per broadcast polygon, in an actor's ``__init__``);
    ``contains_points`` is vectorized over N probe points with an
    (E×N) broadcast — E (vertex count) is small for admin polygons.
    """

    __slots__ = ("x1", "y1", "x2", "y2", "bounds")

    def __init__(self, rings: list[np.ndarray]):
        xs1, ys1, xs2, ys2 = [], [], [], []
        for ring in rings:
            r = np.asarray(ring, dtype=np.float64)
            if len(r) < 2:
                continue
            # ensure closure (GDAL auto-closes rings on import)
            if (r[0] != r[-1]).any():
                r = np.vstack([r, r[:1]])
            xs1.append(r[:-1, 0])
            ys1.append(r[:-1, 1])
            xs2.append(r[1:, 0])
            ys2.append(r[1:, 1])
        self.x1 = np.concatenate(xs1) if xs1 else np.empty(0)
        self.y1 = np.concatenate(ys1) if ys1 else np.empty(0)
        self.x2 = np.concatenate(xs2) if xs2 else np.empty(0)
        self.y2 = np.concatenate(ys2) if ys2 else np.empty(0)
        allx = np.concatenate([self.x1, self.x2]) if len(self.x1) else np.empty(0)
        ally = np.concatenate([self.y1, self.y2]) if len(self.y1) else np.empty(0)
        self.bounds = (
            (allx.min(), ally.min(), allx.max(), ally.max())
            if len(allx)
            else (np.inf, np.inf, -np.inf, -np.inf)
        )

    def contains_points(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Boundary-inclusive even-odd test, vectorized over points."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        if len(self.x1) == 0 or len(px) == 0:
            return np.zeros(len(px), dtype=bool)
        x1 = self.x1[:, None]
        y1 = self.y1[:, None]
        x2 = self.x2[:, None]
        y2 = self.y2[:, None]
        pxb = px[None, :]
        pyb = py[None, :]

        # on-edge: zero cross product + inside the segment envelope
        cross = (x2 - x1) * (pyb - y1) - (y2 - y1) * (pxb - x1)
        on_edge = (
            (cross == 0.0)
            & (pxb >= np.minimum(x1, x2))
            & (pxb <= np.maximum(x1, x2))
            & (pyb >= np.minimum(y1, y2))
            & (pyb <= np.maximum(y1, y2))
        ).any(axis=0)

        # even-odd crossing count (half-open rule avoids double-count at
        # vertices): edge crosses the horizontal ray at py
        straddles = (y1 > pyb) != (y2 > pyb)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (pyb - y1) * (x2 - x1) / (y2 - y1)
        crossings = (straddles & (pxb < xint)).sum(axis=0)
        return on_edge | (crossings % 2 == 1)


class _LoopGridPolygonIndex:
    """Bucketed envelope index: cell → polygon-id candidate list.

    Grid resolution defaults to √(#polygons) cells per axis over the
    data envelope (≈O(1) candidates per probe for uniform data; skew
    just lengthens candidate lists, never misses).
    """

    def __init__(
        self,
        wkbs: list[bytes],
        ids: np.ndarray | None = None,
        nx: int | None = None,
        ny: int | None = None,
    ):
        self.edges: list[_LoopPolygonEdges] = [
            _LoopPolygonEdges(gwkb.polygon_rings(w)) for w in wkbs
        ]
        self.ids = (
            np.asarray(ids, dtype=np.int64)
            if ids is not None
            else np.arange(len(wkbs), dtype=np.int64)
        )
        b = np.array([e.bounds for e in self.edges], dtype=np.float64).reshape(
            -1, 4
        )
        self._pminx, self._pminy, self._pmaxx, self._pmaxy = b.T
        self.minx, self.miny = b[:, 0].min(), b[:, 1].min()
        self.maxx, self.maxy = b[:, 2].max(), b[:, 3].max()
        n = max(1, len(wkbs))
        self.nx = nx or max(1, int(np.sqrt(n)) * 2)
        self.ny = ny or max(1, int(np.sqrt(n)) * 2)
        self._dx = max((self.maxx - self.minx) / self.nx, 1e-12)
        self._dy = max((self.maxy - self.miny) / self.ny, 1e-12)
        # bucket → np.array of polygon indices
        self._buckets: dict[int, np.ndarray] = {}
        tmp: dict[int, list[int]] = {}
        for i in range(len(wkbs)):
            cx0 = int(min((b[i, 0] - self.minx) / self._dx, self.nx - 1))
            cx1 = int((b[i, 2] - self.minx) / self._dx)
            cy0 = int(min((b[i, 1] - self.miny) / self._dy, self.ny - 1))
            cy1 = int((b[i, 3] - self.miny) / self._dy)
            for cx in range(max(0, cx0), min(self.nx - 1, cx1) + 1):
                for cy in range(max(0, cy0), min(self.ny - 1, cy1) + 1):
                    tmp.setdefault(cx * self.ny + cy, []).append(i)
        self._buckets = {k: np.array(v, dtype=np.int64) for k, v in tmp.items()}

    def _bucket_of(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Grid bucket per point; -1 outside the grid or non-finite."""
        fx = np.floor((px - self.minx) / self._dx)
        fy = np.floor((py - self.miny) / self._dy)
        # the envelope's max edge lies in the last cell
        fx[(fx == self.nx) & (px <= self.maxx)] = self.nx - 1
        fy[(fy == self.ny) & (py <= self.maxy)] = self.ny - 1
        inside = (fx >= 0) & (fx < self.nx) & (fy >= 0) & (fy < self.ny)
        cx = np.where(inside, fx, 0).astype(np.int64)
        cy = np.where(inside, fy, 0).astype(np.int64)
        return np.where(inside, cx * self.ny + cy, -1)

    def query_points(self, px, py) -> tuple[np.ndarray, np.ndarray]:
        """All (point_index, polygon_id) pairs where polygon intersects
        point. Vectorized: points grouped by bucket, then by candidate
        polygon — exact tests run as one matrix op per polygon."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        if len(px) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        buckets = self._bucket_of(px, py)
        out_pts: list[np.ndarray] = []
        out_ids: list[np.ndarray] = []
        order = np.argsort(buckets, kind="stable")
        sb = buckets[order]
        starts = np.flatnonzero(np.r_[True, sb[1:] != sb[:-1]])
        ends = np.r_[starts[1:], len(sb)]
        for s, e in zip(starts, ends):
            bk = sb[s]
            if bk < 0:
                continue
            cand = self._buckets.get(int(bk))
            if cand is None:
                continue
            pts = order[s:e]
            bx, by = px[pts], py[pts]
            for ci in cand:
                # envelope pretest then exact test (reference order)
                m = (
                    (bx >= self._pminx[ci])
                    & (bx <= self._pmaxx[ci])
                    & (by >= self._pminy[ci])
                    & (by <= self._pmaxy[ci])
                )
                if not m.any():
                    continue
                sel = pts[m]
                hit = self.edges[ci].contains_points(bx[m], by[m])
                if hit.any():
                    out_pts.append(sel[hit])
                    out_ids.append(np.full(int(hit.sum()), self.ids[ci]))
        if not out_pts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(out_pts), np.concatenate(out_ids)


# --- adversarial layouts


def _closed(ring):
    r = np.asarray(ring, dtype=np.float64)
    return np.vstack([r, r[:1]])


def _star(rng, n, cx, cy, r0, r1):
    """A concave ring of n vertices on half-unit lattice points."""
    t = np.sort(rng.uniform(0, 2 * np.pi, n))
    rad = rng.uniform(r0, r1, n)
    return _closed(np.round(np.c_[cx + rad * np.cos(t), cy + rad * np.sin(t)] * 2) / 2)


def _polygon(rng, kind):
    x, y = rng.integers(0, 10, 2).astype(float)
    w, h = rng.integers(1, 5, 2).astype(float)
    box = [[x, y], [x + w, y], [x + w, y + h], [x, y + h]]
    if kind == "box":
        return gwkb.polygon_wkb(_closed(box))
    if kind == "holed":  # a hole whose edges may touch the shell's
        hx, hy = x + rng.uniform(0, w / 2), y + rng.uniform(0, h / 2)
        hole = [[hx, hy], [hx, y + h], [x + w, y + h], [x + w, hy]]
        return gwkb.polygon_wkb(_closed(box), [_closed(hole)])
    if kind == "concave":
        return gwkb.polygon_wkb(_star(rng, int(rng.integers(5, 40)), x, y, 0.5, 4))
    if kind == "zero_area":  # collinear ring, or a box with no width
        ring = ([[x, y], [x + w, y], [x + w / 2, y]] if rng.random() < 0.5
                else [[x, y], [x, y + h], [x, y + h / 2]])
        return gwkb.polygon_wkb(_closed(ring))
    if kind == "spanning":  # over many buckets, many edges
        return gwkb.polygon_wkb(_star(rng, int(rng.integers(40, 400)), 7, 7, 2, 9))
    # two boxes as one multipolygon, the second possibly overlapping
    x2, y2 = rng.integers(0, 12, 2).astype(float)
    other = [[x2, y2], [x2 + 1, y2], [x2 + 1, y2 + 2], [x2, y2 + 2]]
    return gwkb.multipolygon_wkb([(_closed(box), []), (_closed(other), [])])


_KINDS = ["box", "holed", "concave", "zero_area", "spanning", "multi"]


@st.composite
def _pip_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=14))
    wkbs = [_polygon(rng, k) for k in kinds]
    if draw(st.booleans()):  # exact duplicates: shared edges everywhere
        wkbs += wkbs[: int(rng.integers(1, len(wkbs) + 1))]
    ids = (rng.permutation(len(wkbs)).astype(np.int64) * 7 - 3
           if draw(st.booleans()) else None)
    grid = draw(st.sampled_from([None, (1, 1), (3, 2), (17, 9)]))
    n = int(rng.integers(1, 300))
    # lattice points: vertices and edges; half-lattice: edge midpoints
    px = np.round(rng.uniform(-2, 16, n) * 2) / 2
    py = np.round(rng.uniform(-2, 16, n) * 2) / 2
    fine = rng.random(n) < 0.3
    px[fine] = rng.uniform(-2, 16, fine.sum())
    px = np.append(px, [np.nan, 1.0, np.inf, -np.inf, 1e300, -50.0])
    py = np.append(py, [1.0, np.nan, 1.0, 2.0, 1.0, -50.0])
    chunk = draw(st.sampled_from([13, 257, predicates.CHUNK]))
    return wkbs, ids, grid, px, py, chunk


def _assert_same(wkbs, px, py, ids=None, grid=None):
    nx, ny = grid or (None, None)
    old = _LoopGridPolygonIndex(wkbs, ids=ids, nx=nx, ny=ny)
    new = GridPolygonIndex(wkbs, ids=ids, nx=nx, ny=ny)
    # points on the grid-cell lines of this index
    gx = old.minx + old._dx * np.arange(old.nx + 1)
    gy = old.miny + old._dy * np.arange(old.ny + 1)
    px = np.concatenate([px, gx, np.resize(gx, len(gy))])
    py = np.concatenate([py, np.resize(gy, len(gx)), gy])
    want, got = old.query_points(px, py), new.query_points(px, py)
    for w, g in zip(want, got):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
    return got


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_pip_case())
def test_query_points_matches_the_loop(case):
    """Same (pts, ids) arrays in the same order as the per-bucket loop,
    with chunks of a few (probe, edge) elements."""
    wkbs, ids, grid, px, py, chunk = case
    with mock.patch.object(predicates, "CHUNK", chunk):
        _assert_same(wkbs, px, py, ids, grid)


def test_chunk_boundary_at_full_chunk_size():
    """One comb polygon whose teeth span its whole height (its slabs
    hold every edge) against enough points that the (pair, edge) work
    passes 2**18 elements, next to boxes sharing its edges."""
    teeth = 700
    top = np.c_[np.arange(2 * teeth + 1) / 2.0, np.tile([0.0, 10.0], teeth + 1)[:2 * teeth + 1]]
    comb = _closed(np.vstack([top, [[teeth, -1.0], [0.0, -1.0]]]))
    wkbs = [gwkb.polygon_wkb(comb), gwkb.box_polygon_wkb(0, -1, 5, 0),
            gwkb.box_polygon_wkb(0, -3, teeth, -1)]
    rng = np.random.default_rng(3)
    px = np.r_[rng.uniform(0, teeth, 400), np.arange(0, teeth, 0.5)]
    py = np.r_[rng.uniform(-3, 10, 400), np.full(2 * teeth, 5.0)]
    pe = PolygonEdges(gwkb.polygon_rings(wkbs[0]))
    pe.contains_points(px, py)  # slices it
    assert len(px) * len(pe.slab_edge) / pe.nslab[0] > predicates.CHUNK
    pts, _ = _assert_same(wkbs, px, py)
    assert len(pts) > 500


def test_query_points_on_the_benchmark_boxes_matches_the_loop():
    b = fixtures.gen_boundaries()["geometry"].to_pylist()
    px, py = _continuous_points(11)
    pts, _ = _assert_same(b, px, py)
    assert len(pts) > 1000


# --- memory and the kernel-call count


def _circle(n, r):
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return _closed(np.c_[r * np.cos(t), r * np.sin(t)])


def test_contains_points_memory_bounded():
    """A 20k-vertex ring against 100k points: the dense edges × points
    temporaries of the old test would be 16 GB each."""
    ring = _circle(20_000, 10.0)
    rng = np.random.default_rng(0)
    rad, t = rng.uniform(0, 12, 100_000), rng.uniform(0, 2 * np.pi, 100_000)
    px, py = rad * np.cos(t), rad * np.sin(t)
    edges = PolygonEdges([ring])
    tracemalloc.start()
    try:
        inside = edges.contains_points(px, py)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    # the polygon's inscribed and circumscribed radii bracket the answer
    assert inside[rad < 10.0 * np.cos(np.pi / 20_000)].all()
    assert not inside[rad > 10.0].any()


def _continuous_points(seed, rows=6250):
    """The geotag_continuous layout: 80 % global uniform, 20 % a 1°
    Gaussian around the hot city."""
    rng = np.random.default_rng(seed)
    lon = rng.uniform(-180.0, 180.0, rows)
    lat = rng.uniform(-85.0, 85.0, rows)
    hot = rows // 5
    lon[:hot] = np.clip(rng.normal(106.8456, 1.0, hot), -179.9, 179.9)
    lat[:hot] = np.clip(rng.normal(-6.2088, 1.0, hot), -85.0, 85.0)
    return lon, lat


def test_edge_kernel_runs_once_per_chunk_not_per_bucket():
    idx = GridPolygonIndex(fixtures.gen_boundaries()["geometry"].to_pylist())
    px, py = _continuous_points(11)
    sizes = []
    real = predicates.edge_terms

    def counted(*args):
        sizes.append(len(args[0]))
        return real(*args)

    with mock.patch.object(predicates, "edge_terms", counted):
        pts, _ = idx.query_points(px, py)
    pair_edges = sum(sizes)
    assert len(pts) > 1000
    assert 1 <= len(sizes) <= math.ceil(pair_edges / predicates.CHUNK)
    buckets = idx._bucket_of(px, py)
    assert len(sizes) < len(np.unique(buckets[buckets >= 0]))
    # no (pair, edge) element beyond the envelope survivors' edges
    x, y = px[:, None], py[:, None]
    env = ((x >= idx._pminx) & (x <= idx._pmaxx)
           & (y >= idx._pminy) & (y <= idx._pmaxy))
    assert pair_edges <= 4 * env.sum()


# --- empty polygons


_EMPTY = gwkb.collection_wkb(gwkb.POLYGON, [])
_NAN = gwkb.polygon_wkb(np.full((4, 2), np.nan))
_INF = gwkb.polygon_wkb(_closed([[0, 0], [np.inf, 0], [0, 1]]))
_BOX = gwkb.box_polygon_wkb(0, 0, 1, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("wkbs,want", [
    ([_BOX, _EMPTY], [(0, 0), (2, 0)]),
    ([_EMPTY, _BOX, _NAN], [(0, 1), (2, 1)]),
    ([_INF, _BOX], [(0, 1), (2, 1)]),
    ([_EMPTY], []),
    ([_EMPTY, _NAN, _INF], []),
    ([], []),
])
def test_empty_polygons_match_nothing(wkbs, want):
    idx = GridPolygonIndex(wkbs)
    pts, ids = idx.query_points([0.5, 5.0, 0.0, np.nan, 1e300],
                                [0.5, 5.0, 0.5, 0.5, 0.5])
    order = np.lexsort((ids, pts))
    pts, ids = pts[order], ids[order]
    assert list(zip(pts.tolist(), ids.tolist())) == want


def test_empty_polygons_through_pip_joiner():
    from gdal_ray.stages.join import PIPJoiner

    polys = pa.table({"admin_id": pa.array([7, 8, 9], pa.int64()),
                      "geometry": pa.array([_EMPTY, _BOX, _NAN], pa.binary())})
    batch = pa.table({"lon": [0.5, 3.0, 0.0], "lat": [0.5, 3.0, 0.5]})
    out = PIPJoiner(polys, id_cols=("admin_id",))(batch).to_pydict()
    assert sorted(zip(out["lon"], out["lat"], out["admin_id"])) == [
        (0.0, 0.5, 8), (0.5, 0.5, 8)]
    left = PIPJoiner(polys, id_cols=("admin_id",), keep_unmatched=True)(batch)
    assert left.to_pydict()["admin_id"] == [8, 8, None]
    only_empty = PIPJoiner(polys.slice(0, 1), id_cols=("admin_id",))(batch)
    assert only_empty.num_rows == 0


# --- the envelope's max edge


def test_points_on_the_envelope_max_edge():
    idx = GridPolygonIndex([gwkb.box_polygon_wkb(0, 0, 1, 1), gwkb.box_polygon_wkb(2, 0, 3, 1)])
    pts, ids = idx.query_points([3.0, 0.5, 2.5], [0.5, 1.0, 0.5])
    assert sorted(zip(pts.tolist(), ids.tolist())) == [(0, 1), (1, 0), (2, 1)]
    # zero-width polygons lying on the max edges
    idx = GridPolygonIndex([gwkb.box_polygon_wkb(0, 0, 1, 1), gwkb.box_polygon_wkb(1, 0, 1, 1),
                            gwkb.box_polygon_wkb(0, 1, 1, 1)])
    pts, ids = idx.query_points([1.0, 0.5, 1.0], [0.5, 1.0, 1.0])
    assert sorted(zip(pts.tolist(), ids.tolist())) == [
        (0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_pip_joiner_on_the_top_edge_of_the_admin_grid():
    """Points at lat 60.0 (the top edge of the top row of admin boxes)
    and at the largest max x match every box that holds them,
    boundary included."""
    from gdal_ray.stages.join import PIPJoiner

    boxes = np.array(fixtures.boundary_boxes())
    lon = np.r_[np.linspace(-80.0, 80.0, 33), boxes[:, 2].max()]
    lat = np.r_[np.full(33, 60.0), boxes[np.argmax(boxes[:, 2]), 1]]
    out = PIPJoiner(fixtures.gen_boundaries(), id_cols=("admin_id",))(
        pa.table({"lon": lon, "lat": lat, "i": np.arange(len(lon))})).to_pydict()
    got = sorted(zip(out["i"], out["admin_id"]))
    inside = ((lon[:, None] >= boxes[:, 0]) & (lon[:, None] <= boxes[:, 2])
              & (lat[:, None] >= boxes[:, 1]) & (lat[:, None] <= boxes[:, 3]))
    want = sorted(zip(*map(np.ndarray.tolist, np.nonzero(inside))))
    assert got == want
    assert {i for i, _ in got} == set(range(len(lon)))
