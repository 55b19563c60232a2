"""Uniform-grid spatial index over polygon envelopes.

The Ray-side replacement for the reference's per-query structures
(CPLQuadTree, port/cpl_quad_tree.h:48; layer-algebra prepared-geometry
probe order, ogr/ogrsf_frmts/generic/ogrlayer.cpp:5361-5470): built
ONCE per actor from the broadcast small side, probed per batch.

Probe order reproduces the reference's semantics exactly:
envelope pretest (grid bucket + bbox check) → exact prepared-geometry
test (PolygonEdges.contains_points).
"""

from __future__ import annotations

import numpy as np

from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom.predicates import PolygonEdges


class GridPolygonIndex:
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
        self.edges: list[PolygonEdges] = [
            PolygonEdges(gwkb.polygon_rings(w)) for w in wkbs
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
            cx0 = int((b[i, 0] - self.minx) / self._dx)
            cx1 = int((b[i, 2] - self.minx) / self._dx)
            cy0 = int((b[i, 1] - self.miny) / self._dy)
            cy1 = int((b[i, 3] - self.miny) / self._dy)
            for cx in range(max(0, cx0), min(self.nx - 1, cx1) + 1):
                for cy in range(max(0, cy0), min(self.ny - 1, cy1) + 1):
                    tmp.setdefault(cx * self.ny + cy, []).append(i)
        self._buckets = {k: np.array(v, dtype=np.int64) for k, v in tmp.items()}

    def _bucket_of(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Grid bucket per point; -1 outside the grid or non-finite."""
        fx = np.floor((px - self.minx) / self._dx)
        fy = np.floor((py - self.miny) / self._dy)
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
