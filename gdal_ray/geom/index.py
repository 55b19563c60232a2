"""Uniform-grid spatial index over polygon envelopes.

The Ray-side replacement for the reference's per-query structures
(CPLQuadTree, port/cpl_quad_tree.h:48; layer-algebra prepared-geometry
probe order, ogr/ogrsf_frmts/generic/ogrlayer.cpp:5361-5470): built
ONCE per actor from the broadcast small side, probed per batch.

Probe order reproduces the reference's semantics exactly: envelope
pretest (grid bucket + bbox check) → exact prepared-geometry test.
Both run over flat arrays. The bucket → candidate lists are one CSR
layout (``offsets``, ``cand``); a batch expands to (point, candidate)
pairs over it, keeps the pairs whose polygon envelope holds the point,
and sends the survivors to the one even-odd kernel
(``PolygonEdges.contains`` over every polygon's edges, stacked), in
chunks of at most ``predicates.CHUNK`` elements.
"""

from __future__ import annotations

import numpy as np

from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom.predicates import PolygonEdges, expand, ragged


class GridPolygonIndex:
    """Bucketed envelope index: cell → polygon-id candidate list.

    Grid resolution defaults to √(#polygons) cells per axis over the
    data envelope (≈O(1) candidates per probe for uniform data; skew
    just lengthens candidate lists, never misses). An empty polygon,
    or one with a non-finite vertex, goes in no bucket and matches
    nothing (GEOS ``Intersects`` with EMPTY is false).
    """

    def __init__(
        self,
        wkbs: list[bytes],
        ids: np.ndarray | None = None,
        nx: int | None = None,
        ny: int | None = None,
    ):
        self.edges = PolygonEdges.stack([gwkb.polygon_rings(w) for w in wkbs])
        self.ids = (
            np.asarray(ids, dtype=np.int64)
            if ids is not None
            else np.arange(len(wkbs), dtype=np.int64)
        )
        b = self.edges.boxes
        self._pminx, self._pminy, self._pmaxx, self._pmaxy = b.T
        poly = np.flatnonzero(np.isfinite(b).all(axis=1))
        env = b[poly] if len(poly) else np.zeros((1, 4))
        self.minx, self.miny = env[:, 0].min(), env[:, 1].min()
        self.maxx, self.maxy = env[:, 2].max(), env[:, 3].max()
        n = max(1, len(wkbs))
        self.nx = nx or max(1, int(np.sqrt(n)) * 2)
        self.ny = ny or max(1, int(np.sqrt(n)) * 2)
        self._dx = max((self.maxx - self.minx) / self.nx, 1e-12)
        self._dy = max((self.maxy - self.miny) / self.ny, 1e-12)
        # every bucket a polygon's envelope covers, polygon order kept
        # within a bucket: CSR offsets (one slot per bucket) + cand
        # (the envelope's max edge lies in the last cell, as in _bucket_of)
        cx0 = np.minimum((b[poly, 0] - self.minx) / self._dx, self.nx - 1).astype(np.int64)
        cx1 = ((b[poly, 2] - self.minx) / self._dx).astype(np.int64)
        cy0 = np.minimum((b[poly, 1] - self.miny) / self._dy, self.ny - 1).astype(np.int64)
        cy1 = ((b[poly, 3] - self.miny) / self._dy).astype(np.int64)
        ncx = np.maximum(np.minimum(self.nx - 1, cx1) - cx0 + 1, 0)
        ncy = np.maximum(np.minimum(self.ny - 1, cy1) - cy0 + 1, 0)
        k, off = expand(np.zeros(len(poly), dtype=np.int64), ncx * ncy)
        key = (cx0[k] + off // ncy[k]) * self.ny + cy0[k] + off % ncy[k]
        self.offsets = np.r_[0, np.cumsum(
            np.bincount(key, minlength=self.nx * self.ny))]
        self.cand = poly[k[np.argsort(key, kind="stable")]]

    def _bucket_of(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Grid bucket per point; -1 outside the grid or non-finite. A
        point on the envelope's max edge (x == maxx or y == maxy) lies
        in the last cell."""
        with np.errstate(over="ignore"):  # a far point lands outside
            fx = np.floor((px - self.minx) / self._dx)
            fy = np.floor((py - self.miny) / self._dy)
        fx[(fx == self.nx) & (px <= self.maxx)] = self.nx - 1
        fy[(fy == self.ny) & (py <= self.maxy)] = self.ny - 1
        inside = (fx >= 0) & (fx < self.nx) & (fy >= 0) & (fy < self.ny)
        cx = np.where(inside, fx, 0).astype(np.int64)
        cy = np.where(inside, fy, 0).astype(np.int64)
        return np.where(inside, cx * self.ny + cy, -1)

    def query_points(self, px, py) -> tuple[np.ndarray, np.ndarray]:
        """All (point_index, polygon_id) pairs where polygon intersects
        point, ordered by bucket, candidate rank within the bucket,
        then point index."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        bk = self._bucket_of(px, py)
        pts = np.flatnonzero(bk >= 0)
        lo = self.offsets[bk[pts]]
        out_pts = [np.empty(0, dtype=np.int64)]
        out_slots = [np.empty(0, dtype=np.int64)]
        for k, slot in ragged(lo, self.offsets[bk[pts] + 1] - lo):
            pt, ci = pts[k], self.cand[slot]
            # envelope pretest then exact test (reference order)
            x, y = px[pt], py[pt]
            m = np.flatnonzero(
                (x >= self._pminx[ci])
                & (x <= self._pmaxx[ci])
                & (y >= self._pminy[ci])
                & (y <= self._pmaxy[ci])
            )
            hit = m[self.edges.contains(x[m], y[m], ci[m])]
            out_pts.append(pt[hit])
            out_slots.append(slot[hit])
        pt, slot = np.concatenate(out_pts), np.concatenate(out_slots)
        order = np.lexsort((pt, slot))
        return pt[order], self.ids[self.cand[slot[order]]]
