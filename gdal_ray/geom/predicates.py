"""Vectorized geometry predicates (pure numpy).

Point-in-polygon follows the even-odd rule — the same rule GDAL's
rasterizer uses for polygon interiors (alg/llrasterize.cpp scanline
even-odd fill) — with explicit boundary inclusion so the predicate is
``intersects`` (a point on a shared edge matches BOTH neighboring
polygons, the FIXTURES.md §3 disambiguation; GEOS Intersects
semantics per ogr/ogrgeometry.cpp:569).
"""

from __future__ import annotations

import numpy as np


class PolygonEdges:
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

    def take(self, mask: np.ndarray) -> "PolygonEdges":
        """The edges selected by ``mask`` (``bounds`` kept)."""
        out = PolygonEdges([])
        out.x1, out.y1 = self.x1[mask], self.y1[mask]
        out.x2, out.y2 = self.x2[mask], self.y2[mask]
        out.bounds = self.bounds
        return out

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


def points_in_box(px, py, minx, miny, maxx, maxy) -> np.ndarray:
    """Boundary-inclusive box test (envelope pretest,
    ogrlayer.cpp:5361 envelope pre-filter)."""
    return (px >= minx) & (px <= maxx) & (py >= miny) & (py <= maxy)
