"""Mosaic — merge overlapping rasters into one grid
(gdalbuildvrt / `gdal raster mosaic`, apps/gdalbuildvrt_lib.cpp:2051).

Reference resolution rule: later sources paint over earlier ones
(last-wins per pixel), nodata pixels don't paint.

The single-array compositor. Its distributed caller is
``raster.vrt.read_vrt``: each source contributes windows keyed by
destination block, and one ``map_keys`` call per block composites
them in source order — no full materialization of any single raster.
"""

from __future__ import annotations

import numpy as np

from gdal_ray.raster import model


def mosaic_arrays(
    sources: list[tuple[np.ndarray, tuple[float, ...]]],
    dst_gt: tuple[float, ...],
    dst_shape: tuple[int, int],
    nodata: float | None = None,
    init: float = 0.0,
) -> np.ndarray:
    """Paint sources (in order) onto the destination grid. Sources
    must share the dst CRS; alignment via geotransforms (nearest
    pixel)."""
    out = np.full(dst_shape, init, dtype=np.float64)
    h, w = dst_shape
    yy, xx = np.meshgrid(
        np.arange(h) + 0.5, np.arange(w) + 0.5, indexing="ij"
    )
    wx, wy = model.pixel_to_world(dst_gt, xx.ravel(), yy.ravel())
    for arr, gt in sources:
        px, py = model.world_to_pixel(gt, wx, wy)
        xi = np.floor(px).astype(np.int64)
        yi = np.floor(py).astype(np.int64)
        ok = (xi >= 0) & (xi < arr.shape[1]) & (yi >= 0) & (yi < arr.shape[0])
        vals = np.full(len(wx), np.nan)
        vals[ok] = arr[yi[ok], xi[ok]].astype(np.float64)
        paint = ok.copy()
        if nodata is not None:
            paint &= vals != nodata
        flat = out.ravel()
        flat[paint] = vals[paint]
        out = flat.reshape(dst_shape)
    return out
