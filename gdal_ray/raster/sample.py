"""Vector-sample: raster value at arbitrary points, vectorized.

GDALInterpolateAtPoint semantics (alg/gdal_interpolateatpoint.cpp):
- input is PIXEL coordinates (x in [0, XSize], y in [0, YSize]);
  out-of-range → no value (null);
- **nearest** (:397): ``d = trunc(loc)``; points exactly on the
  right/bottom edge (within 1e-5) are nudged inside (:176-181);
- **bilinear** (:370-393): ``df = loc - 0.5``, ``d = floor(df)``,
  ``delta = df - d``; the 2×2 window is border-replicated (the
  drag-in-border loop == sampling at coordinates clamped to
  [0, size-1]); result = ((v00·(1−dx)+v01·dx)·(1−dy) +
  (v10·(1−dx)+v11·dx)·dy);
- nodata in any bilinear corner → null (:276-289);
- rasters smaller than 2×2 downgrade bilinear→nearest (:199-204).

``sample_points`` works on an assembled array (used per-tile with a
1-px halo in the distributed path); ``RasterSampler`` is the
map_batches stage over a broadcast (small) raster.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.raster import model


def sample_points(
    arr: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    method: str = "nearest",
    nodata: float | None = None,
):
    """→ (values float64, valid mask). px/py in pixel coordinates."""
    h, w = arr.shape
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if method == "bilinear" and (w < 2 or h < 2):
        method = "nearest"
    out = np.full(len(px), np.nan)
    if method == "nearest":
        x = px.copy()
        y = py.copy()
        x = np.where((x >= w) & (x <= w + 1e-5), x - 0.25, x)
        y = np.where((y >= h) & (y <= h + 1e-5), y - 0.25, y)
        ok = (x >= 0) & (x <= w) & (y >= 0) & (y <= h)
        xi = np.clip(x.astype(np.int64), 0, w - 1)
        yi = np.clip(y.astype(np.int64), 0, h - 1)
        vals = arr[yi, xi].astype(np.float64)
        if nodata is not None:
            ok &= vals != nodata
        out[ok] = vals[ok]
        return out, ok
    if method in ("cubic", "cubicspline"):
        if w < 4 or h < 4:
            return sample_points(arr, px, py, "bilinear", nodata)
        return _sample_4x4(arr, px, py, method, nodata)
    if method == "lanczos":
        if w < 6 or h < 6:
            return sample_points(arr, px, py, "bilinear", nodata)
        return _sample_lanczos(arr, px, py, nodata)
    if method != "bilinear":
        raise ValueError(f"unsupported method {method}")
    ok = (px >= 0) & (px <= w) & (py >= 0) & (py <= h)
    dfx = px - 0.5
    dfy = py - 0.5
    dx0 = np.floor(dfx).astype(np.int64)
    dy0 = np.floor(dfy).astype(np.int64)
    tx = dfx - dx0
    ty = dfy - dy0
    x0 = np.clip(dx0, 0, w - 1)
    x1 = np.clip(dx0 + 1, 0, w - 1)
    y0 = np.clip(dy0, 0, h - 1)
    y1 = np.clip(dy0 + 1, 0, h - 1)
    v00 = arr[y0, x0].astype(np.float64)
    v01 = arr[y0, x1].astype(np.float64)
    v10 = arr[y1, x0].astype(np.float64)
    v11 = arr[y1, x1].astype(np.float64)
    if nodata is not None:
        ok &= (v00 != nodata) & (v01 != nodata) & (v10 != nodata) & (v11 != nodata)
    z1 = v00 * (1 - tx) + v01 * tx
    z2 = v10 * (1 - tx) + v11 * tx
    vals = z1 * (1 - ty) + z2 * ty
    out[ok] = vals[ok]
    return out, ok


def _cubic_kernel(x: np.ndarray) -> np.ndarray:
    """Catmull-Rom (GDAL GRIORA_Cubic weight function,
    gdal_interpolateatpoint.cpp CubicKernel / gdalwarpkernel.cpp
    CubicConvolution with a = -0.5)."""
    ax = np.abs(x)
    return np.where(
        ax <= 1.0,
        1.5 * ax**3 - 2.5 * ax**2 + 1.0,
        np.where(ax < 2.0, -0.5 * ax**3 + 2.5 * ax**2 - 4.0 * ax + 2.0, 0.0),
    )


def _cubic_spline_kernel(x: np.ndarray) -> np.ndarray:
    """Cubic B-spline (GRIORA_CubicSpline weight function)."""
    ax = np.abs(x)
    return np.where(
        ax <= 1.0,
        2.0 / 3.0 - ax**2 + 0.5 * ax**3,
        np.where(ax < 2.0, ((2.0 - ax) ** 3) / 6.0, 0.0),
    )


def _sample_4x4(arr, px, py, method, nodata):
    """4×4 weighted kernel (apply4x4Kernel semantics: weight-normalized
    sum, nodata samples skipped, border replicated)."""
    h, w = arr.shape
    ok = (px >= 0) & (px <= w) & (py >= 0) & (py <= h)
    dfx = px - 0.5
    dfy = py - 0.5
    dx0 = np.floor(dfx).astype(np.int64)
    dy0 = np.floor(dfy).astype(np.int64)
    tx = dfx - dx0
    ty = dfy - dy0
    kern = _cubic_spline_kernel if method == "cubicspline" else _cubic_kernel
    num = np.zeros(len(px))
    den = np.zeros(len(px))
    for ky in range(-1, 3):
        wy = kern(ky - ty)
        yy = np.clip(dy0 + ky, 0, h - 1)
        for kx in range(-1, 3):
            wx = kern(kx - tx)
            xx = np.clip(dx0 + kx, 0, w - 1)
            v = arr[yy, xx].astype(np.float64)
            wgt = wx * wy
            if nodata is not None:
                valid = v != nodata
                wgt = np.where(valid, wgt, 0.0)
                v = np.where(valid, v, 0.0)
            num += v * wgt
            den += wgt
    ok &= den != 0.0
    out = np.full(len(px), np.nan)
    out[ok] = num[ok] / den[ok]
    return out, ok


def _lanczos_kernel(x: np.ndarray, a: int = 3) -> np.ndarray:
    """Lanczos windowed sinc (GDAL GRA_Lanczos, 6×6 window a=3 —
    alg/gdalwarper.h:35 kernel list, weight fn gdalwarpkernel.cpp)."""
    ax = np.abs(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        v = np.sinc(x) * np.sinc(x / a)
    return np.where(ax < a, v, 0.0)


def _sample_lanczos(arr, px, py, nodata, a: int = 3):
    """6×6 Lanczos window, weight-normalized, border-replicated."""
    h, w = arr.shape
    ok = (px >= 0) & (px <= w) & (py >= 0) & (py <= h)
    dfx = px - 0.5
    dfy = py - 0.5
    dx0 = np.floor(dfx).astype(np.int64)
    dy0 = np.floor(dfy).astype(np.int64)
    tx = dfx - dx0
    ty = dfy - dy0
    num = np.zeros(len(px))
    den = np.zeros(len(px))
    for ky in range(-a + 1, a + 1):
        wy = _lanczos_kernel(ky - ty, a)
        yy = np.clip(dy0 + ky, 0, h - 1)
        for kx in range(-a + 1, a + 1):
            wx = _lanczos_kernel(kx - tx, a)
            xx = np.clip(dx0 + kx, 0, w - 1)
            v = arr[yy, xx].astype(np.float64)
            wgt = wx * wy
            if nodata is not None:
                valid = v != nodata
                wgt = np.where(valid, wgt, 0.0)
                v = np.where(valid, v, 0.0)
            num += v * wgt
            den += wgt
    ok &= den != 0.0
    out = np.full(len(px), np.nan)
    out[ok] = num[ok] / den[ok]
    return out, ok


class RasterSampler:
    """map_batches stage: sample a broadcast raster at each row's
    world coordinates (the ``gdal raster pixel-info`` operator,
    apps/gdalalg_raster_pixel_info.cpp / gdallocationinfo).

    Constructor args: raster = (array, geotransform) tuple, pa.Table
    tile table, or ObjectRef of either; coordinates are world (x, y)
    in the raster CRS (columns ``x_col``/``y_col``).
    """

    def __init__(
        self,
        raster,
        method: str = "nearest",
        x_col: str = "x",
        y_col: str = "y",
        out_col: str = "sampled",
        nodata: float | None = None,
    ):
        from gdal_ray.stages.cache import resolve_broadcast

        raster = resolve_broadcast(raster)
        if isinstance(raster, pa.Table):
            self.arr = model.to_array(raster)
            self.gt = tuple(raster["geotransform"][0].as_py())
        else:
            self.arr, self.gt = raster
        self.method = method
        self.x_col = x_col
        self.y_col = y_col
        self.out_col = out_col
        self.nodata = nodata

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch[self.x_col].to_numpy(zero_copy_only=False)
        y = batch[self.y_col].to_numpy(zero_copy_only=False)
        px, py = model.world_to_pixel(self.gt, x, y)
        vals, ok = sample_points(
            self.arr, px, py, method=self.method, nodata=self.nodata
        )
        masked = pa.array(
            np.where(ok, vals, np.nan), pa.float64(), mask=~ok
        )
        return batch.append_column(self.out_col, masked)
