"""Per-tile raster kernels: calc, reclassify, scale, stats.

Each is a pure-array function + a map_batches wrapper over tile rows
(SURVEY.md §2.2 raster rows):
- ``calc``      — band algebra expression over aligned tiles
  (apps/gdalalg_raster_calc.cpp muparser expressions → numpy eval on a
  restricted namespace);
- ``reclassify``— value remap table (apps/gdalalg_raster_reclassify.cpp);
- ``scale``     — linear rescale src→dst range incl. clip
  (apps/gdalalg_raster_scale.cpp / GDALTranslate -scale);
- ``stats``     — per-band min/max/mean/std/count via per-tile partial
  moments + combine (gcore/gdalrasterband.cpp ComputeStatistics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.raster import model

_SAFE_FUNCS = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "log": np.log,
    "log10": np.log10,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
    "floor": np.floor,
    "ceil": np.ceil,
}


_ALLOWED_AST = (
    "Expression", "BinOp", "UnaryOp", "Compare", "BoolOp", "IfExp",
    "Call", "Name", "Load", "Constant", "Tuple", "List",
    "Add", "Sub", "Mult", "Div", "FloorDiv", "Mod", "Pow",
    "USub", "UAdd", "Invert", "Not",
    "Lt", "LtE", "Gt", "GtE", "Eq", "NotEq", "And", "Or",
    "BitAnd", "BitOr", "BitXor", "LShift", "RShift",
)


def calc_expr(expr: str, arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate a band-algebra expression (variables = band names) in
    a restricted numpy namespace — the muparser role.

    The expression is AST-validated first: only arithmetic/comparison
    operators, plain names, and calls to the whitelisted functions are
    allowed — no attribute access, subscripts, lambdas or
    comprehensions, so the ``().__class__``-style namespace escapes of
    a bare eval are rejected up front (gdal_calc's muparser has the
    same trusted-operator surface; here it is enforced)."""
    import ast

    tree = ast.parse(expr, mode="eval")
    for node in ast.walk(tree):
        kind = type(node).__name__
        if kind not in _ALLOWED_AST:
            raise ValueError(f"calc expression: disallowed syntax {kind!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _SAFE_FUNCS:
                raise ValueError("calc expression: only whitelisted functions")
        if isinstance(node, ast.Name) and (
            node.id not in _SAFE_FUNCS and node.id not in arrays
        ):
            raise ValueError(f"calc expression: unknown name {node.id!r}")
    ns = dict(_SAFE_FUNCS)
    ns.update(arrays)
    return eval(  # noqa: S307 — AST-validated, restricted namespace
        compile(tree, "<calc>", "eval"), {"__builtins__": {}}, ns
    )


def reclassify(arr: np.ndarray, mapping: dict[float, float], default=None) -> np.ndarray:
    """Value remap; unmapped values keep (default=None) or get default."""
    out = (
        arr.astype(np.float64).copy()
        if default is None
        else np.full(arr.shape, default, dtype=np.float64)
    )
    for src, dst in mapping.items():
        out[arr == src] = dst
    return out


def scale(
    arr: np.ndarray,
    src_min: float,
    src_max: float,
    dst_min: float = 0.0,
    dst_max: float = 255.0,
    clip: bool = True,
) -> np.ndarray:
    """Linear rescale (GDALTranslate -scale semantics: linear map of
    [src_min, src_max] → [dst_min, dst_max])."""
    a = arr.astype(np.float64)
    ratio = (dst_max - dst_min) / max(src_max - src_min, 1e-300)
    out = (a - src_min) * ratio + dst_min
    if clip:
        out = np.clip(out, min(dst_min, dst_max), max(dst_min, dst_max))
    return out


def tile_stats_partial(batch: pa.Table) -> pa.Table:
    """Per-tile moment partials → combine with ``combine_stats``."""
    rows = []
    for row in batch.to_pylist():
        arr = model.tile_array(row).astype(np.float64)
        rows.append(
            {
                "band": row["band"],
                "n": arr.size,
                "sum": float(arr.sum()),
                "sum2": float((arr * arr).sum()),
                "min": float(arr.min()),
                "max": float(arr.max()),
            }
        )
    return pa.Table.from_pylist(rows)


def combine_stats(partials: pa.Table) -> dict:
    """Final min/max/mean/std per band (population std, GDAL
    ComputeStatistics semantics)."""
    import pandas as pd

    df = partials.to_pandas()
    out = {}
    for band, g in df.groupby("band"):
        n = g["n"].sum()
        mean = g["sum"].sum() / n
        var = g["sum2"].sum() / n - mean * mean
        out[int(band)] = {
            "min": g["min"].min(),
            "max": g["max"].max(),
            "mean": mean,
            "std": float(np.sqrt(max(var, 0.0))),
            "count": int(n),
        }
    return out


def unscale(arr: np.ndarray, scale_factor: float, offset: float) -> np.ndarray:
    """gdal_translate -unscale: apply the band's scale/offset metadata
    (true value = raw * scale + offset; GDALRasterBand::GetScale/
    GetOffset semantics)."""
    return arr.astype(np.float64) * scale_factor + offset


def set_type(arr: np.ndarray, dtype: str, clamp: bool = True) -> np.ndarray:
    """gdal raster set-type / -ot: convert with GDALCopyWords clamping
    semantics (out-of-range values clamp to the target range; NaN →
    0 for integer targets)."""
    dt = np.dtype(dtype)
    if dt.kind in ("i", "u"):
        info = np.iinfo(dt)
        v = np.nan_to_num(arr.astype(np.float64), nan=0.0)
        if clamp:
            v = np.clip(v, info.min, info.max)
        if arr.dtype.kind == "f":
            # GDALCopyWords rounds half AWAY from zero (+0.5 then
            # truncate), not banker's rounding — np.rint(0.5)==0
            # would diverge on exact .5 values (ADVICE r2).
            return np.trunc(v + np.copysign(0.5, v)).astype(dt)
        return np.clip(arr, info.min, info.max).astype(dt)
    return arr.astype(dt)


def nodata_to_alpha(
    arr: np.ndarray, nodata: float
) -> tuple[np.ndarray, np.ndarray]:
    """gdal raster nodata-to-alpha: returns (band, alpha) where alpha
    is 255 for valid pixels and 0 for nodata/NaN."""
    if np.isnan(nodata):
        valid = np.isfinite(arr)
    else:
        valid = np.isfinite(arr) & (arr != nodata)
    return arr, np.where(valid, 255, 0).astype(np.uint8)


def color_map(
    arr: np.ndarray, ramp: list[tuple[float, tuple[int, int, int]]],
    interpolate: bool = True,
) -> np.ndarray:
    """gdaldem color-relief: value → RGB via a sorted color ramp.
    ``interpolate=True`` blends linearly between ramp entries (the
    default color-relief behavior); False snaps to the nearest-below
    entry (exact-color mode). → (H, W, 3) uint8."""
    vals = np.array([v for v, _c in ramp], dtype=np.float64)
    cols = np.array([c for _v, c in ramp], dtype=np.float64)
    if (np.diff(vals) <= 0).any():
        raise ValueError("color ramp values must be strictly increasing")
    a = arr.astype(np.float64)
    idx = np.clip(np.searchsorted(vals, a, side="right") - 1, 0, len(vals) - 1)
    if not interpolate:
        out = cols[idx]
    else:
        hi = np.clip(idx + 1, 0, len(vals) - 1)
        denom = np.where(vals[hi] > vals[idx], vals[hi] - vals[idx], 1.0)
        t = np.clip((a - vals[idx]) / denom, 0.0, 1.0)
        out = cols[idx] + t[..., None] * (cols[hi] - cols[idx])
    return np.rint(out).astype(np.uint8)
