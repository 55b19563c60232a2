"""Tile-table raster model.

One row = one tile (block) of one band, carrying its georeference:
the GDAL dataset model (gcore/gdal_dataset.h:345 geotransform +
band/block structure, gcore/gdal_rasterband.h) flattened into a
relational table — the same reshaping GDAL itself performs in
``gdal raster as-features`` (apps/gdalalg_raster_as_features.cpp:49).

Geotransform convention (GDAL): ``X = gt[0] + px*gt[1] + py*gt[2]``,
``Y = gt[3] + px*gt[4] + py*gt[5]`` with (px, py) in pixel coords
(0,0 = top-left corner of top-left pixel).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

DTYPES = {
    "uint8": np.uint8,
    "int8": np.int8,
    "uint16": np.uint16,
    "int16": np.int16,
    "uint32": np.uint32,
    "int32": np.int32,
    "uint64": np.uint64,
    "int64": np.int64,
    "float32": np.float32,
    "float64": np.float64,
}


def tile_schema() -> pa.Schema:
    return pa.schema(
        [
            ("band", pa.int32()),
            ("block_x", pa.int32()),
            ("block_y", pa.int32()),
            ("x0", pa.int32()),
            ("y0", pa.int32()),
            ("width", pa.int32()),
            ("height", pa.int32()),
            ("crs", pa.string()),
            ("geotransform", pa.list_(pa.float64())),
            ("dtype", pa.string()),
            ("data", pa.binary()),
        ]
    )


def from_array(
    arr: np.ndarray,
    crs: str,
    geotransform: tuple[float, ...],
    band: int = 1,
    tile_size: int = 256,
) -> pa.Table:
    """2-D numpy array → tile table (row-major tiling)."""
    h, w = arr.shape
    rows = []
    dtype = str(arr.dtype)
    if dtype not in DTYPES:
        raise ValueError(f"unsupported raster dtype {dtype}")
    for by, y0 in enumerate(range(0, h, tile_size)):
        for bx, x0 in enumerate(range(0, w, tile_size)):
            block = np.ascontiguousarray(
                arr[y0 : y0 + tile_size, x0 : x0 + tile_size]
            )
            rows.append(
                {
                    "band": band,
                    "block_x": bx,
                    "block_y": by,
                    "x0": x0,
                    "y0": y0,
                    "width": block.shape[1],
                    "height": block.shape[0],
                    "crs": crs,
                    "geotransform": list(map(float, geotransform)),
                    "dtype": dtype,
                    "data": block.tobytes(),
                }
            )
    return pa.Table.from_pylist(rows, schema=tile_schema())


def tile_array(row: dict) -> np.ndarray:
    """One tile row (as dict) → 2-D numpy array."""
    dt = DTYPES[row.get("dtype", "uint8")]
    return np.frombuffer(row["data"], dtype=dt).reshape(
        row["height"], row["width"]
    )


def to_array(table: pa.Table, band: int = 1) -> np.ndarray:
    """Tile table → assembled 2-D array (small rasters / tests only —
    the distributed path never assembles)."""
    rows = [r for r in table.to_pylist() if r["band"] == band]
    if not rows:
        raise ValueError("no tiles for band")
    w = max(r["x0"] + r["width"] for r in rows)
    h = max(r["y0"] + r["height"] for r in rows)
    out = np.zeros((h, w), dtype=DTYPES[rows[0].get("dtype", "uint8")])
    for r in rows:
        out[r["y0"] : r["y0"] + r["height"], r["x0"] : r["x0"] + r["width"]] = (
            tile_array(r)
        )
    return out


def pixel_to_world(gt, px, py):
    """Pixel (corner) coords → world (GDALApplyGeoTransform)."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    return gt[0] + px * gt[1] + py * gt[2], gt[3] + px * gt[4] + py * gt[5]


def world_to_pixel(gt, x, y):
    """World → pixel coords (inverse geotransform, GDALInvGeoTransform
    semantics; general 6-coefficient inverse)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    det = gt[1] * gt[5] - gt[2] * gt[4]
    if det == 0:
        raise ValueError("non-invertible geotransform")
    dx = x - gt[0]
    dy = y - gt[3]
    px = (dx * gt[5] - dy * gt[2]) / det
    py = (dy * gt[1] - dx * gt[4]) / det
    return px, py


def make_grid(
    bounds: tuple[float, float, float, float],
    width: int,
    height: int,
    crs: str,
    dtype: str = "float64",
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Empty raster grid covering bounds (north-up geotransform)."""
    minx, miny, maxx, maxy = bounds
    gt = (minx, (maxx - minx) / width, 0.0, maxy, 0.0, -(maxy - miny) / height)
    return np.zeros((height, width), dtype=DTYPES[dtype]), gt
