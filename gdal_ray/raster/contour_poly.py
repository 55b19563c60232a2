"""Contour POLYGONS (band areas between levels) and the distributed
band-area reduction — the `gdal_contour -p` role (reference:
alg/contour.cpp:569 polygon ring writer; values at pixel centers,
linear interpolation along cell edges, same sampling convention as
proximity.contour_segments).

Per cell (the square between 4 adjacent pixel centers) the region
{z >= L} is the marching-squares fill polygon: the cell-boundary walk
keeping inside corners and inserting edge crossings.  Its area is
computed for every cell at once (vectorized slot-walk shoelace);
band(L_a, L_b) area per cell = A(z >= L_a) - A(z >= L_b), which makes
the reduction additive — per-tile partials sum to the exact whole,
no polygon dissolve needed for the area product.  Saddle cells use
the single-cyclic-walk convention (documented; oracle fixtures are
saddle-free).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def cell_threshold_areas(arr: np.ndarray, level: float) -> np.ndarray:
    """(h-1, w-1) array: area of {z >= level} within each cell, in
    cell units (cell = 1x1 square between pixel centers)."""
    a = arr[:-1, :-1].astype(np.float64)  # corner (0,0)
    b = arr[:-1, 1:].astype(np.float64)   # corner (1,0)  x to the right
    c = arr[1:, 1:].astype(np.float64)    # corner (1,1)
    d = arr[1:, :-1].astype(np.float64)   # corner (0,1)
    ins = [v >= level for v in (a, b, c, d)]

    def cross_t(v0, v1):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (level - v0) / (v1 - v0)
        return np.clip(np.where(np.isfinite(t), t, 0.5), 0.0, 1.0)

    # walk: c0 (0,0) -> edge01 -> c1 (1,0) -> edge12 -> c2 (1,1)
    #       -> edge23 -> c3 (0,1) -> edge30 -> close
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    vals = (a, b, c, d)
    shape = a.shape
    xs = np.zeros((8,) + shape)
    ys = np.zeros((8,) + shape)
    valid = np.zeros((8,) + shape, dtype=bool)
    for i in range(4):
        j = (i + 1) % 4
        xs[2 * i] = corners[i][0]
        ys[2 * i] = corners[i][1]
        valid[2 * i] = ins[i]
        t = cross_t(vals[i], vals[j])
        crossing = ins[i] != ins[j]
        xs[2 * i + 1] = corners[i][0] + t * (corners[j][0] - corners[i][0])
        ys[2 * i + 1] = corners[i][1] + t * (corners[j][1] - corners[i][1])
        valid[2 * i + 1] = crossing
    # compact the cyclic point list: for invalid slots substitute the
    # previous valid point (repeated points contribute zero shoelace).
    # anchor: rotate so slot 0 holds the LAST valid point's value via
    # a doubled forward-fill pass.
    any_valid = valid.any(axis=0)
    fx = xs.copy()
    fy = ys.copy()
    for _ in range(2):  # two passes close the cycle
        for s in range(8):
            p = (s - 1) % 8
            sub = ~valid[s]
            fx[s] = np.where(sub, fx[p], xs[s])
            fy[s] = np.where(sub, fy[p], ys[s])
        xs, ys = fx.copy(), fy.copy()
    area = np.zeros(shape)
    for s in range(8):
        n = (s + 1) % 8
        area += xs[s] * ys[n] - xs[n] * ys[s]
    area = 0.5 * np.abs(area)
    return np.where(any_valid, area, 0.0)


def band_areas(arr: np.ndarray, levels, cell_area: float = 1.0) -> pa.Table:
    """→ (band, level_lo, level_hi, area): total area of each contour
    band [L_i, L_{i+1}) over the raster; the open-ended top band
    [L_last, inf) is included."""
    levels = list(levels)
    per_level = [cell_threshold_areas(arr, lv).sum() for lv in levels]
    rows = []
    for i in range(len(levels)):
        hi = per_level[i + 1] if i + 1 < len(levels) else 0.0
        rows.append(
            {
                "band": i,
                "level_lo": float(levels[i]),
                "level_hi": float(levels[i + 1]) if i + 1 < len(levels) else float("inf"),
                "area": float((per_level[i] - hi) * cell_area),
            }
        )
    return pa.Table.from_pylist(rows)


def band_area_partials_tile(
    row: dict, levels, n_blocks_x: int, n_blocks_y: int,
    cell_area: float = 1.0,
) -> pa.Table:
    """Per-tile partial band areas over a halo-exchanged tile row.

    Ownership rule: a tile owns every cell whose top-left pixel lies
    in its core.  The +1 pixel extension into the halo supplies the
    right/bottom cell corners — but ONLY where a real neighbor tile
    exists; at the global raster edge the extension is dropped (the
    replicated halo there would fabricate degenerate cells that the
    whole-array computation does not have)."""
    from gdal_ray.raster import model

    arr = model.tile_array(row)
    halo = int(row.get("halo", 0))
    h = arr.shape[0] - 2 * halo
    w = arr.shape[1] - 2 * halo
    ext_x = 1 if row["block_x"] + 1 < n_blocks_x else 0
    ext_y = 1 if row["block_y"] + 1 < n_blocks_y else 0
    sub = arr[halo : halo + h + ext_y, halo : halo + w + ext_x]
    levels = list(levels)
    per_level = [
        cell_threshold_areas(sub, lv).sum() if min(sub.shape) >= 2 else 0.0
        for lv in levels
    ]
    out = []
    for i in range(len(levels)):
        hi = per_level[i + 1] if i + 1 < len(levels) else 0.0
        out.append(
            {"band": i, "partial_area": float((per_level[i] - hi) * cell_area)}
        )
    return pa.Table.from_pylist(out)


def band_areas_tiles(
    tiles_ds, levels, n_blocks_x: int, n_blocks_y: int,
    cell_area: float = 1.0,
):
    """Distributed contour-band areas: halo exchange → per-tile
    partials (map_batches) → tiny groupby(band) sum. Additive by
    construction, so tiled == whole exactly."""
    from ray.data.aggregate import Sum

    from gdal_ray.raster import focal

    padded = focal.halo_exchange(tiles_ds, halo=1)

    def partials(batch: pa.Table) -> pa.Table:
        outs = [
            band_area_partials_tile(
                r, levels, n_blocks_x, n_blocks_y, cell_area
            )
            for r in batch.to_pylist()
        ]
        return pa.concat_tables(outs) if outs else pa.table(
            {"band": pa.array([], pa.int64()),
             "partial_area": pa.array([], pa.float64())}
        )

    return padded.map_batches(partials, batch_format="pyarrow").groupby(
        "band"
    ).aggregate(Sum("partial_area", alias_name="area"))
