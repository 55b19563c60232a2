"""Zonal statistics — the raster×polygon join (alg/zonal.cpp).

Reference semantics (alg/zonal.cpp:118-131 strategies, :651 stats):
per zone polygon, statistics of the value-raster pixels whose centers
fall in the zone (whole-pixel version; coverage-fraction weighting is
a documented non-goal for v0). Our shape = the RASTER_SEQUENTIAL
strategy: per tile, burn zone ids → accumulate per-zone partial
moments with ``np.bincount`` → groupby(zone) combine — the classic
partial+final aggregate, no all-to-all of pixel data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.raster import model, rasterize


def zonal_partials(
    values: np.ndarray,
    zones: np.ndarray,
    n_zones: int,
) -> pa.Table:
    """One tile's per-zone partial moments. ``zones`` = int array of
    zone ids (−1 = no zone), same shape as ``values``."""
    z = zones.ravel().astype(np.int64)
    v = values.ravel().astype(np.float64)
    m = z >= 0
    z = z[m]
    v = v[m]
    if len(z) == 0:
        return pa.table(
            {
                "zone": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "sum": pa.array([], pa.float64()),
                "sum2": pa.array([], pa.float64()),
                "min": pa.array([], pa.float64()),
                "max": pa.array([], pa.float64()),
            }
        )
    n = np.bincount(z, minlength=n_zones)
    s = np.bincount(z, weights=v, minlength=n_zones)
    s2 = np.bincount(z, weights=v * v, minlength=n_zones)
    mn = np.full(n_zones, np.inf)
    mx = np.full(n_zones, -np.inf)
    np.minimum.at(mn, z, v)
    np.maximum.at(mx, z, v)
    present = np.flatnonzero(n > 0)
    return pa.table(
        {
            "zone": pa.array(present),
            "n": pa.array(n[present]),
            "sum": pa.array(s[present]),
            "sum2": pa.array(s2[present]),
            "min": pa.array(mn[present]),
            "max": pa.array(mx[present]),
        }
    )


def combine_zonal(partials: pa.Table) -> pa.Table:
    """Final per-zone stats (mean/std population — ComputeStatistics
    semantics)."""
    import pandas as pd

    df = partials.to_pandas()
    g = df.groupby("zone").agg(
        n=("n", "sum"), sum=("sum", "sum"), sum2=("sum2", "sum"),
        min=("min", "min"), max=("max", "max"),
    )
    g["mean"] = g["sum"] / g["n"]
    var = g["sum2"] / g["n"] - g["mean"] ** 2
    g["std"] = np.sqrt(var.clip(lower=0))
    out = g.reset_index()[["zone", "n", "min", "max", "mean", "std", "sum"]]
    return pa.Table.from_pandas(out, preserve_index=False)


def zonal_stats_array(
    values: np.ndarray,
    gt,
    zone_shapes: list[tuple[bytes, float]],
) -> pa.Table:
    """Single-array zonal stats (zones burned with the engine's own
    rasterizer; value −1 = outside all zones)."""
    zones = rasterize.rasterize_array(
        zone_shapes, values.shape[1], values.shape[0], gt,
        dtype="float64", init=-1.0,
    ).astype(np.int64)
    n_zones = int(max((v for _, v in zone_shapes), default=0)) + 1
    return combine_zonal(zonal_partials(values, zones, n_zones))


class ZonalPartialStage:
    """map_batches stage over value-raster tile rows: burn zones
    tile-locally (broadcast shapes), emit partial moments. Follow with
    ``groupby("zone")`` aggregation of the partial columns."""

    def __init__(self, shapes_ref, n_zones: int):
        from gdal_ray.stages.cache import resolve_broadcast

        self.shapes = resolve_broadcast(shapes_ref)
        self.n_zones = n_zones

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            arr = model.tile_array(row)
            gt = row["geotransform"]
            tile_gt = (
                gt[0] + row["x0"] * gt[1] + row["y0"] * gt[2],
                gt[1], gt[2],
                gt[3] + row["x0"] * gt[4] + row["y0"] * gt[5],
                gt[4], gt[5],
            )
            zones = rasterize.rasterize_array(
                self.shapes, arr.shape[1], arr.shape[0], tile_gt,
                dtype="float64", init=-1.0,
            ).astype(np.int64)
            outs.append(zonal_partials(arr, zones, self.n_zones))
        return pa.concat_tables(outs) if outs else zonal_partials(
            np.zeros((0, 0)), np.zeros((0, 0), np.int64), self.n_zones
        )
