"""Raster pipelines: burn → sample → pyramid, Ray-Data-shaped.

- ``admin_raster``      — rasterize the 100 admin boxes over the
  boundary coverage area (the north-rule raster↔vector bridge).
- ``sample_pages``      — vector-sample that raster at page points
  (gdallocationinfo / `gdal raster pixel-info` as a streaming join).
- ``pyramid``           — overview levels via groupby(parent_tile):
  level z-1 tile = 2×2 reduce of its 4 children (gdal2tiles
  create_overview_tile :1471 semantics, overview.cpp kernels).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from gdal_ray import fixtures
from gdal_ray.raster import model, overview, rasterize, sample

ADMIN_BOUNDS = (-80.0, -60.0, 80.0, 60.0)
ADMIN_SIZE = 512


def admin_raster() -> tuple[np.ndarray, tuple[float, ...]]:
    """Burned admin_id raster (512², EPSG:4326 grid, init=-1,
    last-burn-wins in admin_id order)."""
    return rasterize.rasterize_boundaries(
        fixtures.gen_boundaries(), ADMIN_BOUNDS, ADMIN_SIZE, ADMIN_SIZE, init=-1.0
    )


def sample_pages(sf_dir: str) -> rd.Dataset:
    """pages → nearest-sample of the burned admin raster → (url,
    admin_id). The raster is broadcast once; sampling is a stateless
    vectorized map."""
    import ray

    from gdal_ray.pipelines import flagship

    arr, gt = admin_raster()
    ref = ray.put((arr, gt))
    pages = flagship.geotag_pages(flagship.pages_from_documents(sf_dir), has_html=False)
    from gdal_ray.stages.cache import worker_cached

    sampled = pages.map_batches(
        worker_cached(
            sample.RasterSampler,
            raster=ref,
            method="nearest",
            x_col="lon",
            y_col="lat",
            out_col="admin_id_sampled",
        ),
        batch_format="pyarrow",
    )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = t["admin_id_sampled"]
        keep = pc.and_(pc.is_valid(v), pc.greater_equal(v, 0.0))
        t = t.filter(keep)
        return pa.table(
            {
                "url": t["url"],
                "admin_id": pc.cast(t["admin_id_sampled"], pa.int64()),
            }
        )

    return sampled.map_batches(finish, batch_format="pyarrow")


class PyramidReduce:
    """map_groups kernel for the DISTRIBUTED pyramid step: one group =
    the ≤4 children of a parent tile → one parent row. Use as
    ``ds.groupby(["band","parent_x","parent_y"]).map_groups(PyramidReduce(...),
    batch_format="pyarrow")`` after adding parent_x/parent_y columns.
    """

    def __init__(self, tile_size: int = 64, method: str = "average"):
        self.tile_size = tile_size
        self.method = method

    def __call__(self, group: pa.Table) -> pa.Table:
        rows = group.to_pylist()
        ts = self.tile_size
        any_kid = rows[0]
        dt = any_kid.get("dtype", "uint8")
        full = np.zeros((2 * ts, 2 * ts), model.DTYPES[dt])
        for row in rows:
            kx = row["block_x"] % 2
            ky = row["block_y"] % 2
            a = model.tile_array(row)
            full[ky * ts : ky * ts + a.shape[0], kx * ts : kx * ts + a.shape[1]] = a
        red = overview.reduce_2x2(full, self.method)
        g = any_kid["geotransform"]
        out = {
            "band": any_kid["band"],
            "block_x": any_kid["block_x"] // 2,
            "block_y": any_kid["block_y"] // 2,
            "x0": (any_kid["block_x"] // 2) * ts,
            "y0": (any_kid["block_y"] // 2) * ts,
            "width": red.shape[1],
            "height": red.shape[0],
            "crs": any_kid["crs"],
            "geotransform": [g[0], g[1] * 2, g[2] * 2, g[3], g[4] * 2, g[5] * 2],
            "dtype": str(red.dtype),
            "data": red.tobytes(),
            "level": int(any_kid.get("level", 0)) + 1,
        }
        return pa.Table.from_pylist([out])


def pyramid_distributed(tiles_ds: rd.Dataset, tile_size: int = 64,
                        method: str = "average") -> rd.Dataset:
    """One pyramid step as a Ray shuffle: groupby(parent tile id) →
    map_groups reduce."""

    def key(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "parent_x", pc.floor(pc.divide(batch["block_x"], 2))
        ).append_column("parent_y", pc.floor(pc.divide(batch["block_y"], 2)))

    keyed = tiles_ds.map_batches(key, batch_format="pyarrow")
    return keyed.groupby(["band", "parent_x", "parent_y"]).map_groups(
        lambda g: PyramidReduce(tile_size, method)(
            g.drop_columns(["parent_x", "parent_y"])
        ),
        batch_format="pyarrow",
    )
