"""Raster pipelines: burn → sample, Ray-Data-shaped.

- ``admin_raster``      — rasterize the 100 admin boxes over the
  boundary coverage area (the north-rule raster↔vector bridge).
- ``sample_pages``      — vector-sample that raster at page points
  (gdallocationinfo / `gdal raster pixel-info` as a streaming join).

The pyramid step (level z-1 tile = 2×2 reduce of its ≤4 children,
gdal2tiles create_overview_tile :1471 semantics) is
``pipelines.tilepyramid.overview_level``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from gdal_ray import fixtures
from gdal_ray.raster import rasterize, sample

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
