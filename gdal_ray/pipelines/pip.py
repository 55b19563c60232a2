"""PIP-join pipeline: pages → points → admin-boundary join → rollups.

The north-rule core: worker-cached stage state holds the broadcast
boundary index, the point side streams. Includes the hot-cell salting
pattern for the skewed aggregate (SURVEY.md §7.2 step 6).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from gdal_ray import fixtures
from gdal_ray.pipelines import flagship
from gdal_ray.stages.join import pip_join


def pages_pip(
    sf_dir: str,
    keep_unmatched: bool = False,
) -> rd.Dataset:
    """documents → pages → geoparse → PIP join vs the 100 admin boxes.

    Output: one row per (page, admin) intersection with url + admin
    attrs (Intersection semantics; ``keep_unmatched=True`` for the
    OGR-SQL-JOIN-style left join).
    """
    pages = flagship.geotag_pages(flagship.pages_from_documents(sf_dir), has_html=False)
    boundaries = fixtures.gen_boundaries()
    return pip_join(
        pages,
        boundaries,
        id_cols=("admin_id", "name"),
        keep_unmatched=keep_unmatched,
    )


def admin_page_counts(sf_dir: str) -> pa.Table:
    """Pages per admin polygon, via the fused production kernel:
    geoparse → dictionary-encoded PIP → per-batch partial counts in
    ONE task per block (worker-cached broadcast index, no actor-pool
    ramp-up), then the streamed O(admins) rollup. The hot-admin skew
    (the Jakarta box) is neutralized map-side: each batch emits one
    row per admin regardless of row counts."""
    import ray

    pages = flagship.pages_from_documents(sf_dir)
    bnd_ref = ray.put(fixtures.gen_boundaries())
    partials = pages.map_batches(
        flagship.fused_geotag_pip,
        batch_format="pyarrow",
        batch_size=None,
        fn_kwargs={"bnd_ref": bnd_ref, "knn_ref": None},
    )
    return flagship.admin_rollup(partials)
