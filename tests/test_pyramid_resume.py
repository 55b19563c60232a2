"""Resumable tile-pyramid writes: the gdal2tiles --resume contract
(gdal2tiles.py:1497 skip-if-exists / gdalalg_raster_tile.cpp:280)
upgraded to transactional lineage manifests."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest


def test_pyramid_write_resume(ray_session, tmp_path):
    import ray.data as rd

    from gdal_ray.pipelines import tilepyramid
    from gdal_ray.pipelines.rasterpipe import admin_raster
    from gdal_ray.state.lineage import ManifestStore, write_partitioned

    arr, gt = admin_raster()
    ds = tilepyramid.raster_tile_pyramid(
        arr, gt, "EPSG:4326", zmin=3, zmax=4, method="nearest",
        overview_method="nearest",
    )
    # partition by zoom level (z) — the pyramid's natural resume unit
    out = str(tmp_path / "tiles")
    recs = write_partitioned(ds, out, "z")
    zs = sorted(r["partition"] for r in recs)
    assert zs == [3, 4]
    n_total = sum(r["rows"] for r in recs)
    store = ManifestStore(out)

    # wipe level 4, keep level 3 → resume recomputes ONLY level 4
    shutil.rmtree(store.partition_dir(4))
    os.remove(os.path.join(store.manifest_dir, "4.json"))
    m3_before = os.path.getmtime(os.path.join(store.manifest_dir, "3.json"))
    d3_before = os.path.getmtime(
        os.path.join(store.partition_dir(3), "data.parquet")
    )
    ds2 = tilepyramid.raster_tile_pyramid(
        arr, gt, "EPSG:4326", zmin=3, zmax=4, method="nearest",
        overview_method="nearest",
    )
    recs2 = write_partitioned(ds2, out, "z")
    assert len(store.completed_keys()) == 2
    # level 3 untouched (skipped), level 4 rewritten
    assert os.path.getmtime(os.path.join(store.manifest_dir, "3.json")) == m3_before
    assert (
        os.path.getmtime(os.path.join(store.partition_dir(3), "data.parquet"))
        == d3_before
    )
    assert os.path.isdir(store.partition_dir(4))

    # content identical to an untouched run
    fresh = str(tmp_path / "fresh")
    recs3 = write_partitioned(
        tilepyramid.raster_tile_pyramid(
            arr, gt, "EPSG:4326", zmin=3, zmax=4, method="nearest",
            overview_method="nearest",
        ),
        fresh,
        "z",
    )
    h_resumed = {r["partition"] for r in store.records()}
    h_fresh = {
        r["partition"]: r["content_hash"] for r in ManifestStore(fresh).records()
    }
    h_res = {r["partition"]: r["content_hash"] for r in store.records()}
    assert h_res == h_fresh

    # the committed pyramid reads back as hive partitions
    back = rd.read_parquet(
        [os.path.join(out, d, "data.parquet") for d in os.listdir(out)
         if d.startswith("part=")]
    )
    assert back.count() == n_total
