"""Cell-partitioned PIP join ≡ broadcast PIP join (the both-sides-
large fallback must produce the identical match multiset)."""

import numpy as np
import pyarrow as pa
import pytest


def test_cell_partitioned_equals_broadcast(ray_session):
    import ray.data as rd

    from gdal_ray import fixtures
    from gdal_ray.stages.join import cell_partitioned_pip, pip_join

    rng = np.random.default_rng(19)
    pts = pa.table(
        {
            "pid": pa.array(np.arange(2000, dtype=np.int64)),
            "lon": pa.array(rng.uniform(-85, 85, 2000)),
            "lat": pa.array(rng.uniform(-65, 65, 2000)),
        }
    )
    b = fixtures.gen_boundaries()

    broadcast = (
        pip_join(rd.from_arrow(pts), b, id_cols=("admin_id",))
        .to_pandas()
    )
    partitioned = cell_partitioned_pip(
        rd.from_arrow(pts),
        rd.from_arrow(b.select(["admin_id", "geometry"])),
        zoom=4,
        id_cols=("admin_id",),
    ).to_pandas()

    got = sorted(zip(partitioned["pid"], partitioned["admin_id"]))
    exp = sorted(zip(broadcast["pid"], broadcast["admin_id"]))
    assert got == exp
    assert len(exp) > 1000


def test_rows_without_coordinates_match_nothing(ray_session):
    import ray.data as rd

    from gdal_ray.geom import wkb as W
    from gdal_ray.stages.join import cell_partitioned_pip

    # the polygon's corner sits in tile (-1, -1), the tile a NaN
    # coordinate maps to; only the real point may match it
    lat0 = -85.0511287798066
    ring = np.array([[-180.0, lat0], [-170.0, lat0], [-170.0, -80.0],
                     [-180.0, -80.0], [-180.0, lat0]])
    polys = pa.table({"admin_id": pa.array([7], pa.int64()),
                      "geometry": pa.array([W.polygon_wkb(ring)],
                                           pa.binary())})
    pts = pa.table({"pid": pa.array([0, 1, 2, 3], pa.int64()),
                    "lon": pa.array([-175.0, np.nan, None, -180.0]),
                    "lat": pa.array([-82.0, np.nan, -82.0, np.nan])})
    got = cell_partitioned_pip(rd.from_arrow(pts), rd.from_arrow(polys),
                               zoom=4).to_pandas()
    assert sorted(zip(got["pid"], got["admin_id"])) == [(0, 7)]
