"""The driver-facing query registry (queries() + oracle_sql()).

Each entry pairs a Ray Data pipeline (callable taking ``sf_dir``) with
an equivalent DuckDB SQL string over the same parquet tables. Column
names match exactly on both sides (the driver sorts columns by name
and value-hashes). Non-SQL-expressible ops omit the oracle and get a
rows-only check.

SQL building blocks:
- ``_GAZ_SQL``      — the 64-city gazetteer as an inline VALUES table.
- ``_PAGES_SQL``    — the deterministic pages derivation from
  ``documents`` (mirrors pipelines.flagship.pages_from_documents; the
  oracle re-extracts coordinates from its own constructed text with
  ``regexp_extract`` so both engines parse identical strings).
- ``_tile_sql``     — the GlobalMercator tile assignment in SQL
  (same formula chain as gdal_ray.tiles, gdal2tiles.py:422-497).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

from gdal_ray.geoparse import GAZETTEER

ORIGIN_SHIFT = 20037508.342789244

_GAZ_SQL = "(VALUES " + ", ".join(
    f"('{n}', {lon!r}, {lat!r})" for n, lon, lat in GAZETTEER
) + ") AS gaz(place, glon, glat)"

# pages derivation — must stay in lockstep with
# pipelines.flagship.pages_from_documents
_PAGES_SQL = f"""
WITH gazt AS (SELECT *, row_number() OVER () - 1 AS gidx FROM {_GAZ_SQL}),
pages0 AS (
  SELECT d.doc_id,
         'https://site' || (d.doc_id % 50) || '.example/' || d.doc_id AS url,
         TIMESTAMP '2025-01-01 00:00:00' + to_microseconds(d.doc_id * 137000000) AS warc_ts,
         'Report ' || d.doc_id || ': rain near ' || g.place || ' at ' ||
            printf('%.4f', g.glat) || ',' || printf('%.4f', g.glon) || ' today.' AS text,
         d.lang
  FROM documents d
  JOIN gazt g
    ON g.gidx = CASE WHEN d.doc_id % 5 = 0 THEN 0 ELSE d.doc_id % 64 END
),
pages AS (
  SELECT *,
         CAST(regexp_extract(text, '(-?\\d{{1,2}}\\.\\d{{4}}),(-?\\d{{1,3}}\\.\\d{{4}})', 1) AS DOUBLE) AS lat,
         CAST(regexp_extract(text, '(-?\\d{{1,2}}\\.\\d{{4}}),(-?\\d{{1,3}}\\.\\d{{4}})', 2) AS DOUBLE) AS lon
  FROM pages0
)
"""


def _tile_sql(z: int, lon: str = "lon", lat: str = "lat") -> tuple[str, str]:
    """SQL expressions for XYZ tile x and y at zoom z (GlobalMercator:
    LatLonToMeters → MetersToPixels → PixelsToTile → y flip)."""
    res = f"((2*pi()*6378137/256) / power(2, {z}))"
    mx = f"({lon} * {ORIGIN_SHIFT!r} / 180.0)"
    my = f"(ln(tan((90.0 + {lat}) * pi() / 360.0)) / (pi()/180.0) * {ORIGIN_SHIFT!r} / 180.0)"
    px = f"(({mx} + {ORIGIN_SHIFT!r}) / {res})"
    py = f"(({my} + {ORIGIN_SHIFT!r}) / {res})"
    tx = f"CAST(ceil({px} / 256.0) AS BIGINT) - 1"
    ty_tms = f"CAST(ceil({py} / 256.0) AS BIGINT) - 1"
    ty = f"(CAST(power(2, {z}) AS BIGINT) - 1 - ({ty_tms}))"
    return tx, ty


# ---------------------------------------------------------------------------
# Ray-side queries


def q_tile_assign(sf_dir: str):
    from gdal_ray.pipelines import flagship

    ds = flagship.flagship(sf_dir)
    cols = ["url"]
    for z in flagship.DEFAULT_ZOOMS:
        cols += [f"tile_z{z}_x", f"tile_z{z}_y"]
    return ds.select_columns(cols)


def q_tile_counts_z9(sf_dir: str):
    from gdal_ray.pipelines import flagship

    return flagship.tile_counts(flagship.flagship(sf_dir), zoom=9)


def _sql_tile_assign() -> str:
    parts = ["url"]
    for z in (7, 9, 12):
        tx, ty = _tile_sql(z)
        parts.append(f"{tx} AS tile_z{z}_x")
        parts.append(f"{ty} AS tile_z{z}_y")
    return _PAGES_SQL + f"SELECT {', '.join(parts)} FROM pages"


def _sql_tile_counts_z9() -> str:
    tx, ty = _tile_sql(9)
    return (
        _PAGES_SQL
        + f"SELECT {tx} AS tile_z9_x, {ty} AS tile_z9_y, "
        f"COUNT(*) AS n_pages FROM pages GROUP BY 1, 2"
    )


def _boundaries_sql() -> str:
    """The 100 admin boxes as an inline VALUES table — an INDEPENDENT
    oracle: the Ray side runs the general WKB polygon PIP machinery,
    the SQL side uses pure range predicates on the same boxes."""
    from gdal_ray.fixtures import boundary_boxes

    rows = ", ".join(
        f"({i}, 'admin_{i}', {b[0]!r}, {b[1]!r}, {b[2]!r}, {b[3]!r})"
        for i, b in enumerate(boundary_boxes())
    )
    return f"(VALUES {rows}) AS bnd(admin_id, name, minx, miny, maxx, maxy)"


def q_pip_join(sf_dir: str):
    from gdal_ray.pipelines import pip

    return pip.pages_pip(sf_dir).select_columns(["url", "admin_id", "name"])


def q_pip_counts(sf_dir: str):
    from gdal_ray.pipelines import pip

    return pip.admin_page_counts(sf_dir)


def _sql_pip_join() -> str:
    return (
        _PAGES_SQL
        + f"""
SELECT p.url, bnd.admin_id, bnd.name
FROM pages p
JOIN {_boundaries_sql()}
  ON p.lon >= bnd.minx AND p.lon <= bnd.maxx
 AND p.lat >= bnd.miny AND p.lat <= bnd.maxy
"""
    )


def _sql_pip_counts() -> str:
    return (
        _PAGES_SQL
        + f"""
SELECT bnd.admin_id, COUNT(*) AS n_pages
FROM pages p
JOIN {_boundaries_sql()}
  ON p.lon >= bnd.minx AND p.lon <= bnd.maxx
 AND p.lat >= bnd.miny AND p.lat <= bnd.maxy
GROUP BY bnd.admin_id
"""
    )


def q_cell_encode(sf_dir: str):
    """url → genuine H3 ids (res 7/8/9) + S2 L16 cell ids.

    Oracle (round 4, upgraded from rows-only): the gazetteer's 64
    coordinate pairs are encoded DRIVER-SIDE, directly from the
    gazetteer literals through the same spec-pinned encoders, and
    embedded as a VALUES table the SQL joins on (lon, lat). That
    verifies the whole distributed pipeline (pages derivation,
    coordinate extraction, per-batch encode, column wiring) against an
    independent single-point evaluation; the cell math itself is
    pinned by tests/test_h3.py spec tables + global continuity and
    tests/test_cells.py S2 invariants (roundtrip alone is NOT an
    oracle for grid tables — the pentagon lesson)."""
    from gdal_ray.pipelines import flagship

    ds = flagship.geotag_pages(flagship.pages_from_documents(sf_dir), has_html=False)
    ds = ds.map_batches(flagship.encode_cells, batch_format="pyarrow")
    return ds.select_columns(["url", "h3_res7", "h3_res8", "h3_res9", "s2_cell"])


def _sql_cell_encode() -> str:
    import numpy as np

    from gdal_ray.cells import h3 as h3mod
    from gdal_ray.cells import s2 as s2mod

    rows = []
    for _name, glon, glat in GAZETTEER:
        # the pages pipeline parses %.4f-printed coordinates — encode
        # exactly those parsed doubles
        lat4 = float(f"{glat:.4f}")
        lon4 = float(f"{glon:.4f}")
        cells = h3mod.latlng_to_cells_multi(
            np.array([lat4]), np.array([lon4]), (7, 8, 9)
        )
        s2c = s2mod.lonlat_to_cell(np.array([lon4]), np.array([lat4]), 16)
        rows.append(
            f"({lon4!r}, {lat4!r}, {int(cells[7][0])}::UBIGINT, "
            f"{int(cells[8][0])}::UBIGINT, {int(cells[9][0])}::UBIGINT, "
            f"{int(np.asarray(s2c).astype(np.int64)[0])}::BIGINT)"
        )
    vals = ", ".join(rows)
    return (
        _PAGES_SQL
        + f"""
SELECT p.url, c.h3_res7, c.h3_res8, c.h3_res9, c.s2_cell
FROM pages p
JOIN (VALUES {vals})
  AS c(lon, lat, h3_res7, h3_res8, h3_res9, s2_cell)
  ON p.lon = c.lon AND p.lat = c.lat
"""
    )


def q_knn_k5(sf_dir: str):
    """Each page's 5 nearest reference points (planar-degree metric,
    gdalgrid.cpp:241 semantics; 500-point Halton reference set)."""
    from gdal_ray import fixtures
    from gdal_ray.pipelines import flagship
    from gdal_ray.stages.knn import knn_join

    pages = flagship.geotag_pages(flagship.pages_from_documents(sf_dir), has_html=False)
    ref = fixtures.gen_ref_points(500)
    out = knn_join(pages, ref, k=5)
    return out.select_columns(["url", "knn_rank", "point_id", "dist2"])


def _ref_points_sql(n: int = 500) -> str:
    from gdal_ray.fixtures import gen_ref_points

    t = gen_ref_points(n)
    rows = ", ".join(
        f"({int(i)}, {lo!r}, {la!r})"
        for i, lo, la in zip(
            t["point_id"].to_pylist(), t["lon"].to_pylist(), t["lat"].to_pylist()
        )
    )
    return f"(VALUES {rows}) AS ref(point_id, rlon, rlat)"


def _sql_knn_k5() -> str:
    return (
        _PAGES_SQL
        + f""",
d AS (
  SELECT p.url, ref.point_id,
         (p.lon-ref.rlon)*(p.lon-ref.rlon) + (p.lat-ref.rlat)*(p.lat-ref.rlat) AS dist2
  FROM pages p CROSS JOIN {_ref_points_sql()}
),
rk AS (
  SELECT *, row_number() OVER (PARTITION BY url ORDER BY dist2, point_id) AS knn_rank
  FROM d
)
SELECT url, knn_rank, point_id, dist2 FROM rk WHERE knn_rank <= 5
"""
    )


def q_vector_sample(sf_dir: str):
    """pages → nearest-neighbor sample of the burned admin raster
    (raster↔vector round trip; the SQL oracle reproduces the pixel
    quantization + last-burn-wins rule in closed form)."""
    from gdal_ray.pipelines import rasterpipe

    return rasterpipe.sample_pages(sf_dir)


def _sql_vector_sample() -> str:
    # 512x512 grid over [-80,80]x[-60,60]; resx=5/16, resy=15/64 are
    # exact binary fractions so floor() agrees bit-for-bit with numpy.
    # Burn order is admin_id ascending => last-wins = MAX(admin_id).
    return (
        _PAGES_SQL
        + f"""
, px AS (
  SELECT url, lon, lat,
         floor((lon - (-80.0)) / 0.3125) AS ix,
         floor((60.0 - lat) / 0.234375) AS iy
  FROM pages
  WHERE lon >= -80.0 AND lon <= 80.0 AND lat >= -60.0 AND lat <= 60.0
),
ctr AS (
  SELECT url,
         -80.0 + (LEAST(ix, 511) + 0.5) * 0.3125 AS cx,
         60.0 - (LEAST(iy, 511) + 0.5) * 0.234375 AS cy
  FROM px
)
SELECT c.url, MAX(bnd.admin_id) AS admin_id
FROM ctr c
JOIN {_boundaries_sql()}
  ON c.cx >= bnd.minx AND c.cx <= bnd.maxx
 AND c.cy >= bnd.miny AND c.cy <= bnd.maxy
GROUP BY c.url
"""
    )


def q_reproject_3857(sf_dir: str):
    """pages lon/lat → EPSG:3857 meters via the reproject stage
    (OGRProjCT semantics; oracle = the closed-form spherical mercator
    in SQL — same formulas, bit-for-bit)."""
    from gdal_ray.pipelines import flagship
    from gdal_ray.stages import vector as vs

    pages = flagship.geotag_pages(flagship.pages_from_documents(sf_dir), has_html=False)
    pages = pages.select_columns(["url", "lon", "lat"])
    out = vs.reproject(pages, "EPSG:4326", "EPSG:3857", x_col="lon", y_col="lat")
    return out.map_batches(
        lambda t: t.rename_columns(["url", "mx", "my"]), batch_format="pyarrow"
    )


def _sql_reproject_3857() -> str:
    return (
        _PAGES_SQL
        + """
SELECT url,
       lon * pi() / 180.0 * 6378137.0 AS mx,
       6378137.0 * ln(tan(pi()/4.0 + lat * pi()/360.0)) AS my
FROM pages
"""
    )


def q_reproject_epsg(sf_dir: str):
    """pages lon/lat → EPSG:3395 (World Mercator, ellipsoidal) via the
    general parameter-table CRS registry (proj/epsg_db.py — the
    importFromEPSG role, ogr/ogrspatialreference.cpp + ogrct.cpp:665).
    Exercises a code resolved through the registry rather than a named
    special case.  numpy and DuckDB libm chains differ by ~1 ulp on
    tan/ln/pow, so both sides round to millimeters (half away from
    zero) — verified bit-identical at 2·10⁵ random points."""
    from gdal_ray.pipelines import flagship
    from gdal_ray.stages import vector as vs

    pages = flagship.geotag_pages(flagship.pages_from_documents(sf_dir), has_html=False)
    pages = pages.select_columns(["url", "lon", "lat"])

    def _dup(t: pa.Table) -> pa.Table:
        return t.append_column("lon2", t["lon"]).append_column(
            "lat2", t["lat"]
        )

    pages = pages.map_batches(_dup, batch_format="pyarrow")
    out = vs.reproject(pages, "EPSG:4326", "EPSG:3395", x_col="lon", y_col="lat")
    # round-4 registry breadth: the same rows through the Polar
    # Stereographic family (EPSG:3031, variant B via the _PS table)
    out = vs.reproject(out, "EPSG:4326", "EPSG:3031",
                       x_col="lon2", y_col="lat2")

    def _mm(t: pa.Table) -> pa.Table:
        mm = lambda v: np.trunc(v * 1000.0 + np.copysign(0.5, v)) / 1000.0  # noqa: E731

        def col(name):
            return mm(t[name].to_numpy(zero_copy_only=False))

        return pa.table({
            "url": t["url"], "mx": col("lon"), "my": col("lat"),
            "x3031": col("lon2"), "y3031": col("lat2"),
        })

    return out.map_batches(_mm, batch_format="pyarrow")


def _sql_reproject_epsg() -> str:
    import numpy as np

    from gdal_ray.proj.stereographic import PolarStereographic
    from gdal_ray.proj.transverse_mercator import WGS84

    e = WGS84.e
    # EPSG:3031 variant-B closed form (GN7-2 §3.2.3): the south-aspect
    # t with the derived k0 constant (computed once here — exactly the
    # engine's own _k0(), so both sides share the double)
    k0 = PolarStereographic(lat0=-90, lon0=0.0, lat_ts=-71.0,
                            ellipsoid=WGS84)._k0()
    big = float(np.sqrt((1.0 + e) ** (1.0 + e) * (1.0 - e) ** (1.0 - e)))
    t_s = (f"(tan(pi()/4.0 + radians(lat)/2.0) * pow((1.0 - {e!r}*sin(radians(lat)))"
           f" / (1.0 + {e!r}*sin(radians(lat))), {e / 2.0!r}))")
    rho = f"(2.0 * 6378137.0 * {k0!r} * {t_s} / {big!r})"
    return (
        _PAGES_SQL
        + f"""
SELECT url,
       round(6378137.0 * radians(lon), 3) AS mx,
       round(0.0 - 6378137.0 * ln(
         tan(pi()/4.0 - radians(lat)/2.0)
         / pow((1.0 - {e!r}*sin(radians(lat))) / (1.0 + {e!r}*sin(radians(lat))), {e / 2.0!r})
       ), 3) AS my,
       round({rho} * sin(radians(lon)), 3) AS x3031,
       round({rho} * cos(radians(lon)), 3) AS y3031
FROM pages
"""
    )


def q_buffer_area(sf_dir: str):
    """Buffer a PER-ROW rectangle (sides derived from each page's
    coordinates) by 0.25° with round joins (quadsegs=8) and measure
    the resulting polygon's area — via the BATCHED rectangle-buffer
    kernel (rect_buffer_rings_batch: all rows' rings built in one
    numpy op, pytest-pinned equal to the per-row offset walk);
    oracle: the Minkowski closed form  A + P·r + ½·n·r²·sin(2π/n)
    (the four quarter-arcs of a rectangle tile the n-gon circle
    exactly)."""
    import pyarrow as pa

    from gdal_ray.geom import buffer as gbuf
    from gdal_ray.pipelines import flagship

    pages = flagship.geotag_pages(flagship.pages_from_documents(sf_dir), has_html=False)
    r = 0.25
    q = 8

    def buf_area(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        # SQL-mirrorable per-row rectangle dims (always positive)
        w = 0.5 + np.abs(lon) / 360.0
        h = 0.5 + np.abs(lat) / 180.0
        # batched ring construction + shoelace — no per-row Python
        # (pytest pins it equal to the per-row buffer_polygon walk)
        rings = gbuf.rect_buffer_rings_batch(w, h, r, q)
        areas = gbuf.ring_area_batch(rings)
        return pa.table(
            {"url": t["url"], "buf_area": pa.array(np.round(areas, 9))}
        )

    return pages.map_batches(buf_area, batch_format="pyarrow")


def _sql_buffer_area() -> str:
    return (
        _PAGES_SQL
        + """
SELECT url,
       ROUND((0.5 + abs(lon)/360.0) * (0.5 + abs(lat)/180.0)
             + 2.0 * ((0.5 + abs(lon)/360.0) + (0.5 + abs(lat)/180.0)) * 0.25
             + 0.5 * 32.0 * 0.25 * 0.25 * sin(2.0*pi()/32.0), 9) AS buf_area
FROM pages
"""
    )


def q_polygonize_counts(sf_dir: str):
    """Polygonize the burned admin raster (4-connected components)
    → pixels per admin value, via the FULLY distributed tile path:
    the 512² raster becomes a 16-tile table, per-tile labeling +
    border extraction runs as map_batches on Ray workers, and the
    cross-tile merge is a shared-face groupby feeding the engine's
    min-label-propagation connected components — nothing O(raster)
    or O(perimeter) ever lands on the driver
    (polygonize.distributed_component_counts). Oracle: DuckDB
    re-derives each pixel center's
    max-covering box and counts — independent of the CCL
    implementation entirely."""
    import ray.data as rd

    from gdal_ray.pipelines import rasterpipe
    from gdal_ray.raster import model, polygonize

    from ray.data.aggregate import Sum

    arr, gt = rasterpipe.admin_raster()
    tiles = model.from_array(
        arr.astype(np.int32), "EPSG:4326", gt, tile_size=128
    )
    comps = polygonize.distributed_component_counts(
        rd.from_arrow(tiles), connectivity=4
    )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.greater_equal(t["value"], 0.0))
        return pa.table(
            {
                "admin_id": pc.cast(t["value"], pa.int64()),
                "n_pixels": t["pixel_count"],
            }
        )

    return (
        comps.map_batches(finish, batch_format="pyarrow")
        .groupby("admin_id")
        .aggregate(Sum("n_pixels", alias_name="n_pixels"))
    )


def _sql_polygonize_counts() -> str:
    return f"""
WITH ix(i) AS (SELECT unnest(generate_series(0, 511))),
iy(j) AS (SELECT unnest(generate_series(0, 511))),
px AS (
  SELECT -80.0 + (i + 0.5) * 0.3125 AS cx,
         60.0 - (j + 0.5) * 0.234375 AS cy
  FROM ix CROSS JOIN iy
),
v AS (
  SELECT cx, cy, MAX(bnd.admin_id) AS admin_id
  FROM px JOIN {_boundaries_sql()}
    ON cx >= bnd.minx AND cx <= bnd.maxx AND cy >= bnd.miny AND cy <= bnd.maxy
  GROUP BY cx, cy
)
SELECT admin_id, COUNT(*) AS n_pixels FROM v GROUP BY admin_id
"""


def q_grid_idw(sf_dir: str):
    """GDALGrid InvDistNearestNeighbor (alg/gdalgrid.cpp:241): a 32×32
    output grid over [-80,80]×[-60,60] interpolated from the 500-point
    reference set (k=5, power=2). Oracle: per-pixel kNN via SQL window
    rank + 1/d² weights."""
    import ray.data as rd

    from gdal_ray import fixtures
    from gdal_ray.stages.knn import idw_estimate

    W = H = 32
    xs = -80.0 + (np.arange(W) + 0.5) * (160.0 / W)
    ys = 60.0 - (np.arange(H) + 0.5) * (120.0 / H)
    PX, PY = np.meshgrid(xs, ys)
    pix = pa.table(
        {
            "pixel_id": pa.array(np.arange(W * H, dtype=np.int64)),
            "lon": pa.array(PX.ravel()),
            "lat": pa.array(PY.ravel()),
        }
    )
    out = idw_estimate(
        rd.from_arrow(pix), fixtures.gen_ref_points(500), k=5, power=2.0
    )
    return out.select_columns(["pixel_id", "idw_value"])


def _sql_grid_idw() -> str:
    return f"""
WITH ix(i) AS (SELECT unnest(generate_series(0, 31))),
iy(j) AS (SELECT unnest(generate_series(0, 31))),
px AS (
  SELECT j * 32 + i AS pixel_id,
         CAST(-80.0 AS DOUBLE) + (i + CAST(0.5 AS DOUBLE)) * 5.0 AS lon,
         CAST(60.0 AS DOUBLE) - (j + CAST(0.5 AS DOUBLE)) * 3.75 AS lat
  FROM ix CROSS JOIN iy
),
d AS (
  SELECT px.pixel_id,
         (px.lon - ref.rlon)*(px.lon - ref.rlon)
           + (px.lat - ref.rlat)*(px.lat - ref.rlat) AS d2,
         ref.point_id
  FROM px CROSS JOIN {_ref_points_sql()}
),
rk AS (
  SELECT *, row_number() OVER (PARTITION BY pixel_id ORDER BY d2, point_id) AS r
  FROM d
),
v AS (SELECT * FROM {_ref_points_sql_with_value()})
SELECT rk.pixel_id,
       SUM(v.value / rk.d2) / SUM(1.0 / rk.d2) AS idw_value
FROM rk JOIN v ON v.point_id = rk.point_id
WHERE rk.r <= 5
GROUP BY rk.pixel_id
"""


def _ref_points_sql_with_value(n: int = 500) -> str:
    from gdal_ray.fixtures import gen_ref_points

    t = gen_ref_points(n)
    rows = ", ".join(
        f"({int(i)}, {v!r})"
        for i, v in zip(t["point_id"].to_pylist(), t["value"].to_pylist())
    )
    return f"(VALUES {rows}) AS refv(point_id, value)"


def q_dem_slope(sf_dir: str):
    """gdaldem slope (Horn's method) over an analytic 64×64 DEM
    ``z = 20·sin(i/5) + 15·cos(j/7)``; the oracle evaluates the same
    stencil in SQL from the closed-form surface (index-clamped edges =
    our edge replication). sf_dir unused (analytic fixture)."""
    import ray.data as rd

    from gdal_ray.raster import focal, model

    i, j = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    dem = 20.0 * np.sin(i / 5.0) + 15.0 * np.cos(j / 7.0)
    # DISTRIBUTED tile path: 4 tiles + real-data halo exchange, the
    # Horn stencil runs per tile on workers (per-pixel ops — values
    # bit-identical to the whole-array version, tested in test_focal)
    tiles = model.from_array(
        dem, "EPSG:4326", (0.0, 1.0, 0.0, 0.0, 0.0, 1.0), tile_size=32
    )
    out = focal.focal_tiles(
        rd.from_arrow(tiles), focal.slope, halo=1, ewres=1.0, nsres=1.0
    )

    def explode(batch: pa.Table) -> pa.Table:
        ids, vals = [], []
        for r in batch.to_pylist():
            a = model.tile_array(r)
            rr, cc = np.meshgrid(
                np.arange(a.shape[0]), np.arange(a.shape[1]), indexing="ij"
            )
            ids.append(((r["y0"] + rr) * 64 + (r["x0"] + cc)).ravel())
            vals.append(a.ravel())
        return pa.table(
            {
                "pixel_id": pa.array(
                    np.concatenate(ids).astype(np.int64)
                ),
                "slope_deg": pa.array(np.concatenate(vals)),
            }
        )

    return out.map_batches(explode, batch_format="pyarrow")


def _sql_dem_slope() -> str:
    # z(i,j) with clamped indices (edge replication); Horn stencil:
    # dzdx over j (columns), dzdy over i (rows)
    z = ("(20.0*sin(LEAST(GREATEST({i},0),63)/5.0)"
         " + 15.0*cos(LEAST(GREATEST({j},0),63)/7.0))")

    def zz(di, dj):
        return z.format(i=f"(i+({di}))", j=f"(j+({dj}))")

    dzdx = (f"((({zz(-1,1)} + 2*{zz(0,1)} + {zz(1,1)})"
            f" - ({zz(-1,-1)} + 2*{zz(0,-1)} + {zz(1,-1)})) / 8.0)")
    dzdy = (f"((({zz(1,-1)} + 2*{zz(1,0)} + {zz(1,1)})"
            f" - ({zz(-1,-1)} + 2*{zz(-1,0)} + {zz(-1,1)})) / 8.0)")
    return f"""
WITH ii(i) AS (SELECT unnest(generate_series(0, 63))),
jj(j) AS (SELECT unnest(generate_series(0, 63)))
SELECT i * 64 + j AS pixel_id,
       degrees(atan(sqrt({dzdx}*{dzdx} + {dzdy}*{dzdy}))) AS slope_deg
FROM ii CROSS JOIN jj
"""


def q_zonal_stats(sf_dir: str):
    """Zonal mean/min/max of an analytic value raster (128², z =
    i + 2j) over the admin boxes (RASTER_SEQUENTIAL strategy);
    oracle re-derives every pixel's zone (last-burn-wins MAX) and
    aggregates in SQL. sf_dir unused (analytic fixture)."""
    import ray
    import ray.data as rd

    from gdal_ray import fixtures
    from gdal_ray.raster import model, zonal
    from gdal_ray.stages.cache import worker_cached

    N = 128
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    vals = (i + 2.0 * j).astype(np.float64)
    _, gt = model.make_grid((-80.0, -60.0, 80.0, 60.0), N, N, "EPSG:4326")
    shapes = [
        (row["geometry"], float(row["admin_id"]))
        for row in fixtures.gen_boundaries().to_pylist()
    ]
    # DISTRIBUTED tile path: value tiles + broadcast zone shapes
    # (ray.put once), per-tile burn + partial moments on workers,
    # tiny groupby("zone") merge. Integer-valued pixels → partial
    # sums are exact in any combine order (bit-equal to the oracle).
    tiles = model.from_array(vals, "EPSG:4326", gt, tile_size=64)
    ref = ray.put(shapes)
    parts = rd.from_arrow(tiles).map_batches(
        worker_cached(zonal.ZonalPartialStage, shapes_ref=ref, n_zones=100),
        batch_format="pyarrow",
    )
    from ray.data.aggregate import Max, Min, Sum

    agg = parts.groupby("zone").aggregate(
        Sum("n", alias_name="n"),
        Sum("sum", alias_name="sum"),
        Min("min", alias_name="min"),
        Max("max", alias_name="max"),
    ).to_pandas()
    agg["mean"] = agg["sum"] / agg["n"]
    out = agg.rename(columns={"zone": "admin_id", "n": "n_pixels"})[
        ["admin_id", "n_pixels", "min", "max", "mean"]
    ]
    return pa.Table.from_pandas(out, preserve_index=False)


def _sql_zonal_stats() -> str:
    # 128² grid over [-80,80]×[-60,60]: resx = 160/128 = 1.25 (exact),
    # resy = 120/128 = 0.9375 (exact binary)
    return f"""
WITH ii(i) AS (SELECT unnest(generate_series(0, 127))),
jj(j) AS (SELECT unnest(generate_series(0, 127))),
px AS (
  SELECT i, j,
         CAST(-80.0 AS DOUBLE) + (j + CAST(0.5 AS DOUBLE)) * 1.25 AS cx,
         CAST(60.0 AS DOUBLE) - (i + CAST(0.5 AS DOUBLE)) * 0.9375 AS cy,
         CAST(i AS DOUBLE) + 2.0 * CAST(j AS DOUBLE) AS val
  FROM ii CROSS JOIN jj
),
z AS (
  SELECT px.i, px.j, px.val, MAX(bnd.admin_id) AS admin_id
  FROM px JOIN {_boundaries_sql()}
    ON px.cx >= bnd.minx AND px.cx <= bnd.maxx
   AND px.cy >= bnd.miny AND px.cy <= bnd.maxy
  GROUP BY px.i, px.j, px.val
)
SELECT admin_id, COUNT(*) AS n_pixels, MIN(val) AS min, MAX(val) AS max,
       AVG(val) AS mean
FROM z GROUP BY admin_id
"""


def q_warp_agg_mean(sf_dir: str):
    """Average-resampling warp (GRA_Average, alg/gdalwarper.h:35-67):
    2× downsample of an analytic 64×64 integer raster, run as a
    DISTRIBUTED per-window warp (each task warps its own dst window
    with the full geotransforms — tiled == whole). Oracle: SQL mean
    per 2×2 block; integer values keep the mean exact. sf_dir unused
    (analytic fixture)."""
    import ray
    import ray.data as rd

    from gdal_ray.raster.warp import warp_array_aggregate

    N = 64
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    src = (i * 3.0 + j).astype(np.float64)
    gt_src = (0.0, 1.0, 0.0, 0.0, 0.0, -1.0)
    gt_dst = (0.0, 2.0, 0.0, 0.0, 0.0, -2.0)
    src_ref = ray.put(src)
    windows = pa.table(
        {
            "y0": pa.array([0, 0, 16, 16], pa.int64()),
            "x0": pa.array([0, 16, 0, 16], pa.int64()),
        }
    )

    def warp_window(batch: pa.Table) -> pa.Table:
        import ray as _ray

        s = _ray.get(src_ref)
        ids, vals = [], []
        for r in batch.to_pylist():
            out = warp_array_aggregate(
                s, gt_src, "EPSG:4326", (16, 16), gt_dst, "EPSG:4326",
                method="average", dst_y0=r["y0"], dst_x0=r["x0"],
            )
            rr, cc = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
            ids.append(((r["y0"] + rr) * 32 + (r["x0"] + cc)).ravel())
            vals.append(out.ravel())
        return pa.table(
            {
                "pixel_id": pa.array(np.concatenate(ids).astype(np.int64)),
                "mean_val": pa.array(np.concatenate(vals)),
            }
        )

    return rd.from_arrow(windows).map_batches(
        warp_window, batch_format="pyarrow", batch_size=1
    )


def q_buffer_erode(sf_dir: str):
    """Negative buffer (erosion) per row: each page's rectangle eroded
    by 0.1 via the batched inward-offset kernel (pytest-pinned equal
    to the per-row _erode_polygon walk); closed form (w-2r)(h-2r) for
    rectangles — both sides ROUND(9)."""
    import pyarrow as pa

    from gdal_ray.geom import buffer as gbuf
    from gdal_ray.pipelines import flagship

    pages = flagship.geotag_pages(flagship.pages_from_documents(sf_dir), has_html=False)
    r = 0.1

    def erode(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        w = 0.5 + np.abs(lon) / 360.0
        h = 0.5 + np.abs(lat) / 180.0
        rings = gbuf.rect_buffer_rings_batch(w, h, -r, 8)
        areas = gbuf.ring_area_batch(rings)
        return pa.table(
            {"url": t["url"], "erode_area": pa.array(np.round(areas, 9))}
        )

    return pages.map_batches(erode, batch_format="pyarrow")


def _sql_buffer_erode() -> str:
    return (
        _PAGES_SQL
        + """
SELECT url,
       ROUND(((0.5 + abs(lon)/360.0) - 0.2) * ((0.5 + abs(lat)/180.0) - 0.2),
             9) AS erode_area
FROM pages
"""
    )


def q_ntv2_shift(sf_dir: str):
    """NAD27 → NAD83/WGS84 grid-shift datum transform through a real
    NTv2 ``.gsb`` parsed from ``/vsimem/`` (reference role: PROJ
    ``+nadgrids`` grid path, ogr/ogrct.cpp:2359; the reference's
    autotest proj_grids/ fixtures exercise exactly this). Input points
    are synthesized deterministically from doc_id across CONUS; the
    synthetic grid's node values are dyadic (exact in float32), so the
    DuckDB oracle recomputes the *identical* float64 bilinear —
    wrong cell indexing, swapped axes, or a wrong west-positive
    longitude sign all hash-mismatch."""
    import ray.data as rd

    from gdal_ray import vsi
    from gdal_ray.proj import ntv2

    vsi.vsi_write_bytes("/vsimem/synconus.gsb", ntv2.synthetic_conus_gsb())
    grid = ntv2.read_ntv2("/vsimem/synconus.gsb")

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def shift(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        lon = -125.0 + (ids * 7919 % 5800) / 100.0
        lat = 25.0 + (ids * 104729 % 2400) / 100.0
        lon83, lat83, inside = grid.apply(lon, lat)
        assert bool(inside.all())  # synthesis keeps every point in-grid
        return pa.table({"doc_id": t["doc_id"],
                         "lon83": lon83, "lat83": lat83})

    return ds.map_batches(shift, batch_format="pyarrow")


def _sql_ntv2_shift() -> str:
    """The same NTv2 bilinear in SQL, term-for-term (see q_ntv2_shift):
    node values come from the synthetic grid's dyadic formula, which
    equals the float32 bytes in the .gsb exactly."""
    from gdal_ray.proj.ntv2 import SYN_E_LONG, SYN_S_LAT

    flat = ("(0.5 + 0.0625*{i} + 0.03125*{j} + 0.015625*{i}*{j})")
    flon = ("(1.0 + 0.03125*{i} + 0.015625*{j}*{j})")

    def bilin(f):
        return (
            f"({f.format(i='i', j='j')}*(1.0-tx)*(1.0-ty)"
            f" + {f.format(i='i', j='(j+1)')}*tx*(1.0-ty)"
            f" + {f.format(i='(i+1)', j='j')}*(1.0-tx)*ty"
            f" + {f.format(i='(i+1)', j='(j+1)')}*tx*ty)"
        )

    return f"""
WITH pts AS (
  SELECT doc_id,
         -125.0 + (doc_id*7919 % 5800)/100.0 AS lon,
         25.0 + (doc_id*104729 % 2400)/100.0 AS lat
  FROM documents
),
idx AS (
  SELECT *,
         (lat*3600.0 - {SYN_S_LAT!r})/3600.0 AS fy,
         (-lon*3600.0 - {SYN_E_LONG!r})/3600.0 AS fx
  FROM pts
),
cell AS (
  SELECT *,
         LEAST(GREATEST(floor(fy), 0.0), 23.0) AS i,
         LEAST(GREATEST(floor(fx), 0.0), 57.0) AS j
  FROM idx
),
w AS (
  SELECT *, fy - i AS ty, fx - j AS tx FROM cell
)
SELECT doc_id,
       lon - {bilin(flon)}/3600.0 AS lon83,
       lat + {bilin(flat)}/3600.0 AS lat83
FROM w
"""


def q_vshift_gtx(sf_dir: str):
    """Vertical datum shift through a real GTX geoid grid (round 5 —
    reference role: frmts/raw/gtxdataset.cpp + PROJ vgridshift).
    The synthetic geoid's node values AND the input lon/lat/z are all
    DYADIC, so every float64 operation on both sides is exact and the
    hash must match bit-for-bit regardless of evaluation order
    (the ntv2_shift discipline).  Grid: 41×81 cells of 0.25°, lower-
    left center (30N, 250E) — the 0..360 convention real .gtx files
    use."""
    import ray.data as rd

    from gdal_ray.raster.gtx import decode_gtx, encode_gtx, gtx_interpolate

    i = np.arange(41)[::-1][:, None]  # north-up rows ← south index i
    j = np.arange(81)[None, :]
    band = (2.0 + 0.25 * i + 0.125 * j + 0.0625 * i * j).astype(
        np.float32)
    gt = (250.0 - 0.125, 0.25, 0.0, 30.0 + 40.5 * 0.25, 0.0, -0.25)
    grid = decode_gtx(encode_gtx(band, gt))  # through the codec

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"])

    def shift(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        lon = 250.25 + (ids * 7919 % 1216) / 64.0
        lat = 30.25 + (ids * 104729 % 576) / 64.0
        z = (ids % 512) / 8.0
        und = gtx_interpolate(grid, lon, lat)
        assert bool(np.isfinite(und).all())
        return pa.table({"doc_id": t["doc_id"], "h": z + und})

    return ds.map_batches(shift, batch_format="pyarrow")


def _sql_vshift_gtx() -> str:
    """The same GTX bilinear in SQL, node values from the dyadic
    formula g(r,c) = 2 + 0.25*(40-r) + 0.125*c + 0.0625*(40-r)*c
    (north-up row r, column c) — equals the float32 grid exactly."""
    g = "(2.0 + 0.25*(40-{r}) + 0.125*{c} + 0.0625*(40-{r})*{c})"
    v00 = g.format(r="r", c="c")
    v01 = g.format(r="r", c="(c+1)")
    v10 = g.format(r="(r+1)", c="c")
    v11 = g.format(r="(r+1)", c="(c+1)")
    return f"""
WITH pts AS (
  SELECT doc_id,
         250.25 + (doc_id*7919 % 1216)/64.0 AS lon,
         30.25 + (doc_id*104729 % 576)/64.0 AS lat,
         (doc_id % 512)/8.0 AS z
  FROM documents
),
idx AS (
  SELECT *, (lon - 250.0)*4.0 AS fx, (40.0 - lat)*4.0 AS fy FROM pts
),
cell AS (
  SELECT *, floor(fy) AS r, floor(fx) AS c, fy - floor(fy) AS ty,
         fx - floor(fx) AS tx
  FROM idx
)
SELECT doc_id,
       z + ((1.0-ty)*((1.0-tx)*{v00} + tx*{v01})
            + ty*((1.0-tx)*{v10} + tx*{v11})) AS h
FROM cell
"""


_ST_BOX = ("POLYGON ((-30.00005 -60.00005, 60.00005 -60.00005, "
           "60.00005 70.00005, -30.00005 70.00005, -30.00005 -60.00005))")


def q_sql_st_funcs(sf_dir: str):
    """Spatialite-style ST_* geometry functions THROUGH the SQL parser
    (reference: the SQLite dialect's ST_* registration,
    ogr/ogrsf_frmts/sqlite/ogrsqliteexecutesql.cpp) — constructors
    (ST_Point/ST_GeomFromText), WKT round trip (ST_AsText∘
    ST_GeomFromText, the wkt_roundtrip coverage), measures (ST_Area /
    ST_Distance / ST_Envelope / ST_Buffer) and predicates (ST_Within /
    ST_Contains), all over the engine's own geom kernels. Buffer areas
    are evaluated on origin-scaled points so the shoelace-vs-closed-
    form float residue stays ~1e-15, absorbed by ROUND(·, 9)."""
    from gdal_ray import ogrsql
    from gdal_ray.pipelines import flagship

    pages = flagship.geotag_pages(
        flagship.pages_from_documents(sf_dir), has_html=False
    ).select_columns(["url", "lon", "lat"])
    sql = f"""SELECT url,
       ST_X(ST_GeomFromText(ST_AsText(ST_Point(lon, lat)))) AS px,
       ST_Y(ST_Point(lon, lat)) AS py,
       ST_Distance(ST_Point(lon, lat), ST_Point(0.0, 0.0)) AS d0,
       ST_Within(ST_Point(lon, lat), ST_GeomFromText('{_ST_BOX}')) AS in_box,
       ST_Contains(ST_GeomFromText('{_ST_BOX}'), ST_Point(lon, lat)) AS has_pt,
       ROUND(ST_Area(ST_Buffer(ST_Point(lon / 180.0, lat / 90.0), 0.25, 8)), 9) AS barea,
       ROUND(ST_Area(ST_Envelope(ST_Buffer(ST_Point(lon / 180.0, lat / 90.0), 0.25, 8))), 9) AS earea,
       ST_X(ST_Transform(ST_Point(lon, lat), 3857)) AS mx
FROM pages"""
    return ogrsql.execute(sql, {"pages": pages})


def _sql_st_funcs() -> str:
    """DuckDB mirror (no spatial extension offline): each ST_* column
    has a closed form — exact WKT round trip returns the input double;
    point distance is the same sqrt(dx²+dy²); the box predicates are
    range tests (box bounds chosen off the 4-decimal coordinate
    lattice); the 32-gon buffer area is ½·n·r²·sin(2π/n) and its
    envelope (2r)² via the same lon±r arithmetic."""
    return (
        _PAGES_SQL
        + """
SELECT url,
       lon AS px,
       lat AS py,
       sqrt(lon*lon + lat*lat) AS d0,
       (lon >= -30.00005 AND lon <= 60.00005 AND
        lat >= -60.00005 AND lat <= 70.00005) AS in_box,
       (lon >= -30.00005 AND lon <= 60.00005 AND
        lat >= -60.00005 AND lat <= 70.00005) AS has_pt,
       ROUND(0.5 * 32.0 * 0.25 * 0.25 * sin(2.0*pi()/32.0), 9) AS barea,
       ROUND(((lon/180.0 + 0.25) - (lon/180.0 - 0.25))
             * ((lat/90.0 + 0.25) - (lat/90.0 - 0.25)), 9) AS earea,
       lon * pi() / 180.0 * 6378137.0 AS mx
FROM pages
"""
    )


def q_scrub_canon(sf_dir: str):
    """Training-data cleaning pass: PII scrub (email/phone/IPv4 →
    typed placeholders, vectorized RE2) + URL canonicalization
    (lowercased scheme+host, query/fragment/trailing-slash stripped).
    Oracle: the identical regex pipeline in DuckDB."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from gdal_ray.pipelines import flagship
    from gdal_ray.stages.text import canonical_url, scrub_pii

    pages = flagship.geotag_pages(flagship.pages_from_documents(sf_dir), has_html=False)

    def clean(t: pa.Table) -> pa.Table:
        t = scrub_pii(t, "text")
        t = canonical_url(t, "url")
        return pa.table(
            {
                "url": t["url"],
                "url_canon": t["url_canon"],
                "n_email": t["n_email"],
                "n_phone": t["n_phone"],
                "n_ipv4": t["n_ipv4"],
                "scrub_len": pc.cast(
                    pc.utf8_length(t["text_scrubbed"]), pa.int64()
                ),
            }
        )

    return pages.map_batches(clean, batch_format="pyarrow")


def _sql_scrub_canon() -> str:
    email = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    phone = r"\+?\d{1,2}[-. ]?\(?\d{3}\)?[-. ]?\d{3}[-. ]?\d{4}"
    ipv4 = r"\b(?:\d{1,3}\.){3}\d{1,3}\b"
    sh = r"^[A-Za-z][A-Za-z0-9+.-]*://[^/]*"
    return (
        _PAGES_SQL
        + f"""
SELECT url,
  regexp_replace(
    lower(COALESCE(regexp_extract(u2, '{sh}'), ''))
      || regexp_replace(u2, '{sh}', ''),
    '/$', '') AS url_canon,
  CAST(length(regexp_extract_all(text, '{email}')) AS BIGINT) AS n_email,
  CAST(length(regexp_extract_all(t1, '{phone}')) AS BIGINT) AS n_phone,
  CAST(length(regexp_extract_all(t2, '{ipv4}')) AS BIGINT) AS n_ipv4,
  CAST(length(regexp_replace(t2, '{ipv4}', '<IP>', 'g')) AS BIGINT)
    AS scrub_len
FROM (
  SELECT url, text,
         regexp_replace(regexp_replace(url, '#.*$', ''), '\\?.*$', '') AS u2,
         regexp_replace(text, '{email}', '<EMAIL>', 'g') AS t1,
         regexp_replace(regexp_replace(text, '{email}', '<EMAIL>', 'g'),
                        '{phone}', '<PHONE>', 'g') AS t2
  FROM pages
)
"""
    )


_DIST_LINE = [(-60.0, -30.0), (-10.0, 10.0), (30.0, -5.0), (70.0, 40.0)]


def q_distance_line(sf_dir: str):
    """ST_Distance role (OGRGeometry::Distance, ogrgeometry.cpp:3536):
    planar distance from every page point to a fixed 3-segment
    polyline, vectorized per batch. Oracle: the same clamp-project
    formula per segment in SQL."""
    from gdal_ray.geom.scalars import distance_points_to_line
    from gdal_ray.pipelines import flagship

    line = np.array(_DIST_LINE)
    pages = flagship.geotag_pages(flagship.pages_from_documents(sf_dir), has_html=False)

    def dist(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        d = distance_points_to_line(lon, lat, line)
        return pa.table(
            {"url": t["url"], "dist": pa.array(np.round(d, 9))}
        )

    return pages.map_batches(dist, batch_format="pyarrow")


def _sql_distance_line() -> str:
    segs = []
    for (ax, ay), (bx, by) in zip(_DIST_LINE[:-1], _DIST_LINE[1:]):
        abx, aby = bx - ax, by - ay
        den = abx * abx + aby * aby
        t = (
            f"LEAST(GREATEST(((lon - ({ax!r}))*({abx!r}) "
            f"+ (lat - ({ay!r}))*({aby!r})) / {den!r}, 0.0), 1.0)"
        )
        segs.append(
            f"sqrt( (lon - (({ax!r}) + {t}*({abx!r})))"
            f"*(lon - (({ax!r}) + {t}*({abx!r})))"
            f" + (lat - (({ay!r}) + {t}*({aby!r})))"
            f"*(lat - (({ay!r}) + {t}*({aby!r}))) )"
        )
    expr = "LEAST(" + ", ".join(segs) + ")"
    return _PAGES_SQL + f"SELECT url, ROUND({expr}, 9) AS dist FROM pages"


def q_contour_bands(sf_dir: str):
    """Contour-polygon band areas (`gdal_contour -p` role) over the
    analytic ramp DEM z = 0.75*j + 1.5 (64x64), computed DISTRIBUTED:
    halo-exchanged tiles → per-tile marching-squares fill areas →
    groupby(band) sum. Oracle: level sets of the ramp are vertical
    lines, so each band is a strip with closed-form width. sf_dir
    unused (analytic fixture)."""
    import ray.data as rd

    from gdal_ray.raster import contour_poly as cpoly
    from gdal_ray.raster import model

    N = 64
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    z = (0.75 * j + 1.5).astype(np.float64)
    tiles = model.from_array(
        z, "EPSG:4326", (0.0, 1.0, 0.0, 0.0, 0.0, 1.0), tile_size=32
    )
    levels = [5.0, 15.0, 30.0, 45.0]
    out = cpoly.band_areas_tiles(rd.from_arrow(tiles), levels, 2, 2)

    import pyarrow.compute as pc

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "band": t["band"].cast(pa.int64()),
                "area": pc.round(t["area"], 6),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _sql_contour_bands() -> str:
    # x(L) = clamp((L - 1.5)/0.75, 0, 63); band area = 63*(x_hi - x_lo)
    def x(lv):
        return f"LEAST(GREATEST(({lv} - 1.5)/0.75, 0.0), 63.0)"

    bands = [(0, 5.0, 15.0), (1, 15.0, 30.0), (2, 30.0, 45.0)]
    rows = ", ".join(
        f"({b}, ROUND(63.0 * ({x(hi)} - {x(lo)}), 6))" for b, lo, hi in bands
    )
    top = f"(3, ROUND(63.0 * (63.0 - {x(45.0)}), 6))"
    return f"SELECT * FROM (VALUES {rows}, {top}) AS t(band, area)"


def _sql_warp_agg_mean() -> str:
    return """
WITH ii(i) AS (SELECT unnest(generate_series(0, 63))),
jj(j) AS (SELECT unnest(generate_series(0, 63))),
px AS (SELECT i, j, i*3.0 + j AS v FROM ii CROSS JOIN jj)
SELECT (i//2) * 32 + (j//2) AS pixel_id, AVG(v) AS mean_val
FROM px GROUP BY 1
"""


def q_html_extract(sf_dir: str):
    """The north-rule per-row invariant, end-to-end: pages gain a
    deterministic Common-Crawl-style ``html`` binary column
    (stages/html.py synthesize), the ``text`` column is DROPPED, and
    the WET-style :class:`HtmlTextExtractor` must recover it
    byte-identically per url — the oracle reconstructs the same text
    in pure SQL, so any extraction byte drift fails the value hash."""
    from gdal_ray.pipelines import flagship
    from gdal_ray.stages.cache import worker_cached
    from gdal_ray.stages.html import HtmlTextExtractor, synthesize_html_batch

    pages = flagship.pages_from_documents(sf_dir)

    def to_html(t: pa.Table) -> pa.Table:
        return synthesize_html_batch(t).drop_columns(["text"])

    html_pages = pages.map_batches(to_html, batch_format="pyarrow")
    out = html_pages.map_batches(
        worker_cached(HtmlTextExtractor), batch_format="pyarrow"
    )
    return out.select_columns(["url", "text"])


def _sql_html_extract() -> str:
    return _PAGES_SQL + "SELECT url, text FROM pages0"


QUERIES: dict[str, Callable[[str], Any]] = {
    "tile_assign": q_tile_assign,
    "html_extract": q_html_extract,
    "tile_counts_z9": q_tile_counts_z9,
    "cell_encode": q_cell_encode,
    "pip_join": q_pip_join,
    "pip_counts": q_pip_counts,
    "knn_k5": q_knn_k5,
    "vector_sample": q_vector_sample,
    "reproject_3857": q_reproject_3857,
    "reproject_epsg": q_reproject_epsg,
    "buffer_area": q_buffer_area,
    "polygonize_counts": q_polygonize_counts,
    "grid_idw": q_grid_idw,
    "dem_slope": q_dem_slope,
    "zonal_stats": q_zonal_stats,
    "warp_agg_mean": q_warp_agg_mean,
    "contour_bands": q_contour_bands,
    "distance_line": q_distance_line,
    "buffer_erode": q_buffer_erode,
    "ntv2_shift": q_ntv2_shift,
    "vshift_gtx": q_vshift_gtx,
    "sql_st_funcs": q_sql_st_funcs,
    "scrub_canon": q_scrub_canon,
}
# wkt_roundtrip retired from the 50-slot registry: its WKT write→parse
# round trip is exercised verbatim inside sql_st_funcs
# (ST_AsText ∘ ST_GeomFromText, column px) and in tests/test_wkt.py.

ORACLE: dict[str, str] = {
    "tile_assign": _sql_tile_assign(),
    "html_extract": _sql_html_extract(),
    "tile_counts_z9": _sql_tile_counts_z9(),
    "cell_encode": _sql_cell_encode(),
    "pip_join": _sql_pip_join(),
    "pip_counts": _sql_pip_counts(),
    "knn_k5": _sql_knn_k5(),
    "vector_sample": _sql_vector_sample(),
    "reproject_3857": _sql_reproject_3857(),
    "reproject_epsg": _sql_reproject_epsg(),
    "buffer_area": _sql_buffer_area(),
    "polygonize_counts": _sql_polygonize_counts(),
    "grid_idw": _sql_grid_idw(),
    "dem_slope": _sql_dem_slope(),
    "zonal_stats": _sql_zonal_stats(),
    "warp_agg_mean": _sql_warp_agg_mean(),
    "contour_bands": _sql_contour_bands(),
    "distance_line": _sql_distance_line(),
    "buffer_erode": _sql_buffer_erode(),
    "ntv2_shift": _sql_ntv2_shift(),
    "vshift_gtx": _sql_vshift_gtx(),
    "sql_st_funcs": _sql_st_funcs(),
    "scrub_canon": _sql_scrub_canon(),
}

# relational/text operator suite (separate module to keep this one
# focused on the spatial north-star queries)
from gdal_ray.queries_ml import ML_QUERIES  # noqa: E402
from gdal_ray.queries_relational import RELATIONAL_QUERIES  # noqa: E402

# ML queries register BEFORE relational: the r02 driver ran exactly
# the first 50 registered queries, so ordering is part of the
# coverage contract.
for _name, (_fn, _sql) in {**ML_QUERIES, **RELATIONAL_QUERIES}.items():
    QUERIES[_name] = _fn
    if _sql is not None:
        ORACLE[_name] = _sql

# The registry outgrew 50 in round 5 (56 entries, 54 oracle-checked).
# Positions 1-50 are exactly the 50 oracle-checked queries whose
# operator coverage has no other green row; positions 51-56 are bonus
# queries that run only if the driver is uncapped — each one's
# operator keeps green evidence elsewhere (union_names → sql_union;
# semi_anti_join → sql_in_subquery/sql_exists; update_layer →
# box_overlay/box_union; filter_cast → scalar_funcs CAST + pushdown
# filters) or is rows-only by contract (the two sketches).
_BONUS_TAIL = [
    "union_names", "semi_anti_join", "update_layer", "filter_cast",
    "approx_count_distinct", "reservoir_sample",
]
QUERIES = {
    **{k: v for k, v in QUERIES.items() if k not in _BONUS_TAIL},
    **{k: QUERIES[k] for k in _BONUS_TAIL if k in QUERIES},
}
assert len(QUERIES) == 56 and sum(
    1 for k in list(QUERIES)[:50] if k in ORACLE) == 50, \
    "first 50 registry slots must all be oracle-checked"
