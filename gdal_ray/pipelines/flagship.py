"""The flagship pipeline: pages → geoparse → cell/tile encode → PIP
join → tile assignment (SURVEY.md §7.1 milestone 0 + north_rule).

Every stage is a stateless ``map_batches(batch_format="pyarrow")``
kernel except the PIP join and kNN features, whose broadcast state
lives in the per-worker stage cache (gdal_ray.stages.cache). No
driver-side row loops, no full materialization: the pipeline streams.

The production scan (``fused_geotag_pip``) runs the whole chain in one
task per batch and dictionary-encodes the batch's coordinates first:
every geometric stage runs once per distinct (lon, lat) pair, and its
output reaches the rows by gather (rows) or by a count-weighted sum
(admin partials).

The ``html`` column (potentially MBs/row at 100 TB) is projected away
at the READ (``columns=[...]``) — wide payloads never enter a shuffle
(SURVEY.md §7.4 "very wide rows").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from gdal_ray import tiles
from gdal_ray.geoparse import GAZETTEER, extract_coords

DEFAULT_ZOOMS = (7, 9, 12)

_HOT = 0  # gazetteer index of the hot city


def pages_from_documents(sf_dir: str) -> rd.Dataset:
    """Derive the FIXTURES.md §1 ``pages`` corpus deterministically
    from the driver's ``documents`` table (no external data; the same
    derivation is expressible in the DuckDB oracle SQL).

    url/warc_ts/place are pure functions of ``doc_id``; the text embeds
    the place name and literal 4-dp coordinates so geoparsing is
    exactly invertible.
    """
    names = np.array([g[0] for g in GAZETTEER], dtype=object)
    lons = np.array([g[1] for g in GAZETTEER])
    lats = np.array([g[2] for g in GAZETTEER])

    def derive(batch: pa.Table) -> pa.Table:
        i = batch["doc_id"].to_numpy()
        pidx = np.where(i % 5 == 0, _HOT, i % 64)
        place = names[pidx]
        lat_s = np.char.mod("%.4f", lats[pidx])
        lon_s = np.char.mod("%.4f", lons[pidx])
        istr = i.astype(str)
        text = np.char.add(
            np.char.add(np.char.add("Report ", istr), ": rain near "),
            np.char.add(
                place.astype(str),
                np.char.add(
                    np.char.add(np.char.add(" at ", lat_s), ","),
                    np.char.add(lon_s, " today."),
                ),
            ),
        )
        url = np.char.add(
            np.char.add(
                np.char.add("https://site", (i % 50).astype(str)), ".example/"
            ),
            istr,
        )
        base_us = np.int64(1735689600) * 1_000_000  # 2025-01-01T00:00:00Z
        warc_ts = base_us + i * 137 * 1_000_000
        return pa.table(
            {
                "url": pa.array(url.tolist(), pa.string()),
                "warc_ts": pa.array(warc_ts, pa.timestamp("us")),
                "text": pa.array(text.tolist(), pa.string()),
                "lang": batch["lang"],
            }
        )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    # note: doc text is replaced, not appended — keeps the derivation
    # exactly mirrorable in SQL without string-escaping pitfalls
    return ds.map_batches(derive, batch_format="pyarrow")


def encode_tiles(
    batch: pa.Table, zooms: tuple[int, ...] = DEFAULT_ZOOMS
) -> pa.Table:
    """lon/lat columns → XYZ tile columns ``tile_z{z}_x`` / ``_y`` per
    zoom + packed ``tile_id`` at the finest zoom (the shuffle key). A
    row without coordinates keeps the (-1, 2^z) marker tile of
    ``tiles.lonlat_to_xyz_tile`` and gets a null ``tile_id``."""
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    cols = {}
    for z in zooms:
        x, y = tiles.lonlat_to_xyz_tile(lon, lat, z)
        cols[f"tile_z{z}_x"] = x
        cols[f"tile_z{z}_y"] = y
    zmax = max(zooms)
    ok = np.isfinite(lon) & np.isfinite(lat)
    tid = np.zeros(len(lon), dtype=np.int64)
    tid[ok] = tiles.tile_id(zmax, cols[f"tile_z{zmax}_x"][ok],
                            cols[f"tile_z{zmax}_y"][ok])
    for k, v in cols.items():
        batch = batch.append_column(k, pa.array(v))
    return batch.append_column("tile_id", pa.array(tid, mask=~ok))


def encode_cells(
    batch: pa.Table,
    hex_res: tuple[int, ...] = (7, 8, 9),
    s2_level: int = 16,
) -> pa.Table:
    """lon/lat → hierarchical cell ids: genuine H3 ids at res 7-9 (the
    north-rule "H3 (res 7-9)" role; gdal_ray.cells.h3 is spec-exact,
    golden-pinned in tests/test_h3.py) + S2 level-16 cell. One shared
    trig front-end for the three H3 resolutions. All vectorized."""
    from gdal_ray.cells import h3 as h3mod, s2 as s2mod

    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    cells = h3mod.latlng_to_cells_multi(lat, lon, hex_res)
    for r in hex_res:
        batch = batch.append_column(f"h3_res{r}", pa.array(cells[r]))
    return batch.append_column(
        "s2_cell", pa.array(s2mod.lonlat_to_cell(lon, lat, s2_level))
    )


def geotag_pages(
    pages: rd.Dataset,
    zooms: tuple[int, ...] = DEFAULT_ZOOMS,
    has_html: bool | None = None,
) -> rd.Dataset:
    """pages (url, warc_ts, text, lang[, html]) → + lon/lat + tiles.

    ``has_html=False`` skips the html-column probe — ``.schema()`` on
    a transformed Dataset triggers a limit-1 execution (~1 s of fixed
    overhead per query); callers that KNOW their derivation emits no
    html column (pages_from_documents) pass False."""
    if has_html is None:
        names = pages.schema().names
        has_html = "html" in names
        if has_html:
            pages = pages.select_columns([c for c in names if c != "html"])
    elif has_html:
        names = pages.schema().names
        pages = pages.select_columns([c for c in names if c != "html"])
    tagged = pages.map_batches(extract_coords, batch_format="pyarrow")
    return tagged.map_batches(
        lambda b: encode_tiles(b, zooms), batch_format="pyarrow"
    )


def tile_counts(tagged: rd.Dataset, zoom: int = 9) -> rd.Dataset:
    """Pages per tile at a zoom — partial-aggregate inside map_batches
    first (one row per tile per batch), then a small groupby: the
    pre-aggregation pattern that keeps the shuffle tiny even when
    pages per tile is huge (SURVEY.md §4 skew note)."""
    xk, yk = f"tile_z{zoom}_x", f"tile_z{zoom}_y"

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc  # noqa: PLC0415

        g = batch.select([xk, yk]).group_by([xk, yk]).aggregate([([], "count_all")])
        return g.rename_columns([xk, yk, "partial_count"])

    partials = tagged.map_batches(partial, batch_format="pyarrow")
    from ray.data.aggregate import Sum

    return partials.groupby([xk, yk]).aggregate(
        Sum("partial_count", alias_name="n_pages")
    )


def flagship(sf_dir: str, zooms: tuple[int, ...] = DEFAULT_ZOOMS) -> rd.Dataset:
    """documents → pages → geoparse → tile encode (the smoke slice;
    the PIP-join variant lives in gdal_ray.pipelines.pip)."""
    return geotag_pages(pages_from_documents(sf_dir), zooms, has_html=False)


def merge_admin_partials(batch: pa.Table) -> pa.Table:
    """Combine per-admin partial counts (associative, Arrow-native)."""
    g = batch.group_by(["admin_id"]).aggregate([("partial_count", "sum")])
    return g.rename_columns(["admin_id", "partial_count"])


def admin_rollup(partials: rd.Dataset) -> pa.Table:
    """Fold the per-task admin partials into the final ``(admin_id,
    n_pages)`` rollup.

    The input is ONE row per admin per scan task (the task-level
    combine already ran map-side), so the stream reaching the driver
    is O(admins x tasks) — kilobytes per task. It is folded
    incrementally with Arrow's C++ hash aggregate: memory stays
    O(admins), nothing is materialized.

    Why not ``groupby().aggregate()`` / ``repartition()`` here: any
    all-to-all operator makes Ray Data's resource manager reserve
    executor slots for the shuffle, which starves the scan operator at
    small cluster sizes — measured on this pipeline at 8 CPUs:
    repartition-rollup 31.1 s, sort-groupby 8.6 s, streamed fold 5.4 s
    for identical output. The fold is the same final-combine a
    ``ds.sum()`` performs; wide rollups (per-tile, per-cell — millions
    of groups) still belong in ``groupby`` (see tile_counts).
    """
    buf: list[pa.Table] = []
    acc: pa.Table | None = None
    for b in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        buf.append(b)
        if len(buf) >= 64:  # amortize the fold: one merge per 64 tasks
            merged = pa.concat_tables(([acc] if acc is not None else []) + buf)
            acc = merge_admin_partials(merged)
            buf.clear()
    if acc is None and not buf:
        return pa.table(
            {"admin_id": pa.array([], pa.int64()), "n_pages": pa.array([], pa.int64())}
        )
    if buf:
        merged = pa.concat_tables(([acc] if acc is not None else []) + buf)
        acc = merge_admin_partials(merged)
    return acc.rename_columns(["admin_id", "n_pages"])


# ---------------------------------------------------------------------------
# fused production stage (the ogr2ogr pattern: one task runs the whole
# per-record option chain, apps/ogr2ogr_lib.cpp:6529 LayerTranslator)


def fused_geotag_pip(
    batch: pa.Table,
    bnd_ref=None,
    knn_ref=None,
    emit: str = "admin_partials",
) -> pa.Table:
    """One fused kernel: geoparse → tile encode → cell encode → kNN
    features → PIP join → per-batch partial admin counts.

    One path for every batch: the parsed (lon, lat) pairs are
    dictionary-encoded once (``pd.factorize``, the (NaN, NaN) rows of
    pages without coordinates appended as one more group), and the
    per-point stages run once per distinct coordinate. Every stage is
    a pure function of (lon, lat), so a gazetteer corpus (64 distinct
    points per file) does its geometry once per place, and a
    continuous corpus (nearly all points distinct) pays only the
    factorize hash. ``extract_coords`` takes lat and lon from one
    ``COORD_PATTERN`` match (parsed at the row's first comma, or by the
    regex where that is no match), so a pair is never half NaN.

    Designed for TASK-based ``map_batches`` (not an actor pool): Ray
    reuses worker processes across tasks and executions, so the
    broadcast state (polygon index, kNN grid) is built once per worker
    through ``stages.cache.cached_instance`` — actor-pool amortization
    without actor-pool startup latency (an autoscaling pool never ramps
    up inside a short job; measured in bench tuning). ``bnd_ref`` and
    ``knn_ref`` are ObjectRefs, or tables when called in-process.

    ``emit``: "admin_partials" (default, the rollup shuffle input: each
    (distinct point, polygon) match adds that point's row count) or
    "rows" (the parsed rows with the encoded columns gathered back by
    dictionary code, through ``PIPJoiner``).
    """
    import pandas as pd

    from gdal_ray.stages.cache import cached_instance
    from gdal_ray.stages.join import PIPJoiner
    from gdal_ray.stages.knn import GridKNNFeatures

    pip = cached_instance(PIPJoiner, polygons=bnd_ref, id_cols=("admin_id",))
    knn = None if knn_ref is None else cached_instance(GridKNNFeatures, ref=knn_ref)
    b = extract_coords(batch)
    lon = b["lon"].to_numpy(zero_copy_only=False)
    lat = b["lat"].to_numpy(zero_copy_only=False)
    codes, uniq = pd.factorize(lon + 1j * lat)  # (NaN, NaN) rows -> -1
    nan_rows = codes < 0
    if nan_rows.any():
        codes[nan_rows] = len(uniq)
        uniq = np.append(uniq, complex(np.nan, np.nan))
    ulon = np.ascontiguousarray(uniq.real)
    ulat = np.ascontiguousarray(uniq.imag)
    ub = encode_cells(encode_tiles(pa.table({"lon": ulon, "lat": ulat})))
    if knn is not None:
        ub = knn(ub)

    if emit == "rows":
        at = pa.array(codes)
        for name in ub.column_names[2:]:  # every column after lon, lat
            b = b.append_column(name, ub[name].take(at))
        return pip(b)

    upts, upolys = pip.index.query_points(ulon, ulat)
    counts = np.bincount(codes, minlength=len(ulon))
    acc = np.zeros(len(pip.attrs["admin_id"]), dtype=np.int64)
    np.add.at(acc, upolys, counts[upts])
    nz = np.flatnonzero(acc)
    return pa.table(
        {
            "admin_id": pip.attrs["admin_id"].take(pa.array(nz)),
            "partial_count": pa.array(acc[nz], pa.int64()),
        }
    )
