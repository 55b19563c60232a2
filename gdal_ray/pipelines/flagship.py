"""The flagship pipeline: pages → geoparse → cell/tile encode → PIP
join → tile assignment (SURVEY.md §7.1 milestone 0 + north_rule).

Every stage is a stateless ``map_batches(batch_format="pyarrow")``
kernel except the PIP join and kNN features, whose broadcast state
lives in the per-worker stage cache (gdal_ray.stages.cache). No
driver-side row loops, no full materialization: the pipeline streams.

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
    zoom + packed ``tile_id`` at the finest zoom (the shuffle key)."""
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    cols = {}
    for z in zooms:
        x, y = tiles.lonlat_to_xyz_tile(lon, lat, z)
        cols[f"tile_z{z}_x"] = x
        cols[f"tile_z{z}_y"] = y
    zmax = max(zooms)
    tid = tiles.tile_id(zmax, cols[f"tile_z{zmax}_x"], cols[f"tile_z{zmax}_y"])
    for k, v in cols.items():
        batch = batch.append_column(k, pa.array(v))
    return batch.append_column("tile_id", pa.array(tid))


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


def tile_counts(tagged: rd.Dataset, zoom: int = 9, num_partitions: int = 8) -> rd.Dataset:
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

    return partials.groupby([xk, yk], num_partitions=num_partitions).aggregate(
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

# dictionary-encode threshold: take the unique-coordinate fast path only
# when distinct (lon, lat) pairs are at most 1/4 of the rows — geoparsed
# corpora (coordinates minted from a finite gazetteer) sit far below
# this; continuous-coordinate corpora skip straight to the direct path.
_FACTORIZE_MAX_RATIO = 4


def _factorize_coords(lon: np.ndarray, lat: np.ndarray):
    """Group rows by exact (lon, lat) value.

    Returns ``(ulon, ulat, codes, counts)`` — the unique coordinates,
    the per-row group id, and per-group row counts — or ``None`` when
    the cardinality is too high for dictionary encoding to pay off
    (or a pathological half-NaN coordinate pair is present).

    Rationale: every geometric stage downstream (tile encode, H3/S2
    encode, kNN features, PIP join) is a pure function of (lon, lat).
    Gazetteer-geoparsed text has coordinate cardinality bounded by the
    gazetteer, so running those stages once per *distinct* coordinate
    and expanding by gather does the same work per unique point and
    O(1) per duplicate — the Arrow-dictionary-encoding idea applied to
    a compute kernel. Value equality (not bit equality) is safe: all
    downstream kernels are IEEE-insensitive to -0.0 vs +0.0, and NaN
    rows are collapsed into one group that every stage treats as a
    non-match (same as the direct path).
    """
    import pandas as pd

    n = len(lon)
    if n < 1024:
        return None
    lon_nan = np.isnan(lon)
    lat_nan = np.isnan(lat)
    if (lon_nan != lat_nan).any():
        return None  # half-NaN pairs: keep exact direct-path semantics
    codes, uniq = pd.factorize(lon + 1j * lat)  # NaN pairs -> code -1
    nu = len(uniq)
    has_nan = bool(lon_nan.any())
    if (nu + has_nan) * _FACTORIZE_MAX_RATIO > n:
        return None
    if has_nan:
        codes = np.where(codes < 0, nu, codes).astype(np.int64)
        uniq = np.append(uniq, complex(float("nan"), float("nan")))
        nu += 1
    else:
        codes = codes.astype(np.int64)
    return (
        np.ascontiguousarray(uniq.real),
        np.ascontiguousarray(uniq.imag),
        codes,
        np.bincount(codes, minlength=nu),
    )


def _encode_unique(knn, ulon: np.ndarray, ulat: np.ndarray) -> pa.Table:
    """Run the per-point encoder chain on the unique coordinate set."""
    ub = pa.table(
        {"lon": pa.array(ulon, pa.float64()), "lat": pa.array(ulat, pa.float64())}
    )
    ub = encode_tiles(ub)
    ub = encode_cells(ub)
    if knn is not None:
        ub = knn(ub)
    return ub


def fused_geotag_pip(
    batch: pa.Table,
    bnd_ref=None,
    knn_ref=None,
    emit: str = "admin_partials",
) -> pa.Table:
    """One fused kernel: geoparse → tile encode → cell encode → kNN
    features → PIP join → per-batch partial admin counts.

    Designed for TASK-based ``map_batches`` (not an actor pool): Ray
    reuses worker processes across tasks and executions, so the
    broadcast state (polygon index, kNN grid) is built once per worker
    through ``stages.cache.cached_instance`` — actor-pool amortization
    without actor-pool startup latency (an autoscaling pool never ramps
    up inside a short job; measured in bench tuning). ``bnd_ref`` and
    ``knn_ref`` are ObjectRefs, or tables when called in-process.

    ``emit``: "admin_partials" (default, the rollup shuffle input) or
    "rows" (full joined rows).
    """
    from gdal_ray.stages.cache import cached_instance
    from gdal_ray.stages.join import PIPJoiner
    from gdal_ray.stages.knn import GridKNNFeatures

    pip = cached_instance(PIPJoiner, polygons=bnd_ref, id_cols=("admin_id",))
    knn = None if knn_ref is None else cached_instance(GridKNNFeatures, ref=knn_ref)
    b = extract_coords(batch)
    if emit != "rows":
        # the rollup only needs coordinates downstream: drop the wide
        # text/url columns immediately after parsing so they don't flow
        # through 4 more kernels and the join's take() (wide-row rule,
        # SURVEY.md §7.4)
        b = b.select(["lon", "lat"])
    lon = b["lon"].to_numpy(zero_copy_only=False)
    lat = b["lat"].to_numpy(zero_copy_only=False)
    fac = _factorize_coords(lon, lat)
    if fac is None:
        # direct path: continuous-coordinate corpora
        b = encode_tiles(b)
        b = encode_cells(b)
        if knn is not None:
            b = knn(b)
        joined = pip(b)
        if emit == "rows":
            return joined
        g = (
            joined.select(["admin_id"])
            .group_by(["admin_id"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["admin_id", "partial_count"])

    # dictionary fast path: encode once per distinct coordinate
    ulon, ulat, codes, counts = fac
    ub = _encode_unique(knn, ulon, ulat)
    upts, upolys = pip.index.query_points(ulon, ulat)

    if emit != "rows":
        # weighted partial rollup: each (unique pt, polygon) match
        # contributes that coordinate's duplicate count
        npoly = len(pip.attrs["admin_id"])
        acc = np.zeros(npoly, dtype=np.int64)
        np.add.at(acc, upolys, counts[upts])
        nz = np.flatnonzero(acc)
        return pa.table(
            {
                "admin_id": pip.attrs["admin_id"].take(pa.array(nz)),
                "partial_count": pa.array(acc[nz], pa.int64()),
            }
        )

    # rows mode: expand encoded columns by gather, PIP matches by CSR
    inv_arr = pa.array(codes)
    for name in ub.column_names:
        if name not in ("lon", "lat"):
            b = b.append_column(name, ub[name].take(inv_arr))
    # CSR over unique points: matches sorted by unique-point id
    order = np.argsort(upts, kind="stable")
    upts_s, upolys_s = upts[order], upolys[order]
    match_cnt = np.bincount(upts_s, minlength=len(ulon))
    offs = np.concatenate([[0], np.cumsum(match_cnt)])
    m_row = match_cnt[codes]
    total = int(m_row.sum())
    row_idx = np.repeat(np.arange(len(codes), dtype=np.int64), m_row)
    first_out = np.cumsum(m_row) - m_row
    within = np.arange(total, dtype=np.int64) - np.repeat(first_out, m_row)
    poly_out = upolys_s[np.repeat(offs[codes], m_row) + within]
    out = b.take(pa.array(row_idx))
    for c in pip.id_cols:
        out = out.append_column(c, pip.attrs[c].take(pa.array(poly_out)))
    return out
