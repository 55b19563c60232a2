"""Join stages: broadcast point-in-polygon join, broadcast hash join.

The PIP join reproduces GDAL layer-algebra ``Intersection`` for the
point×polygon case (ogr/ogrsf_frmts/generic/ogrlayer.cpp:5361-5470):
envelope pretest → prepared-geometry exact test, one output row per
matching (feature, method-feature) pair. GDAL's per-feature
``SetSpatialFilter`` nested loop becomes a broadcast index probed per
batch (SURVEY.md §2.4 mapping):

- the polygon side (small: admin boundaries) is broadcast ONCE —
  ``ray.put`` on the driver, fetched and indexed once per worker
  process (``stages.cache.worker_cached``) — never re-shipped per
  batch;
- the point side streams through those worker-cached tasks;
- each batch is one vectorised probe (``GridPolygonIndex.query_points``):
  its points expand to (point, candidate polygon) pairs over the
  index's CSR bucket lists, the pairs whose polygon envelope holds the
  point go to one even-odd kernel over their edges, in chunks of at
  most 2**18 (pair, edge) elements, and matches come out ordered by
  bucket, candidate rank, then point — no Python loop per bucket or
  per polygon.

For polygon sides too large to broadcast, partition BOTH sides by
covering tile/cell and probe per group (``cell_partitioned_pip`` —
SURVEY.md §7.3 shuffle fallback).

Equi joins of two Datasets (inner, outer, semi, anti) are
``stages.partition.join_partitions``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from gdal_ray.geom.index import GridPolygonIndex
from gdal_ray.stages.cache import resolve_broadcast, worker_cached
from gdal_ray.stages.partition import map_keys


class PIPJoiner:
    """Stateful stage (run through ``stages.cache.worker_cached``):
    inner point-in-polygon join against a broadcast polygon table.

    Parameters:
    - ``polygons``: pa.Table / ObjectRef / parquet path with columns
      ``geometry`` (WKB) + id/attr columns.
    - ``id_cols``: polygon columns appended to matches.
    - ``lon_col``/``lat_col``: point coordinate columns.
    - ``keep_unmatched``: LEFT-join semantics (OGR SQL JOIN is
      left-ish, ogr_gensql.cpp:1325) — unmatched points kept with null
      polygon attrs. Default False (Intersection semantics).

    Output: one row per (point, polygon) match; point columns
    passthrough + polygon id columns.
    """

    def __init__(
        self,
        polygons,
        id_cols: tuple[str, ...] = ("admin_id", "name"),
        lon_col: str = "lon",
        lat_col: str = "lat",
        keep_unmatched: bool = False,
    ):
        t = resolve_broadcast(polygons).combine_chunks()
        wkbs = t["geometry"].to_pylist()
        self.index = GridPolygonIndex(wkbs)
        # plain Arrays so .take() returns Arrays
        self.attrs = {
            c: (
                t[c].chunk(0)
                if t[c].num_chunks == 1
                else pa.concat_arrays(t[c].chunks)
            )
            for c in id_cols
        }
        self.id_cols = id_cols
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.keep_unmatched = keep_unmatched

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = batch[self.lon_col].to_numpy(zero_copy_only=False)
        py = batch[self.lat_col].to_numpy(zero_copy_only=False)
        pts, poly_ids = self.index.query_points(px, py)
        # poly_ids are positions in the polygon table (index.ids default)
        if self.keep_unmatched:
            matched = np.zeros(len(px), dtype=bool)
            matched[pts] = True
            un = np.flatnonzero(~matched)
            take_pts = np.concatenate([pts, un])
            out = batch.take(pa.array(take_pts))
            for c in self.id_cols:
                col = self.attrs[c].take(pa.array(poly_ids))
                pad = pa.nulls(len(un), col.type)
                out = out.append_column(c, pa.concat_arrays([col, pad]))
            return out
        out = batch.take(pa.array(pts))
        for c in self.id_cols:
            col = self.attrs[c].take(pa.array(poly_ids))
            out = out.append_column(c, col)
        return out


def cell_partitioned_pip(
    points,
    polygons,
    zoom: int = 7,
    id_cols: tuple[str, ...] = ("admin_id",),
    lon_col: str = "lon",
    lat_col: str = "lat",
):
    """PIP join for polygon sides too large to broadcast (SURVEY.md
    §7.3 shuffle fallback): partition BOTH sides by covering XYZ tile
    at ``zoom`` and probe per group.

    - polygons flat-map to every tile their envelope covers
      (replication factor = the cost knob, SURVEY.md §7.4);
    - points key by their own tile (exactly one), so each (point,
      polygon) pair is tested exactly once — no dedupe pass;
    - per-cell probe builds a GridPolygonIndex over the cell's
      polygons only (bounded by the cell), one ``map_keys`` call per
      cell.

    ``polygons``: a Dataset with geometry + id columns.
    """
    import numpy as np

    from gdal_ray import tiles as tl
    from gdal_ray.geom import wkb as gwkb

    def poly_tiles(batch: pa.Table) -> pa.Table:
        """Tile-cover explode, vectorized: the only per-row work is the
        WKB envelope parse; the (row x tile) expansion is numpy
        repeat/divmod + one table.take (no dict copies)."""
        geoms = batch["geometry"].to_pylist()
        n = len(geoms)
        if n == 0:
            return batch.append_column(
                "cell", pa.array([], pa.int64())
            ).append_column("side", pa.array([], pa.int8()))
        b = np.array([gwkb.bounds(g) for g in geoms], dtype=np.float64)
        tx0, ty0 = tl.lonlat_to_tile(b[:, 0], b[:, 1], zoom)
        tx1, ty1 = tl.lonlat_to_tile(b[:, 2], b[:, 3], zoom)
        # both sides clamp to the pyramid: a point still falls in the
        # clamped cover of a polygon that holds it
        xmin = tl.clamp_tile(np.minimum(tx0, tx1), zoom)
        xmax = tl.clamp_tile(np.maximum(tx0, tx1), zoom)
        ymin = tl.clamp_tile(np.minimum(ty0, ty1), zoom)
        ymax = tl.clamp_tile(np.maximum(ty0, ty1), zoom)
        ny = ymax - ymin + 1
        counts = (xmax - xmin + 1) * ny
        row_idx = np.repeat(np.arange(n), counts)
        off = np.arange(counts.sum(), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        nyr = ny[row_idx]
        tx = xmin[row_idx] + off // nyr
        ty = ymin[row_idx] + off % nyr
        cell = tl.tile_id(zoom, tx, ty)
        out = batch.take(pa.array(row_idx))
        return out.append_column(
            "cell", pa.array(np.asarray(cell, dtype=np.int64))
        ).append_column(
            "side", pa.array(np.ones(len(row_idx), dtype=np.int8))
        )

    def point_tiles(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        # a row without coordinates matches no polygon: keep it out of
        # the shuffle, not in the -1 tile of the lon -180 edge
        keep = np.isfinite(lon) & np.isfinite(lat)
        if not keep.all():
            batch, lon, lat = batch.filter(pa.array(keep)), lon[keep], lat[keep]
        tx, ty = tl.lonlat_to_tile(lon, lat, zoom)
        cell = tl.tile_id(zoom, tl.clamp_tile(tx, zoom), tl.clamp_tile(ty, zoom))
        return batch.append_column("cell", pa.array(cell)).append_column(
            "side", pa.array(np.zeros(len(lon), dtype=np.int8))
        )

    ptiles = polygons.map_batches(poly_tiles, batch_format="pyarrow")
    pts = points.map_batches(point_tiles, batch_format="pyarrow")
    # align schemas for the union (nulls for the other side's columns)
    pcols = {f.name: f.type for f in polygons.schema().base_schema}
    qcols = {f.name: f.type for f in points.schema().base_schema}

    def pad(missing):
        def f(t: pa.Table) -> pa.Table:
            for c, typ in missing:
                t = t.append_column(c, pa.nulls(t.num_rows, typ))
            return t

        return f

    ptiles = ptiles.map_batches(
        pad([(c, qcols[c]) for c in sorted(set(qcols) - set(pcols))]),
        batch_format="pyarrow",
    )
    pts = pts.map_batches(
        pad([(c, pcols[c]) for c in sorted(set(pcols) - set(qcols))]),
        batch_format="pyarrow",
    )
    both = ptiles.union(pts)

    def probe(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        poly_rows = np.flatnonzero(side == 1)
        pt_rows = np.flatnonzero(side == 0)
        if len(poly_rows) == 0 or len(pt_rows) == 0:
            empty = {c: pa.array([], group.schema.field(c).type)
                     for c in ([lon_col, lat_col] + list(id_cols))}
            return pa.table(empty)
        geom_col = group["geometry"].take(pa.array(poly_rows))
        idx = GridPolygonIndex(
            geom_col.to_pylist(),
            ids=np.arange(len(poly_rows), dtype=np.int64),
        )
        px = group[lon_col].to_numpy(zero_copy_only=False)[pt_rows]
        py = group[lat_col].to_numpy(zero_copy_only=False)[pt_rows]
        pi, poly_pos = idx.query_points(px, py)
        out = {
            lon_col: pa.array(px[pi]),
            lat_col: pa.array(py[pi]),
        }
        for c in id_cols:
            out[c] = group[c].take(pa.array(poly_rows[poly_pos])).cast(
                group.schema.field(c).type
            )
        # passthrough extra point columns (arrow take — no pandas)
        for c in group.schema.names:
            if c in (lon_col, lat_col, "cell", "side", *id_cols, "geometry"):
                continue
            if c in qcols:
                out[c] = group[c].take(pa.array(pt_rows[pi]))
        return pa.table(out)

    return map_keys(both, "cell", probe)


def broadcast_hash_join(left, small: pa.Table, left_on, right_on=None,
                        join_type: str = "inner",
                        max_broadcast_rows: int = 20_000_000):
    """Equi join where one side fits in memory: ``ray.put`` the small
    side ONCE, per-batch Acero hash join inside ``map_batches`` — no
    all-to-all shuffle and no join-operator startup. This is the
    100-TB shape for dimension-table joins (the reference's secondary
    -layer lookup, ogr_gensql.cpp:1325): the big side streams; the
    dimension table lives in the object store once per NODE (plasma
    shared-memory — ``ray.get`` in the task is zero-copy), not once
    per task or per batch.

    ``join_type``: "inner" or "left outer" only — per-batch joins
    can't implement right/full semantics (they need global unmatched
    -row tracking across batches; use
    ``stages.partition.join_partitions`` for those or for large-large
    joins)."""
    if join_type not in ("inner", "left outer"):
        raise ValueError(f"broadcast_hash_join: {join_type!r} "
                         "(per-batch join is inner/left outer only)")
    if small.num_rows > max_broadcast_rows:
        raise ValueError(
            f"small side has {small.num_rows} rows > "
            f"max_broadcast_rows={max_broadcast_rows}; use join_partitions"
        )
    right_on = right_on or left_on
    lkeys = [left_on] if isinstance(left_on, str) else list(left_on)
    rkeys = [right_on] if isinstance(right_on, str) else list(right_on)
    ref = ray.put(small)

    def j(batch: pa.Table) -> pa.Table:
        return batch.join(ray.get(ref), keys=lkeys, right_keys=rkeys,
                          join_type=join_type)

    return left.map_batches(j, batch_format="pyarrow")


def pip_join(
    points,
    polygons,
    id_cols: tuple[str, ...] = ("admin_id", "name"),
    lon_col: str = "lon",
    lat_col: str = "lat",
    keep_unmatched: bool = False,
    batch_size: int | None = None,
):
    """points Dataset ⋈ broadcast polygon table, as worker-cached tasks
    (the index builds once per warm worker)."""
    if isinstance(polygons, pa.Table):
        polygons = ray.put(polygons)
    return points.map_batches(
        worker_cached(
            PIPJoiner,
            polygons=polygons,
            id_cols=id_cols,
            lon_col=lon_col,
            lat_col=lat_col,
            keep_unmatched=keep_unmatched,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
