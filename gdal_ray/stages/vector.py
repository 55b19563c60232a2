"""Vector operator stages — the `gdal vector …` step registry
(apps/gdalalg_vector_pipeline.cpp:139-188) as Dataset transforms.

Thin, explicit wrappers: most steps ARE one-line Dataset calls
(filter/select/limit) — listed here so the operator inventory maps
1:1; geometry steps lift the gdal_ray.geom kernels over a WKB column.

Per-geometry WKB rewrites iterate geometries within a batch (WKB is a
variable-length format; points — the corpus hot path — use the
vectorized encode/decode instead).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from gdal_ray.geom import ops as gops
from gdal_ray.geom import wkb as gwkb
from gdal_ray.proj import Transformer


def select(ds: rd.Dataset, columns: list[str], rename: dict[str, str] | None = None) -> rd.Dataset:
    """`gdal vector select`: projection + rename."""
    out = ds.select_columns(columns)
    if rename:
        new = [rename.get(c, c) for c in columns]
        out = out.map_batches(
            lambda t: t.rename_columns(new), batch_format="pyarrow"
        )
    return out


def limit(ds: rd.Dataset, n: int) -> rd.Dataset:
    """OGR SQL LIMIT (swq_parser.y:1129)."""
    return ds.limit(n)


def edit(
    ds: rd.Dataset,
    rename: dict[str, str] | None = None,
    set_values: dict[str, object] | None = None,
    drop: list[str] | None = None,
    computed: dict[str, str] | None = None,
) -> rd.Dataset:
    """`gdal vector edit` (apps/gdalalg_vector_edit.cpp surface):
    rename fields, set constant field values (new or existing
    columns), drop fields, and add computed fields (OGR SQL
    expressions evaluated per batch via the ogrsql evaluator)."""
    comp_asts = None
    if computed:
        from gdal_ray.ogrsql import _Parser, _tokenize

        comp_asts = {
            name: _Parser(_tokenize(expr)).parse_expr()
            for name, expr in computed.items()
        }

    def f(t: pa.Table) -> pa.Table:
        if drop:
            t = t.drop_columns([c for c in drop if c in t.schema.names])
        if set_values:
            for name, val in set_values.items():
                arr = pa.nulls(t.num_rows).cast(
                    pa.scalar(val).type
                ).fill_null(val)
                if name in t.schema.names:
                    t = t.set_column(
                        t.schema.get_field_index(name), name, arr
                    )
                else:
                    t = t.append_column(name, arr)
        if comp_asts:
            from gdal_ray.ogrsql import eval_expr

            for name, ast in comp_asts.items():
                v = eval_expr(ast, t)
                if isinstance(v, pa.ChunkedArray):
                    v = v.combine_chunks()
                t = t.append_column(name, v)
        if rename:
            t = t.rename_columns(
                [rename.get(c, c) for c in t.schema.names]
            )
        return t

    return ds.map_batches(f, batch_format="pyarrow")


def set_field_type(ds: rd.Dataset, column: str, new_type: pa.DataType) -> rd.Dataset:
    """`gdal vector set-field-type`: CAST column."""

    def cast(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(column)
        return t.set_column(i, column, pc.cast(t[column], new_type))

    return ds.map_batches(cast, batch_format="pyarrow")


def make_point(ds: rd.Dataset, lon_col: str, lat_col: str,
               geom_col: str = "geometry") -> rd.Dataset:
    """`gdal vector make-point`: numeric columns → WKB point column
    (vectorized (N,21) encode)."""

    def mk(t: pa.Table) -> pa.Table:
        lon = t[lon_col].to_numpy(zero_copy_only=False)
        lat = t[lat_col].to_numpy(zero_copy_only=False)
        return t.append_column(geom_col, gwkb.encode_points(lon, lat))

    return ds.map_batches(mk, batch_format="pyarrow")


def map_wkb(ds: rd.Dataset, fn, geom_col: str = "geometry") -> rd.Dataset:
    """Lift a bytes→bytes geometry function over the WKB column."""

    def apply(t: pa.Table) -> pa.Table:
        vals = t[geom_col].to_pylist()
        out = [fn(v) if v is not None else None for v in vals]
        i = t.schema.get_field_index(geom_col)
        return t.set_column(i, gwkb.wkb_field(geom_col), pa.array(out, pa.binary()))

    return ds.map_batches(apply, batch_format="pyarrow")


def swap_xy(ds, geom_col="geometry"):
    return map_wkb(ds, gops.swap_xy_wkb, geom_col)


def linearize(ds, geom_col="geometry", max_angle_deg: float = 4.0):
    """Curve→linear conversion on read (ogr2ogr semantics when the
    output driver can't store curves; OGRGeometryFactory
    curveToLineString, OGR_ARC_STEPSIZE default 4°): CircularString/
    CompoundCurve → LineString, CurvePolygon → Polygon, MultiCurve/
    MultiSurface → their linear multis; linear geometry passes
    through untouched."""
    from gdal_ray.geom import curves as gcurves

    return map_wkb(
        ds, lambda b: gcurves.linearize(b, max_angle_deg), geom_col
    )


def simplify(ds, tolerance: float, geom_col="geometry"):
    def f(buf):
        g = gwkb.parse(buf)
        if g["type"] == gwkb.LINESTRING:
            return gwkb.linestring_wkb(gops.simplify_coords(g["coords"], tolerance))
        if g["type"] == gwkb.POLYGON:
            rings = [gops.simplify_coords(r, tolerance) for r in g["rings"]]
            rings = [r for r in rings if len(r) >= 4]
            return gwkb.polygon_wkb(rings[0], rings[1:])
        return buf

    return map_wkb(ds, f, geom_col)


def segmentize(ds, max_length: float, geom_col="geometry"):
    def f(buf):
        g = gwkb.parse(buf)
        if g["type"] == gwkb.LINESTRING:
            return gwkb.linestring_wkb(gops.segmentize_coords(g["coords"], max_length))
        if g["type"] == gwkb.POLYGON:
            rings = [gops.segmentize_coords(r, max_length) for r in g["rings"]]
            return gwkb.polygon_wkb(rings[0], rings[1:])
        return buf

    return map_wkb(ds, f, geom_col)


def buffer_wkb(buf: bytes, distance: float, quadsegs: int = 30) -> bytes:
    """Buffer one WKB geometry (Point/LineString/Polygon/Multi*) with
    round joins and caps — OGRGeometry::Buffer role
    (ogr/ogrgeometry.cpp:4498 semantics via geom.buffer raw-offset +
    node-split construction; simply-connected results)."""
    from gdal_ray.geom import buffer as gbuf

    g = gwkb.parse(buf)
    t = g["type"]
    if t == gwkb.POINT:
        x, y = g["coords"][0]
        return gwkb.polygon_wkb(gops.buffer_point(x, y, distance, quadsegs))
    if t == gwkb.LINESTRING:
        rings = gbuf.buffer_line(g["coords"], distance, quadsegs)
    elif t == gwkb.POLYGON:
        rings = gbuf.buffer_polygon(g["rings"][0], distance, quadsegs)
    elif t in (gwkb.MULTIPOINT, gwkb.MULTILINESTRING, gwkb.MULTIPOLYGON):
        parts = [buffer_wkb(p, distance, quadsegs) for p in gops.explode_wkb(buf)]
        rings = []
        for p in parts:
            rings.extend(gwkb.polygon_rings(p))
        # note: parts may overlap; union is not applied (v1 scope)
    else:
        raise NotImplementedError(f"buffer: unsupported geometry type {t}")
    if len(rings) == 1:
        return gwkb.polygon_wkb(rings[0])
    return gwkb.multipolygon_wkb([(rg, []) for rg in rings])


def explode_collections(ds, geom_col="geometry"):
    """1 row per geometry part (flat_map semantics,
    apps/gdalalg_vector_explode_collections.cpp)."""

    def explode(t: pa.Table) -> pa.Table:
        idx = []
        geoms = []
        for i, v in enumerate(t[geom_col].to_pylist()):
            if v is None:
                idx.append(i)
                geoms.append(None)
                continue
            for part in gops.explode_wkb(v):
                idx.append(i)
                geoms.append(part)
        out = t.take(pa.array(idx, pa.int64()))
        gi = out.schema.get_field_index(geom_col)
        return out.set_column(gi, gwkb.wkb_field(geom_col), pa.array(geoms, pa.binary()))

    return ds.map_batches(explode, batch_format="pyarrow")


def reproject(ds, src_crs: str, dst_crs: str, x_col: str = "lon",
              y_col: str = "lat") -> rd.Dataset:
    """`gdal vector reproject` on coordinate columns: cached per-worker
    Transformer (OGRProjCT pattern), vectorized, per-point success
    flags → null coordinates on failure."""

    def rp(t: pa.Table) -> pa.Table:
        tr = Transformer.from_crs(src_crs, dst_crs)
        x = t[x_col].to_numpy(zero_copy_only=False)
        y = t[y_col].to_numpy(zero_copy_only=False)
        xo, yo, ok = tr.transform_with_errors(x, y)
        xi = t.schema.get_field_index(x_col)
        t = t.set_column(xi, x_col, pa.array(xo, pa.float64(), mask=~ok))
        yi = t.schema.get_field_index(y_col)
        return t.set_column(yi, y_col, pa.array(yo, pa.float64(), mask=~ok))

    return ds.map_batches(rp, batch_format="pyarrow")


def spatial_sort(ds, x_col: str = "lon", y_col: str = "lat",
                 bounds: tuple[float, float, float, float] | None = None,
                 method: str = "hilbert", node_capacity: int = 10):
    """`gdal vector sort` (apps/gdalalg_vector_sort.cpp:40): hilbert
    mode computes the 32-bit Hilbert key over the layer envelope then
    a distributed sort on it (alg/hilbert.cpp); strtree mode (round 5)
    reproduces the GEOS STRtree bulk-load LEAF ORDER (Leutenegger STR,
    node capacity 10): slice count S = ceil(sqrt(ceil(n/10))), points
    in x order partitioned into equal-count slices of ceil(n/S), each
    slice ordered by y — expressed as one distributed sort on a
    (slice, y) key, with slice boundaries from an exact x-value
    histogram (O(distinct x) driver fold, the stats_agg contract;
    GEOS leaves x-tie order unspecified, so tie groups land whole in
    the slice of their first rank)."""
    if method == "strtree":
        return _strtree_sort(ds, x_col, y_col, node_capacity)
    if method != "hilbert":
        raise ValueError(f"unknown sort method {method!r}")
    if bounds is None:
        from ray.data.aggregate import Max, Min

        stats = ds.aggregate(
            Min(x_col, alias_name="minx"),
            Min(y_col, alias_name="miny"),
            Max(x_col, alias_name="maxx"),
            Max(y_col, alias_name="maxy"),
        )
        bounds = (stats["minx"], stats["miny"], stats["maxx"], stats["maxy"])
    minx, miny, maxx, maxy = bounds

    def key(t: pa.Table) -> pa.Table:
        x = t[x_col].to_numpy(zero_copy_only=False)
        y = t[y_col].to_numpy(zero_copy_only=False)
        h = gops.hilbert_code(x, y, minx, miny, maxx, maxy)
        return t.append_column("hilbert_key", pa.array(h.astype(np.int64)))

    return ds.map_batches(key, batch_format="pyarrow").sort("hilbert_key")


def _strtree_sort(ds, x_col: str, y_col: str, node_capacity: int):
    import math

    def xhist(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vc = pc.value_counts(t[x_col])
        return pa.table({"x": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    parts = ds.map_batches(xhist, batch_format="pyarrow").take_all()
    from collections import Counter

    hist: Counter = Counter()
    for row in parts:
        hist[float(row["x"])] += int(row["n"])
    xs = np.array(sorted(hist))
    counts = np.array([hist[x] for x in xs], dtype=np.int64)
    n = int(counts.sum())
    if n == 0:
        return ds
    leaves = -(-n // node_capacity)
    s = int(math.ceil(math.sqrt(leaves)))
    cap = -(-n // s)
    # first rank of each distinct x → slice of the whole tie group
    first_rank = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slice_of_x = first_rank // cap

    def key(t: pa.Table) -> pa.Table:
        x = t[x_col].to_numpy(zero_copy_only=False)
        sl = slice_of_x[np.searchsorted(xs, x)]
        return t.append_column("str_slice", pa.array(sl.astype(np.int64)))

    return (ds.map_batches(key, batch_format="pyarrow")
              .sort(["str_slice", y_col]))
