"""Layer algebra — polygon overlay against a broadcast convex method
layer (Intersection / Identity / Erase subset).

Reference scheme (ogr/ogrsf_frmts/generic/ogrlayer.cpp:5361-5470
Intersection; :7164 Update; :7513 Clip; :7822 Erase): for each input
feature, envelope pretest against the method layer, then a per-pair
GEOS op. Here the per-pair op is Sutherland-Hodgman convex clipping
(geom.ops.clip_polygon_convex) — exact for the convex method
geometries the pipelines use (admin boxes, buffer circles); general
concave overlay is flagged out of v0 (COVERAGE.md).

Shape: method layer broadcast once; input polygons stream through
``map_batches``. One output row per intersecting (input, method) pair
(Intersection), or the input row with matched/unmatched tagging
(Identity), or inputs minus intersecting area markers (Erase = keep
rows with NO intersection; true geometric subtraction needs concave
results — out of v0).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from gdal_ray.geom import ops as gops
from gdal_ray.geom import wkb as gwkb


class ConvexOverlay:
    """map_batches stage. mode ∈ {intersection, identity, erase,
    erase_geom}.

    ``erase`` keeps only non-intersecting input rows (row filter);
    ``erase_geom`` is the geometric OGRLayer::Erase — each input
    polygon minus every intersecting method polygon, one output row
    per remaining piece (Greiner-Hormann difference; holes attached
    to their containing shells)."""

    def __init__(self, method_table, mode: str = "intersection",
                 geom_col: str = "geometry",
                 method_id_col: str = "admin_id",
                 general: bool = False):
        """``general=True`` switches the per-pair kernel from convex
        Sutherland-Hodgman to Greiner-Hormann (geom.clip) — concave
        method polygons allowed, multiple output components per pair."""
        if isinstance(method_table, ray.ObjectRef):
            method_table = ray.get(method_table)
        self.mode = mode
        self.general = general
        self.geom_col = geom_col
        self.method_id_col = method_id_col
        self.method = []
        for row in method_table.to_pylist():
            rings = gwkb.polygon_rings(row["geometry"])
            ring = rings[0]
            # envelope for the pretest
            env = (
                ring[:, 0].min(), ring[:, 1].min(),
                ring[:, 0].max(), ring[:, 1].max(),
            )
            self.method.append((row[self.method_id_col], ring, env))

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows_out = []
        for row in batch.to_pylist():
            g = row[self.geom_col]
            if g is None:
                continue
            rings = gwkb.polygon_rings(g)
            subject = rings[0]
            if self.mode == "erase_geom":
                rows_out.extend(self._erase_geom(row, subject))
                continue
            sminx, sminy = subject[:, 0].min(), subject[:, 1].min()
            smaxx, smaxy = subject[:, 0].max(), subject[:, 1].max()
            matched = False
            for mid, mring, (eminx, eminy, emaxx, emaxy) in self.method:
                # envelope pretest (reference order, ogrlayer.cpp:5361)
                if smaxx < eminx or sminx > emaxx or smaxy < eminy or sminy > emaxy:
                    continue
                if self.general:
                    from gdal_ray.geom.clip import polygon_intersection

                    pieces = polygon_intersection(subject, mring)
                    if not pieces:
                        continue
                    # largest piece carries the row; area sums all pieces
                    clipped = max(pieces, key=lambda r: abs(gops.ring_area(r)))
                    area = sum(abs(gops.ring_area(r)) for r in pieces)
                else:
                    clipped = gops.clip_polygon_convex(subject, mring)
                    if len(clipped) == 0:
                        continue
                    area = abs(gops.ring_area(clipped))
                if area == 0.0:
                    # edge-touch only (degenerate collinear result) —
                    # GEOS Intersection returns a lower-dimension
                    # geometry here; we keep polygon semantics (area>0)
                    continue
                matched = True
                if self.mode == "intersection":
                    out = dict(row)
                    out[self.geom_col] = gwkb.polygon_wkb(clipped)
                    out[self.method_id_col] = mid
                    out["overlay_area"] = area
                    rows_out.append(out)
                elif self.mode == "identity":
                    out = dict(row)
                    out[self.method_id_col] = mid
                    rows_out.append(out)
            if self.mode == "identity" and not matched:
                out = dict(row)
                out[self.method_id_col] = None
                rows_out.append(out)
            elif self.mode == "erase" and not matched:
                rows_out.append(dict(row))
        if not rows_out:
            # preserve schema with the extra columns
            schema = batch.schema
            if self.mode == "intersection":
                schema = schema.append(pa.field(self.method_id_col, pa.int64()))
                schema = schema.append(pa.field("overlay_area", pa.float64()))
            elif self.mode == "identity":
                schema = schema.append(pa.field(self.method_id_col, pa.int64()))
            elif self.mode == "erase_geom":
                schema = schema.append(pa.field("overlay_area", pa.float64()))
            return schema.empty_table()
        return pa.Table.from_pylist(rows_out)


    def _erase_geom(self, row, subject):
        """Input polygon minus all intersecting method polygons →
        output rows (one per remaining piece). Successive cuts operate
        on the piece shells; holes from earlier cuts carry through
        (v1: a later method polygon overlapping an earlier hole region
        removes nothing extra — fine for disjoint method layers,
        documented)."""
        from gdal_ray.geom.clip import polygon_difference

        sminx, sminy = subject[:, 0].min(), subject[:, 1].min()
        smaxx, smaxy = subject[:, 0].max(), subject[:, 1].max()
        subj_area = abs(gops.ring_area(subject))
        pieces = [(subject, [])]
        for _mid, mring, (eminx, eminy, emaxx, emaxy) in self.method:
            # OPEN-interval pretest: an edge-touching method polygon
            # (zero-width overlap) cannot remove area — skipping it
            # keeps the original geometry bit-exact instead of routing
            # through the GH degenerate-perturbation path
            if (smaxx <= eminx or sminx >= emaxx
                    or smaxy <= eminy or sminy >= emaxy):
                continue
            nxt = []
            for shell, holes in pieces:
                for s2, h2 in _rings_to_polygons(
                    polygon_difference(shell, mring)
                ):
                    nxt.append((s2, holes + h2))
            pieces = nxt
            if not pieces:
                break
        out = []
        for shell, holes in pieces:
            a = abs(gops.ring_area(shell)) - sum(
                abs(gops.ring_area(h)) for h in holes
            )
            # drop degenerate slivers left by the GH perturbation
            # retry on coincident edges (~1e-7-relative residue); a
            # genuinely surviving remainder is far larger
            if a <= max(1e-12, 1e-7 * subj_area):
                continue
            r = dict(row)
            r[self.geom_col] = gwkb.polygon_wkb(shell, holes)
            r["overlay_area"] = a
            out.append(r)
        return out


def _rings_to_polygons(rings):
    """Containment-oriented rings (shells CCW, holes CW) → list of
    (shell, [holes]) by ``geom.ops.organize_polygons``, which takes
    clockwise shells, so it sees the rings reversed. Zero-area rings
    are dropped."""
    rings = [r for r in rings if gops.ring_area(r) != 0]
    return [(rings[g[0]], [rings[h] for h in g[1:]])
            for g in gops.organize_polygons([r[::-1] for r in rings],
                                            by_winding=True)]


def convex_overlay(ds, method_table: pa.Table, mode: str = "intersection",
                   concurrency=None, **kw):
    """Worker-cached TASK stage (stages/cache.py): the broadcast method
    layer is ray.put once and rebuilt once per warm worker process —
    no per-query actor-pool startup (measured r3→r4: box_overlay
    1.41 s actor pool → task pattern, same rows)."""
    from gdal_ray.stages.cache import worker_cached

    ref = ray.put(method_table)
    return ds.map_batches(
        worker_cached(ConvexOverlay, method_table=ref, mode=mode, **kw),
        batch_format="pyarrow",
    )


def update_layer(
    ds,
    method_table: pa.Table,
    geom_col: str = "geometry",
    method_id_col: str = "admin_id",
    concurrency=None,
    **kw,
):
    """OGRLayer::Update (ogrlayer.cpp:7164): method features replace
    the overlapping parts of input features —
    result = Erase(input, method) UNION ALL method features."""
    import ray.data as rd

    erased = convex_overlay(
        ds, method_table, mode="erase_geom", concurrency=concurrency,
        geom_col=geom_col, method_id_col=method_id_col, **kw,
    )
    base = ds.schema().base_schema
    cols = {}
    n = method_table.num_rows
    for f in base:
        if f.name in method_table.schema.names:
            cols[f.name] = method_table[f.name].cast(f.type)
        else:
            cols[f.name] = pa.nulls(n, f.type)
    areas = [
        abs(gops.ring_area(gwkb.polygon_rings(g)[0]))
        for g in method_table[geom_col].to_pylist()
    ]
    cols["overlay_area"] = pa.array(areas, pa.float64())
    return erased.union(rd.from_arrow(pa.table(cols)))


def cell_partitioned_overlay(
    left_ds,
    right_ds,
    left_id: str = "left_id",
    right_id: str = "right_id",
    zoom: int = 6,
    num_partitions: int = 8,
):
    """Polygon×polygon Intersection when BOTH sides are large
    (the full layer-algebra scale path, SURVEY.md §7.3): each polygon
    replicates to the tiles its envelope covers; per tile, pairwise
    envelope pretest → Greiner-Hormann intersection.

    A pair whose envelopes span several common tiles would compute the
    same intersection in each — the pair is assigned to ONE owner tile
    (the min common tile of the two envelope covers) so every pair is
    evaluated exactly once and no dedupe shuffle is needed.

    → rows (left_id, right_id, overlay_area, geometry of the largest
    piece).
    """
    import numpy as np

    from gdal_ray import tiles as tl
    from gdal_ray.geom import wkb as gwkb
    from gdal_ray.geom.clip import polygon_intersection

    def cover(batch: pa.Table, side: int, idcol: str) -> pa.Table:
        rows = []
        for row in batch.to_pylist():
            minx, miny, maxx, maxy = gwkb.bounds(row["geometry"])
            ta, tb = tl.lonlat_to_tile(minx, miny, zoom)
            tc, td = tl.lonlat_to_tile(maxx, maxy, zoom)
            tx0, tx1 = int(min(ta, tc)), int(max(ta, tc))
            ty0, ty1 = int(min(tb, td)), int(max(tb, td))
            for tx in range(tx0, tx1 + 1):
                for ty in range(ty0, ty1 + 1):
                    rows.append(
                        {
                            "cell": int(tl.tile_id(zoom, tx, ty)),
                            "side": side,
                            "pid": row[idcol],
                            "geometry": row["geometry"],
                            "tx0": tx0, "tx1": tx1, "ty0": ty0, "ty1": ty1,
                            "minx": minx, "miny": miny,
                            "maxx": maxx, "maxy": maxy,
                        }
                    )
        return pa.Table.from_pylist(rows)

    lt = left_ds.map_batches(
        lambda b: cover(b, 0, left_id), batch_format="pyarrow"
    )
    rt = right_ds.map_batches(
        lambda b: cover(b, 1, right_id), batch_format="pyarrow"
    )
    both = lt.union(rt)

    def probe(group: pa.Table) -> pa.Table:
        df = group.to_pylist()
        cell = df[0]["cell"]
        L = [r for r in df if r["side"] == 0]
        R = [r for r in df if r["side"] == 1]
        out = []
        for a in L:
            ra = None
            for b in R:
                # envelope pretest
                if (a["maxx"] < b["minx"] or a["minx"] > b["maxx"]
                        or a["maxy"] < b["miny"] or a["miny"] > b["maxy"]):
                    continue
                # owner-tile rule: the common cover is the rectangle
                # [max(tx0), min(tx1)] × [max(ty0), min(ty1)] (non-
                # empty since the envelopes overlap); evaluate the
                # pair only in its min corner tile → exactly once
                otx = max(a["tx0"], b["tx0"])
                oty = max(a["ty0"], b["ty0"])
                owner = int(tl.tile_id(zoom, otx, oty))
                if owner != cell:
                    continue
                if ra is None:
                    ra = gwkb.polygon_rings(a["geometry"])[0]
                rb = gwkb.polygon_rings(b["geometry"])[0]
                pieces = polygon_intersection(ra, rb)
                if not pieces:
                    continue
                from gdal_ray.geom import ops as gops

                area = sum(abs(gops.ring_area(p)) for p in pieces)
                if area == 0.0:
                    continue
                biggest = max(pieces, key=lambda p: abs(gops.ring_area(p)))
                out.append(
                    {
                        left_id: a["pid"],
                        right_id: b["pid"],
                        "overlay_area": area,
                        "geometry": gwkb.polygon_wkb(biggest),
                    }
                )
        if not out:
            return pa.table(
                {
                    left_id: pa.array([], pa.int64()),
                    right_id: pa.array([], pa.int64()),
                    "overlay_area": pa.array([], pa.float64()),
                    "geometry": pa.array([], pa.binary()),
                }
            )
        return pa.Table.from_pylist(out)

    return both.groupby("cell", num_partitions=num_partitions).map_groups(
        probe, batch_format="pyarrow"
    )
