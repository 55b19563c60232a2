"""Polygonize / sieve — connected components of equal-valued pixels
(alg/polygonize.cpp:518, alg/gdalrasterpolygonenumerator.cpp; sieve
alg/gdalsievefilter.cpp:178).

Single-array path (exact GDAL-style outlines):
- ``label_array``     — 4- or 8-connected two-pass labeling
  (row-run union-find, vectorized row merging);
- ``trace_rings``     — exact component outlines by edge
  cancellation: every boundary pixel side contributes one directed
  unit edge (region kept on the LEFT); interior sides cancel; the
  remaining edges chain into closed rings (exterior + holes, like the
  reference's arc collector);
- ``polygonize_array``— per-component (value, pixel_count, WKB
  polygon in world coords);
- ``sieve_array``     — components smaller than the threshold merge
  into their largest-pixel-count neighbor (the reference's rule).

Distributed path (tile tables): per-tile labels + cross-tile border
equivalences → global labels via the engine's min-label-propagation
connected components (stages.dedup) → per-component stats. Cross-tile
GEOMETRY dissolve is deferred (documented in COVERAGE.md); per-tile
polygons carry the global label so a dissolve is a groupby away.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.geom import wkb as gwkb
from gdal_ray.raster import model


class _UF:
    __slots__ = ("p",)

    def __init__(self, n):
        self.p = np.arange(n, dtype=np.int64)

    def find(self, x):
        p = self.p
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra < rb:
                self.p[rb] = ra
            else:
                self.p[ra] = rb


def label_array(arr: np.ndarray, connectivity: int = 4) -> np.ndarray:
    """Connected-component labels (0..k-1) of equal-valued pixels."""
    h, w = arr.shape
    labels = np.full((h, w), -1, dtype=np.int64)
    # row runs: starts where value changes
    change = np.ones((h, w), dtype=bool)
    change[:, 1:] = arr[:, 1:] != arr[:, :-1]
    run_id = np.cumsum(change.ravel()).reshape(h, w) - 1
    n_runs = int(run_id.max()) + 1
    uf = _UF(n_runs)
    # vertical merges (and diagonals for 8-conn)
    offs = [0] if connectivity == 4 else [-1, 0, 1]
    for dx in offs:
        if dx == 0:
            a = arr[1:, :]
            b = arr[:-1, :]
            ra = run_id[1:, :]
            rb = run_id[:-1, :]
        elif dx == 1:
            a = arr[1:, 1:]
            b = arr[:-1, :-1]
            ra = run_id[1:, 1:]
            rb = run_id[:-1, :-1]
        else:
            a = arr[1:, :-1]
            b = arr[:-1, 1:]
            ra = run_id[1:, :-1]
            rb = run_id[:-1, 1:]
        eq = a == b
        for x, y in zip(ra[eq].ravel(), rb[eq].ravel()):
            uf.union(int(x), int(y))
    roots = np.array([uf.find(i) for i in range(n_runs)], dtype=np.int64)
    _, compact = np.unique(roots, return_inverse=True)
    labels = compact[run_id]
    return labels


def trace_rings(mask: np.ndarray) -> list[np.ndarray]:
    """Exact outline rings of a boolean pixel mask (pixel coords;
    vertices at integer corners). Region kept on the left of each
    directed edge; at degree-4 corner-touch vertices the walker takes
    the leftmost turn so rings never cross."""
    h, w = mask.shape
    # directed boundary edges, region on the LEFT (y grows downward):
    # top side (neighbor up outside): edge right  (x,y)->(x+1,y)
    # right side:                      edge down   (x+1,y)->(x+1,y+1)
    # bottom side:                     edge left   (x+1,y+1)->(x,y+1)
    # left side:                       edge up     (x,y+1)->(x,y)
    ys, xs = np.nonzero(mask)
    up = np.zeros_like(mask)
    up[1:, :] = mask[:-1, :]
    down = np.zeros_like(mask)
    down[:-1, :] = mask[1:, :]
    left = np.zeros_like(mask)
    left[:, 1:] = mask[:, :-1]
    right = np.zeros_like(mask)
    right[:, :-1] = mask[:, 1:]
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def add(a, b):
        edges.setdefault(a, []).append(b)

    for y, x in zip(ys, xs):
        if not up[y, x]:
            add((x, y), (x + 1, y))
        if not right[y, x]:
            add((x + 1, y), (x + 1, y + 1))
        if not down[y, x]:
            add((x + 1, y + 1), (x, y + 1))
        if not left[y, x]:
            add((x, y + 1), (x, y))
    rings = []
    while edges:
        start = next(iter(edges))
        ring = [start]
        cur = start
        prev_dir = None
        while True:
            outs = edges[cur]
            if len(outs) == 1 or prev_dir is None:
                nxt = outs.pop(0)
            else:
                # leftmost turn relative to incoming direction
                best = None
                best_key = None
                for cand in outs:
                    d = (cand[0] - cur[0], cand[1] - cur[1])
                    # angle turn: cross/dot of prev_dir -> d
                    cross = prev_dir[0] * d[1] - prev_dir[1] * d[0]
                    dot = prev_dir[0] * d[0] + prev_dir[1] * d[1]
                    key = np.arctan2(cross, dot)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = cand
                outs.remove(best)
                nxt = best
            if not edges[cur]:
                del edges[cur]
            prev_dir = (nxt[0] - cur[0], nxt[1] - cur[1])
            cur = nxt
            ring.append(cur)
            if cur == start:
                break
        rings.append(np.array(ring, dtype=np.float64))
    return rings


def polygonize_array(
    arr: np.ndarray,
    gt=(0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
    connectivity: int = 4,
    exclude=None,
) -> pa.Table:
    """→ table (component_id, value, pixel_count, geometry WKB).

    Rings convert to world coords via ``gt``; exterior = the ring with
    the largest |area|, remaining rings are holes."""
    labels = label_array(arr, connectivity)
    n = int(labels.max()) + 1
    rows = []
    for comp in range(n):
        mask = labels == comp
        val = arr[mask][0]
        if exclude is not None and val == exclude:
            continue
        rings = trace_rings(mask)
        areas = [abs(_ring_area(r)) for r in rings]
        ext = int(np.argmax(areas))
        ordered = [rings[ext]] + [r for i, r in enumerate(rings) if i != ext]
        world = []
        for r in ordered:
            wx, wy = model.pixel_to_world(gt, r[:, 0], r[:, 1])
            world.append(np.column_stack([wx, wy]))
        rows.append(
            {
                "component_id": comp,
                "value": float(val),
                "pixel_count": int(mask.sum()),
                "geometry": gwkb.polygon_wkb(world[0], world[1:]),
            }
        )
    return pa.Table.from_pylist(rows)


def _ring_area(r: np.ndarray) -> float:
    x = r[:, 0]
    y = r[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def sieve_array(arr: np.ndarray, threshold: int, connectivity: int = 4) -> np.ndarray:
    """Remove components below threshold by merging each into its
    largest neighboring component (gdalsievefilter.cpp:178 rule),
    processing smallest-first."""
    out = arr.copy()
    for _ in range(arr.size):  # converges long before this bound
        labels = label_array(out, connectivity)
        n = int(labels.max()) + 1
        counts = np.bincount(labels.ravel(), minlength=n)
        small = np.flatnonzero(counts < threshold)
        if len(small) == 0:
            break
        comp = small[np.argmin(counts[small])]
        mask = labels == comp
        # neighbors: dilate by 1 (4-conn)
        nb = np.zeros_like(mask)
        nb[1:, :] |= mask[:-1, :]
        nb[:-1, :] |= mask[1:, :]
        nb[:, 1:] |= mask[:, :-1]
        nb[:, :-1] |= mask[:, 1:]
        nb &= ~mask
        if not nb.any():
            break  # the whole raster is one small component
        nb_labels = labels[nb]
        nb_counts = np.bincount(nb_labels, minlength=n)
        target = int(np.argmax(nb_counts))
        out[mask] = out[labels == target][0]
    return out


# ---------------------------------------------------------------------------
# distributed: per-tile labels + border merge


def tile_labels_and_borders(batch: pa.Table, connectivity: int = 4) -> pa.Table:
    """Per-tile stage: label each tile; emit one row per tile
    component (tile-scoped label key ``"bx_by_label"``) plus the
    tile's border pixels (side, offset, value, label key) for the
    cross-tile merge."""
    rows = []
    for row in batch.to_pylist():
        arr = model.tile_array(row)
        labels = label_array(arr, connectivity)
        n = int(labels.max()) + 1
        key = f"{row['block_x']}_{row['block_y']}"
        counts = np.bincount(labels.ravel(), minlength=n)
        for comp in range(n):
            rows.append(
                {
                    "kind": "component",
                    "label_key": f"{key}_{comp}",
                    "value": float(arr[labels == comp][0]),
                    "pixel_count": int(counts[comp]),
                    "block_x": row["block_x"],
                    "block_y": row["block_y"],
                    "side": "",
                    "offset": -1,
                }
            )
        for side, vals, labs in (
            ("top", arr[0, :], labels[0, :]),
            ("bottom", arr[-1, :], labels[-1, :]),
            ("left", arr[:, 0], labels[:, 0]),
            ("right", arr[:, -1], labels[:, -1]),
        ):
            for off in range(len(vals)):
                rows.append(
                    {
                        "kind": "border",
                        "label_key": f"{key}_{labs[off]}",
                        "value": float(vals[off]),
                        "pixel_count": 0,
                        "block_x": row["block_x"],
                        "block_y": row["block_y"],
                        "side": side,
                        "offset": off,
                    }
                )
    return pa.Table.from_pylist(rows)


def dissolve_components(tiles_table: pa.Table, parts_df, tile_size: int,
                        gt=(0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
                        connectivity: int = 4) -> pa.Table:
    """Cross-tile GEOMETRY dissolve: for each global component,
    assemble ONLY its tiles' masks into a bbox-bounded canvas and
    trace exact outlines there — memory is O(component bbox), never
    O(raster). Completes the distributed polygonize (the per-tile
    labels + border merge give counts; this gives the polygons)."""
    rows_by_block = {
        (r["block_x"], r["block_y"]): r for r in tiles_table.to_pylist()
    }
    comp = parts_df[parts_df["kind"] == "component"]
    out_rows = []
    from collections import defaultdict

    # global_label -> member label_keys
    members = defaultdict(list)
    roots = _global_roots(parts_df)
    for lk in comp["label_key"]:
        members[roots[lk]].append(lk)
    for glabel, keys in members.items():
        blocks = sorted({tuple(map(int, k.rsplit("_", 1)[0].split("_")))
                         for k in keys})
        bxs = [b[0] for b in blocks]
        bys = [b[1] for b in blocks]
        bx0, by0 = min(bxs), min(bys)
        W = (max(bxs) - bx0 + 1) * tile_size
        H = (max(bys) - by0 + 1) * tile_size
        canvas = np.zeros((H, W), dtype=bool)
        value = None
        for bx, by in blocks:
            row = rows_by_block[(bx, by)]
            arr = model.tile_array(row)
            labels = label_array(arr, connectivity)
            local = [int(k.rsplit("_", 1)[1]) for k in keys
                     if k.rsplit("_", 1)[0] == f"{bx}_{by}"]
            m = np.isin(labels, local)
            if value is None and m.any():
                value = float(arr[m][0])
            oy = (by - by0) * tile_size
            ox = (bx - bx0) * tile_size
            canvas[oy : oy + arr.shape[0], ox : ox + arr.shape[1]] = m
        rings = trace_rings(canvas)
        areas = [abs(_ring_area(r)) for r in rings]
        ext = int(np.argmax(areas))
        ordered = [rings[ext]] + [r for i, r in enumerate(rings) if i != ext]
        world = []
        # shift canvas pixel coords to global pixel coords, then world
        for r in ordered:
            gx = r[:, 0] + bx0 * tile_size
            gy = r[:, 1] + by0 * tile_size
            wx, wy = model.pixel_to_world(gt, gx, gy)
            world.append(np.column_stack([wx, wy]))
        out_rows.append(
            {
                "global_label": glabel,
                "value": value,
                "pixel_count": int(canvas.sum()),
                "geometry": gwkb.polygon_wkb(world[0], world[1:]),
            }
        )
    return pa.Table.from_pylist(out_rows)


def _global_roots(parts_df) -> dict:
    """label_key → global root (same union-find as
    merge_tile_components, factored for reuse)."""
    import pandas as pd

    comp = parts_df[parts_df["kind"] == "component"]
    bor = parts_df[parts_df["kind"] == "border"]
    pairs = []
    right = bor[bor["side"] == "right"]
    left = bor[bor["side"] == "left"]
    m = right.merge(left, on=["block_y", "offset", "value"], suffixes=("_a", "_b"))
    m = m[m["block_x_a"] + 1 == m["block_x_b"]]
    pairs.append(m[["label_key_a", "label_key_b"]])
    bottom = bor[bor["side"] == "bottom"]
    top = bor[bor["side"] == "top"]
    m2 = bottom.merge(top, on=["block_x", "offset", "value"], suffixes=("_a", "_b"))
    m2 = m2[m2["block_y_a"] + 1 == m2["block_y_b"]]
    pairs.append(m2[["label_key_a", "label_key_b"]])
    eq = pd.concat(pairs, ignore_index=True)
    keys = pd.Index(comp["label_key"].unique())
    idx = {k: i for i, k in enumerate(keys)}
    uf = _UF(len(keys))
    for a, b in zip(eq["label_key_a"], eq["label_key_b"]):
        uf.union(idx[a], idx[b])
    return {k: keys[uf.find(i)] for k, i in idx.items()}


def merge_tile_components(parts_df) -> "object":
    """Driver-side small-data merge: join opposite borders of adjacent
    tiles on (position, equal value) → label equivalences → union-find
    → global component table (value, pixel_count). The border table is
    O(perimeter), not O(pixels) — it stays tiny relative to the
    raster; at extreme scale the same equivalences feed
    stages.dedup.connected_components instead."""
    import pandas as pd

    comp = parts_df[parts_df["kind"] == "component"]
    bor = parts_df[parts_df["kind"] == "border"]
    pairs = []
    right = bor[bor["side"] == "right"]
    left = bor[bor["side"] == "left"]
    m = right.merge(
        left,
        left_on=["block_y", "offset", "value"],
        right_on=["block_y", "offset", "value"],
        suffixes=("_a", "_b"),
    )
    m = m[m["block_x_a"] + 1 == m["block_x_b"]]
    pairs.append(m[["label_key_a", "label_key_b"]])
    bottom = bor[bor["side"] == "bottom"]
    top = bor[bor["side"] == "top"]
    m2 = bottom.merge(
        top,
        left_on=["block_x", "offset", "value"],
        right_on=["block_x", "offset", "value"],
        suffixes=("_a", "_b"),
    )
    m2 = m2[m2["block_y_a"] + 1 == m2["block_y_b"]]
    pairs.append(m2[["label_key_a", "label_key_b"]])
    eq = pd.concat(pairs, ignore_index=True)
    keys = pd.Index(comp["label_key"].unique())
    idx = {k: i for i, k in enumerate(keys)}
    uf = _UF(len(keys))
    for a, b in zip(eq["label_key_a"], eq["label_key_b"]):
        uf.union(idx[a], idx[b])
    roots = {k: uf.find(i) for k, i in idx.items()}
    comp = comp.assign(global_label=comp["label_key"].map(roots))
    out = (
        comp.groupby("global_label")
        .agg(value=("value", "first"), pixel_count=("pixel_count", "sum"),
             n_tiles=("label_key", "count"))
        .reset_index()
    )
    return out


_TILE_BITS = 21  # block_x/block_y/local-label each < 2^21 (134M-px axis at 64-px tiles)


def tile_parts(batch: pa.Table, connectivity: int = 4) -> pa.Table:
    """Vectorized per-tile stage for the DISTRIBUTED polygonize: one
    row per tile component (kind=0: numeric ``label_id``, value,
    pixel_count) plus one row per border pixel (kind=1: side 0=top /
    1=bottom / 2=left / 3=right, offset along the side).  label_id
    packs (block_x, block_y, local label) into an int64 so the
    cross-tile merge runs on integer keys (no string keys, no Python
    loops over pixels — the border arrays are emitted whole)."""
    ks, ids, vals, cnts, bxs, bys, sides, offs = [], [], [], [], [], [], [], []

    def emit(kind, lab, val, cnt, bx, by, side, off):
        m = len(lab)
        ks.append(np.full(m, kind, np.int8))
        ids.append(lab)
        vals.append(np.asarray(val, np.float64))
        cnts.append(np.asarray(cnt, np.int64))
        bxs.append(np.full(m, bx, np.int32))
        bys.append(np.full(m, by, np.int32))
        sides.append(np.full(m, side, np.int8) if np.isscalar(side) else side)
        offs.append(np.asarray(off, np.int32))

    for row in batch.to_pylist():
        arr = model.tile_array(row)
        labels = label_array(arr, connectivity)
        n = int(labels.max()) + 1
        bx, by = int(row["block_x"]), int(row["block_y"])
        base = ((bx << _TILE_BITS) | by) << _TILE_BITS
        flat = labels.ravel()
        counts = np.bincount(flat, minlength=n).astype(np.int64)
        v = np.empty(n, np.float64)
        v[flat] = arr.ravel()  # components are single-valued
        emit(0, base + np.arange(n, dtype=np.int64), v, counts, bx, by,
             np.int8(-1), np.full(n, -1, np.int32))
        h, w = arr.shape
        for side, sv, sl, ln in (
            (0, arr[0, :], labels[0, :], w),
            (1, arr[-1, :], labels[-1, :], w),
            (2, arr[:, 0], labels[:, 0], h),
            (3, arr[:, -1], labels[:, -1], h),
        ):
            emit(1, base + sl.astype(np.int64), sv, np.zeros(ln, np.int64),
                 bx, by, side, np.arange(ln, dtype=np.int32))
    cat = lambda parts: np.concatenate(parts) if parts else np.array([])  # noqa: E731
    return pa.table(
        {
            "kind": pa.array(cat(ks), pa.int8()),
            "label_id": pa.array(cat(ids), pa.int64()),
            "value": pa.array(cat(vals), pa.float64()),
            "pixel_count": pa.array(cat(cnts), pa.int64()),
            "block_x": pa.array(cat(bxs), pa.int32()),
            "block_y": pa.array(cat(bys), pa.int32()),
            "side": pa.array(cat(sides), pa.int8()),
            "offset": pa.array(cat(offs), pa.int32()),
        }
    )


def distributed_component_counts(tiles_ds, connectivity: int = 4):
    """Fully distributed cross-tile component merge — NO driver-side
    union-find (the r2 verdict's polygonize scale fix): per-tile
    labels + borders (``tile_parts``) → shared-face groupby (each
    physical tile face at one offset maps to ONE key, so the two
    coincident border pixels meet in a group; Min/Max label_id in a
    group with equal values is a label equivalence) → the engine's
    min-label-propagation connected components (stages.dedup — the
    same distributed CC the dedup suite uses) → per-component
    (global_label, value, pixel_count) Dataset.

    Only 4-connectivity stitching across tile faces (matches the
    reference polygonize enumerator's rook adjacency,
    alg/gdalrasterpolygonenumerator.cpp)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    from gdal_ray.stages.dedup import connected_components
    from gdal_ray.stages.partition import join_partitions

    parts = tiles_ds.map_batches(
        lambda t: tile_parts(t, connectivity), batch_format="pyarrow"
    ).materialize()  # O(perimeter + components), not O(pixels)

    def only(kind):
        return parts.map_batches(
            lambda t, k=kind: t.filter(pc.equal(t["kind"], k)),
            batch_format="pyarrow",
        )

    # face key: the horizontal face right-of (bx,by) and the vertical
    # face below (bx,by); a border pixel maps to the face it touches.
    def face_key(t: pa.Table) -> pa.Table:
        side = t["side"].to_numpy(zero_copy_only=False)
        bx = t["block_x"].to_numpy(zero_copy_only=False).astype(np.int64)
        by = t["block_y"].to_numpy(zero_copy_only=False).astype(np.int64)
        off = t["offset"].to_numpy(zero_copy_only=False).astype(np.int64)
        # top border of (bx,by) touches the face below (bx,by-1)
        fy = np.where(side == 0, by - 1, by)
        fx = np.where(side == 2, bx - 1, bx)
        axis = np.where(side <= 1, 0, 1).astype(np.int64)  # 0=vert 1=horz
        k1 = (fx << _TILE_BITS) | (fy & ((1 << _TILE_BITS) - 1))
        k2 = (axis << 32) | off
        return pa.table(
            {
                "k1": pa.array(k1),
                "k2": pa.array(k2),
                "value": t["value"],
                "label_id": t["label_id"],
            }
        )

    faces = only(1).map_batches(face_key, batch_format="pyarrow")
    pairs = (
        faces.groupby(["k1", "k2", "value"])
        .aggregate(Min("label_id", alias_name="a"),
                   Max("label_id", alias_name="b"))
        .map_batches(
            lambda t: t.filter(pc.not_equal(t["a"], t["b"]))
            .select(["a", "b"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    comp = only(0).select_columns(["label_id", "value", "pixel_count"])
    if pairs.count() == 0:  # isolated tiles — tiny scalar check
        merged = comp.map_batches(
            lambda t: t.append_column("global_label", t["label_id"]),
            batch_format="pyarrow",
        )
    else:
        labels = connected_components(pairs)
        joined = join_partitions(comp, labels, "label_id", "node",
                                 "left_outer")

        def coalesce(t: pa.Table) -> pa.Table:
            g = pc.coalesce(t["label"], t["label_id"])
            return pa.table(
                {
                    "label_id": t["label_id"],
                    "value": t["value"],
                    "pixel_count": t["pixel_count"],
                    "global_label": g,
                }
            )

        merged = joined.map_batches(coalesce, batch_format="pyarrow")
    return merged.groupby("global_label").aggregate(
        Max("value", alias_name="value"),
        Sum("pixel_count", alias_name="pixel_count"),
    )


def footprint(
    arr: np.ndarray,
    nodata=None,
    gt=(0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
    connectivity: int = 4,
) -> dict:
    """gdal footprint (apps/gdal_footprint_lib.cpp:1303): valid-data
    mask → dissolved exact pixel outlines.  Returns
    ``{"geometry": MultiPolygon WKB, "n_pixels": int, "n_parts": int}``
    — each connected valid region becomes one polygon (exterior +
    holes), assembled into a MultiPolygon."""
    if nodata is None:
        mask = np.isfinite(arr)
    else:
        mask = np.isfinite(arr) & (arr != nodata)
    t = polygonize_array(mask.astype(np.int32), gt, connectivity, exclude=0)
    parts = []
    n_pixels = 0
    for row in t.to_pylist():
        if row["value"] != 1.0:
            continue
        g = gwkb.parse(row["geometry"])
        parts.append((g["rings"][0], g["rings"][1:]))
        n_pixels += row["pixel_count"]
    if not parts:
        geom = gwkb.multipolygon_wkb([])
    else:
        geom = gwkb.multipolygon_wkb(parts)
    return {"geometry": geom, "n_pixels": n_pixels, "n_parts": len(parts)}
