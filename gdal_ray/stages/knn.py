"""k-nearest-neighbor stage against a broadcast reference point set.

Reference semantics: GDALGridInverseDistanceToAPowerNearestNeighbor —
planar search over a point quadtree, per output location
(alg/gdalgrid.cpp:241-276, quadtree alg/gdalgrid.cpp:260 /
port/cpl_quad_tree.h:48). Metric is **planar in the input coordinate
units** (degrees here — documented, matching the FIXTURES.md §4
oracle).

Ray mapping (SURVEY.md §2.3): the reference set is broadcast once
(``ray.put`` → ``stages.cache.worker_cached``), indexed once per
worker by ``GridKNN`` (a cell-sorted CSR grid plus a per-cell table
of k seed refs) and searched locally per batch with one exact block
search per query, vectorized in numpy: the seeds of the query's cell
bound its kth distance, and that bound sizes the block. At
100 TB the scale path is cell-partitioned kNN — partition queries by
cell, replicate reference points to each cell + its neighbor halo,
search within the group (same output, shuffle-local; see pipelines
docstring).

Determinism: ties broken by (distance², point_id) lexicographic order
(then reference position) so ranks are reproducible across engines
and parallelism levels; a query with a tie at the kth place is
ordered by a full lexsort over its candidates.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from gdal_ray.stages.cache import resolve_broadcast, worker_cached


class KNNJoiner:
    """Stateful stage (run through ``stages.cache.worker_cached``):
    append k nearest reference points per row.

    Output: k rows per input row with ``knn_rank`` (1-based),
    ``point_id``, ``dist2`` (squared planar distance — exactly
    reproducible arithmetic, no sqrt), and optionally the reference
    ``value`` and the inverse-distance-weighted estimate.
    """

    def __init__(
        self,
        ref,
        k: int = 5,
        lon_col: str = "lon",
        lat_col: str = "lat",
        include_value: bool = False,
    ):
        ref = resolve_broadcast(ref)
        self.rx = ref["lon"].to_numpy()
        self.ry = ref["lat"].to_numpy()
        self.rid = ref["point_id"].to_numpy()
        self.rval = ref["value"].to_numpy() if "value" in ref.schema.names else None
        self.k = k
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.include_value = include_value and self.rval is not None
        # GridKNN indexes the reference set once per worker;
        # queries are exact and stage time is flat in |ref|
        self.index = GridKNN(self.rx, self.ry, self.rid, k=k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qx = batch[self.lon_col].to_numpy(zero_copy_only=False)
        qy = batch[self.lat_col].to_numpy(zero_copy_only=False)
        n = len(qx)
        k = min(self.k, len(self.rx))
        pid, pd2, pidx = self.index.query(qx, qy)
        rows = np.repeat(np.arange(n), k)
        out = batch.take(pa.array(rows))
        out = out.append_column(
            "knn_rank", pa.array(np.tile(np.arange(1, k + 1), n))
        )
        out = out.append_column("point_id", pa.array(pid.ravel()))
        out = out.append_column("dist2", pa.array(pd2.ravel()))
        if self.include_value:
            out = out.append_column(
                "ref_value", pa.array(self.rval[pidx.ravel()])
            )
        return out


class GridKNN:
    """Grid-accelerated exact kNN (the CPLQuadTree replacement,
    alg/gdalgrid.cpp:260-276 — bucketed search instead of per-pixel
    tree descent, vectorized over the whole batch).

    Build: sort the reference points by cell of a uniform grid sized
    for ``target_per_cell`` refs/cell (CSR layout), so the refs of
    column ``c``, rows ``y0..y1`` are the one slice
    ``starts[c*ny+y0] : starts[c*ny+y1+1]``. Then a seed table: for
    each cell, k refs near its centre, the nearest ones within the 3×3
    cell block around it (widened until it holds k refs).

    Query, one block search: the seeds of the query's clamped cell are
    k distinct refs, so the largest of their d² to the query, ``dk``,
    bounds its kth d² from above (exact for any seeds; good seeds only
    make the block small). The block of cells covering
    ``[qx-w, qx+w] × [qy-h, qy+h]`` with ``w = √(dk - oy²)``,
    ``h = √(dk - ox²)`` (``ox``/``oy`` the gaps to the reference bbox)
    holds every ref within √dk, since cell assignment is monotone, so
    one search over it is exact inside or outside the bbox. It
    argsorts each query's padded candidate row; a row whose (k+1)-th
    sorted d² equals its kth (a tie at the kth place) takes a full
    (d², point_id, position) lexsort instead. Non-finite queries tie
    with every ref and get the k smallest point_ids.
    """

    def __init__(self, rx, ry, rid, k: int = 5, target_per_cell: float = 1.0):
        self.rx = np.asarray(rx, dtype=np.float64)
        self.ry = np.asarray(ry, dtype=np.float64)
        self.rid = np.asarray(rid, dtype=np.int64)
        self.k = k
        n = max(1, len(self.rx))
        self.minx, self.maxx = self.rx.min(), self.rx.max()
        self.miny, self.maxy = self.ry.min(), self.ry.max()
        w, h = self.maxx - self.minx, self.maxy - self.miny
        # ≤ ~n/target_per_cell cells also for collinear refs (zero area)
        self.s = float(
            max(np.sqrt(w * h * target_per_cell / n), max(w, h) * target_per_cell / n)
        )
        if self.s == 0.0:  # every ref at one point
            self.s = 1.0
        self.nx = max(1, int(np.ceil(w / self.s)))
        self.ny = max(1, int(np.ceil(h / self.s)))
        cx, cy = self._cell(self.rx, self.ry)
        counts = np.bincount(cx * self.ny + cy, minlength=self.nx * self.ny)
        self._order = np.argsort(cx * self.ny + cy, kind="stable")
        self._starts = np.concatenate(([0], np.cumsum(counts)))
        self._sx = self.rx[self._order]
        self._sy = self.ry[self._order]
        self._sid = self.rid[self._order]
        # seed table: the k refs nearest each cell centre within the
        # 3×3 block around the cell, doubled until it holds k refs (a
        # summed-area table of the counts gives a block's refs in O(1))
        k = min(k, len(self.rx))
        sat = np.zeros((self.nx + 1, self.ny + 1), dtype=np.int64)
        sat[1:, 1:] = counts.reshape(self.nx, self.ny).cumsum(0).cumsum(1)
        cx, cy = np.divmod(np.arange(self.nx * self.ny), self.ny)
        r = np.ones(len(cx), dtype=np.int64)
        while True:
            x0, x1 = np.maximum(cx - r, 0), np.minimum(cx + r, self.nx - 1)
            y0, y1 = np.maximum(cy - r, 0), np.minimum(cy + r, self.ny - 1)
            held = (
                sat[x1 + 1, y1 + 1] - sat[x0, y1 + 1] - sat[x1 + 1, y0] + sat[x0, y0]
            )
            short = held < k
            if not short.any():
                break
            r[short] *= 2
        self._seed = self._block_knn(
            self.minx + (cx + 0.5) * self.s, self.miny + (cy + 0.5) * self.s,
            x0, x1, y0, y1, k,
        )[1]

    def _cell(self, x, y):
        """Clamped cell indices; monotone in x and in y."""
        cx = np.clip(np.floor((x - self.minx) / self.s), 0, self.nx - 1)
        cy = np.clip(np.floor((y - self.miny) / self.s), 0, self.ny - 1)
        return cx.astype(np.int64), cy.astype(np.int64)

    def query(self, qx, qy):
        """→ (ids (Q,k), d2 (Q,k), ref positions) sorted by
        (d2, point_id). Exact."""
        qx = np.asarray(qx, dtype=np.float64)
        qy = np.asarray(qy, dtype=np.float64)
        k = min(self.k, len(self.rx))
        pd2 = np.empty((len(qx), k), dtype=np.float64)
        pidx = np.empty((len(qx), k), dtype=np.int64)
        finite = np.isfinite(qx) & np.isfinite(qy)
        if not finite.all():
            # d² is NaN or inf to every ref alike, so the (d², point_id)
            # order is the point_id order
            bad = ~finite
            pidx[bad] = np.argsort(self.rid, kind="stable")[:k]
            d2_bad = (qx[bad] - self.rx[0]) ** 2 + (qy[bad] - self.ry[0]) ** 2
            pd2[bad] = d2_bad[:, None]
        qx, qy = qx[finite], qy[finite]
        # the cell's k seeds bound the kth d², padded for rounding
        cx, cy = self._cell(qx, qy)
        seed = self._seed[cx * self.ny + cy]
        dx = qx[:, None] - self._sx[seed]
        dy = qy[:, None] - self._sy[seed]
        dk = (dx * dx + dy * dy).max(axis=1) * (1 + 1e-6)
        # the cell block that holds every ref within √dk
        ox = np.maximum(np.maximum(self.minx - qx, qx - self.maxx), 0.0)
        oy = np.maximum(np.maximum(self.miny - qy, qy - self.maxy), 0.0)
        mag = max(abs(self.minx), abs(self.maxx), abs(self.miny), abs(self.maxy))
        eps = 4 * np.spacing(mag + self.s)
        w = np.sqrt(np.fmax(dk - oy * oy, 0.0)) + eps
        h = np.sqrt(np.fmax(dk - ox * ox, 0.0)) + eps
        w[~np.isfinite(dk)] = h[~np.isfinite(dk)] = np.inf  # d² overflowed
        x0, y0 = self._cell(qx - w, qy - h)
        x1, y1 = self._cell(qx + w, qy + h)
        d2, pos = self._block_knn(qx, qy, x0, x1, y0, y1, k)
        pd2[finite] = d2
        pidx[finite] = self._order[pos]
        return self.rid[pidx], pd2, pidx

    def _block_knn(self, qx, qy, x0, x1, y0, y1, k):
        """k nearest by (d², point_id, position) among the refs in each
        query's cell block (columns x0..x1, rows y0..y1) → (d2, sorted
        positions). Every block must hold at least k refs."""
        # one contiguous slice of the sorted refs per (query, column)
        ncol = x1 - x0 + 1
        seg = np.repeat(np.arange(len(qx)), ncol)
        col = np.arange(len(seg)) - np.repeat(np.cumsum(ncol) - ncol, ncol) + x0[seg]
        lo = self._starts[col * self.ny + y0[seg]]
        seglen = self._starts[col * self.ny + y1[seg] + 1] - lo
        segoff = np.cumsum(seglen) - seglen
        flat = np.repeat(lo - segoff, seglen) + np.arange(seglen.sum())
        cnt = np.bincount(seg, weights=seglen, minlength=len(qx)).astype(np.int64)
        qoff = np.cumsum(cnt) - cnt
        d2 = np.empty((len(qx), k), dtype=np.float64)
        pos = np.empty((len(qx), k), dtype=np.int64)
        # padded (rows × width) chunks of queries sorted by candidate
        # count: a chunk ends where the count passes twice its first
        # row's + 8, or at 2**18 distances
        by_cnt = np.argsort(cnt, kind="stable")
        sc = cnt[by_cnt]
        i = 0
        while i < len(qx):
            j = np.searchsorted(sc, 2 * sc[i] + 8, side="right")
            fits = np.arange(1, j - i + 1) * sc[i:j] <= 1 << 18
            rows = by_cnt[i : i + max(1, int(fits.sum()))]
            i += len(rows)
            width = np.arange(cnt[rows[-1]])
            valid = width < cnt[rows, None]
            p = flat[np.where(valid, qoff[rows, None] + width, 0)]
            dx = qx[rows, None] - self._sx[p]
            dy = qy[rows, None] - self._sy[p]
            d = dx * dx + dy * dy
            d[~valid] = np.inf
            srt = np.argsort(d, axis=1)[:, : k + 1]
            sd = np.take_along_axis(d, srt, axis=1)
            sel, kd = srt[:, :k], sd[:, :k]
            # a tie at the kth d² (the (k+1)-th sorted is no larger),
            # which the sort may have cut arbitrarily: order those rows
            # fully
            tie = np.flatnonzero(sd[:, k] <= sd[:, k - 1]) if len(width) > k else []
            if len(tie):
                ids = np.where(valid[tie], self._sid[p[tie]], np.iinfo(np.int64).max)
                sel[tie] = np.lexsort((self._order[p[tie]], ids, d[tie]), axis=1)[:, :k]
                kd[tie] = np.take_along_axis(d[tie], sel[tie], axis=1)
            kp = np.take_along_axis(p, sel, axis=1)
            o = np.lexsort((self._order[kp], self._sid[kp], kd), axis=1)
            d2[rows] = np.take_along_axis(kd, o, axis=1)
            pos[rows] = np.take_along_axis(kp, o, axis=1)
        return d2, pos


class GridKNNFeatures:
    """No-row-explosion kNN feature stage: appends ``nn_point_id``
    (nearest reference) and ``knn_mean_dist2`` (mean of k nearest
    squared distances) per input row — the per-page kNN signal for the
    flagship rollup without multiplying the stream by k.

    Every row is one ``GridKNN.query``; the stage does not deduplicate.
    The flagship kernel (``pipelines.flagship.fused_geotag_pip``)
    dictionary-encodes its coordinates first and calls this stage on
    the distinct points only."""

    def __init__(self, ref, k: int = 5, lon_col: str = "lon", lat_col: str = "lat"):
        ref = resolve_broadcast(ref)
        self.index = GridKNN(
            ref["lon"].to_numpy(), ref["lat"].to_numpy(),
            ref["point_id"].to_numpy(), k=k,
        )
        self.lon_col = lon_col
        self.lat_col = lat_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        qx = batch[self.lon_col].to_numpy(zero_copy_only=False)
        qy = batch[self.lat_col].to_numpy(zero_copy_only=False)
        pid, pd2, _ = self.index.query(qx, qy)
        return batch.append_column(
            "nn_point_id", pa.array(pid[:, 0])
        ).append_column("knn_mean_dist2", pa.array(pd2.mean(axis=1)))


class IDWEstimator(KNNJoiner):
    """Inverse-distance-to-a-power estimate from the k nearest
    reference values (GDALGridInverseDistanceToAPower semantics,
    alg/gdalgrid.cpp: weight = 1/dist^power, exact hit → value):
    appends ``idw_value`` per row."""

    def __init__(self, ref, k: int = 5, power: float = 2.0,
                 smoothing: float = 0.0, lon_col: str = "lon",
                 lat_col: str = "lat"):
        super().__init__(ref, k=k, lon_col=lon_col, lat_col=lat_col,
                         include_value=True)
        self.power = power
        self.smoothing = smoothing

    def __call__(self, batch: pa.Table) -> pa.Table:
        qx = batch[self.lon_col].to_numpy(zero_copy_only=False)
        qy = batch[self.lat_col].to_numpy(zero_copy_only=False)
        # indexed candidate selection (exact); smoothing shifts all
        # distances equally so the k-set is unchanged
        _pid, pd2, pidx = self.index.query(qx, qy)
        pd2 = pd2 + self.smoothing * self.smoothing
        vals = self.rval[pidx]
        with np.errstate(divide="ignore"):
            w = 1.0 / np.power(np.sqrt(pd2), self.power)
        exact = ~np.isfinite(w)
        w = np.where(exact, 0.0, w)
        num = (w * vals).sum(axis=1)
        den = w.sum(axis=1)
        est = np.where(den > 0, num / np.maximum(den, 1e-300), np.nan)
        # exact hits take the reference value (gdalgrid rule)
        hit_rows, hit_cols = np.nonzero(exact)
        est[hit_rows] = vals[hit_rows, hit_cols]
        return batch.append_column("idw_value", pa.array(est))


def knn_join(
    points,
    ref,
    k: int = 5,
    lon_col: str = "lon",
    lat_col: str = "lat",
    include_value: bool = False,
    batch_size: int | None = None,
):
    """points Dataset → k rows per point with nearest reference ids, as
    worker-cached tasks (the index builds once per warm worker)."""
    if isinstance(ref, pa.Table):
        ref = ray.put(ref)
    return points.map_batches(
        worker_cached(
            KNNJoiner,
            ref=ref,
            k=k,
            lon_col=lon_col,
            lat_col=lat_col,
            include_value=include_value,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def idw_estimate(
    points,
    ref,
    k: int = 5,
    power: float = 2.0,
    smoothing: float = 0.0,
    lon_col: str = "lon",
    lat_col: str = "lat",
):
    """points Dataset → + ``idw_value`` (``IDWEstimator``)."""
    if isinstance(ref, pa.Table):
        ref = ray.put(ref)
    return points.map_batches(
        worker_cached(
            IDWEstimator,
            ref=ref,
            k=k,
            power=power,
            smoothing=smoothing,
            lon_col=lon_col,
            lat_col=lat_col,
        ),
        batch_format="pyarrow",
        batch_size=16384,
    )
