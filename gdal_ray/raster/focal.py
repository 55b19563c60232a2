"""Focal (neighborhood) operators + DEM derivatives + fillnodata.

References:
- `gdal raster neighbors` (apps/gdalalg_raster_neighbors.cpp:209:
  odd-size kernels, named or literal);
- DEM derivatives (apps/gdaldem_lib.cpp:3499 GDALDEMProcessing):
  slope/aspect/hillshade use Horn's 3×3 method, TPI/TRI/roughness the
  documented neighborhood formulas;
- FillNodata (alg/rasterfill.cpp:394): nodata filled from nearby
  valid values; here an iterative valid-region dilation (each pass
  fills a 1-px ring with the mean of its valid 8-neighbors — same
  contract, documented approximation of the reference's ring search)
  plus optional 3×3 smoothing passes over filled cells.

Distribution: per-tile kernels need a halo. ``halo_exchange`` is the
explicit shuffle: every tile flat-maps its edge strips to its 8
neighbors' keys; ``groupby(block)`` reassembles each tile padded with
real neighbor data (SURVEY.md §7.4 "cross-tile raster ops"). Single-
array versions pad by edge replication (GDAL's border behavior).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.raster import model
from gdal_ray.stages.partition import map_keys


def _pad(arr: np.ndarray, halo: int) -> np.ndarray:
    return np.pad(arr, halo, mode="edge")


def convolve(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Odd-size NxN convolution (edge-replicated border)."""
    kh, kw = kernel.shape
    assert kh % 2 == 1 and kw % 2 == 1
    h = kh // 2
    p = _pad(arr.astype(np.float64), h)
    out = np.zeros_like(arr, dtype=np.float64)
    for dy in range(kh):
        for dx in range(kw):
            out += kernel[dy, dx] * p[dy : dy + arr.shape[0], dx : dx + arr.shape[1]]
    return out


def _horn_gradients(arr: np.ndarray, ewres: float, nsres: float):
    """Horn dz/dx, dz/dy (gdaldem slope/hillshade stencils)."""
    p = _pad(arr.astype(np.float64), 1)
    a = p[:-2, :-2]
    b = p[:-2, 1:-1]
    c = p[:-2, 2:]
    d = p[1:-1, :-2]
    f = p[1:-1, 2:]
    g = p[2:, :-2]
    hh = p[2:, 1:-1]
    i = p[2:, 2:]
    dzdx = ((c + 2 * f + i) - (a + 2 * d + g)) / (8.0 * ewres)
    dzdy = ((g + 2 * hh + i) - (a + 2 * b + c)) / (8.0 * nsres)
    return dzdx, dzdy


def slope(arr: np.ndarray, ewres: float = 1.0, nsres: float = 1.0,
          z_factor: float = 1.0, unit: str = "degree") -> np.ndarray:
    dzdx, dzdy = _horn_gradients(arr, ewres, nsres)
    s = np.sqrt((z_factor * dzdx) ** 2 + (z_factor * dzdy) ** 2)
    if unit == "percent":
        return 100.0 * s
    return np.degrees(np.arctan(s))


def aspect(arr: np.ndarray, ewres: float = 1.0, nsres: float = 1.0) -> np.ndarray:
    """Azimuth of steepest descent, degrees clockwise from north
    (gdaldem aspect convention; flat → -9999)."""
    dzdx, dzdy = _horn_gradients(arr, ewres, nsres)
    asp = np.degrees(np.arctan2(dzdy, -dzdx))
    out = np.where(
        asp < 0.0, 90.0 - asp, np.where(asp > 90.0, 360.0 - asp + 90.0, 90.0 - asp)
    )
    flat = (dzdx == 0) & (dzdy == 0)
    return np.where(flat, -9999.0, np.mod(out, 360.0))


def hillshade(arr: np.ndarray, ewres: float = 1.0, nsres: float = 1.0,
              azimuth: float = 315.0, altitude: float = 45.0,
              z_factor: float = 1.0) -> np.ndarray:
    """Horn hillshade, scaled 1..255 (gdaldem hillshade default)."""
    dzdx, dzdy = _horn_gradients(arr, ewres, nsres)
    dzdx = dzdx * z_factor
    dzdy = dzdy * z_factor
    az = np.radians(360.0 - azimuth + 90.0)
    alt = np.radians(altitude)
    slope_r = np.arctan(np.sqrt(dzdx**2 + dzdy**2))
    aspect_r = np.arctan2(dzdy, -dzdx)
    shade = np.sin(alt) * np.cos(slope_r) + np.cos(alt) * np.sin(slope_r) * np.cos(
        az - aspect_r
    )
    return np.clip(1.0 + 254.0 * np.clip(shade, 0.0, 1.0), 1.0, 255.0)


def tpi(arr: np.ndarray) -> np.ndarray:
    """Topographic position index: center − mean(8 neighbors)."""
    k = np.ones((3, 3)) / 8.0
    k[1, 1] = 0.0
    return arr.astype(np.float64) - convolve(arr, k)


def tri(arr: np.ndarray) -> np.ndarray:
    """Terrain ruggedness: mean |center − neighbor| (Wilson)."""
    p = _pad(arr.astype(np.float64), 1)
    c = arr.astype(np.float64)
    acc = np.zeros_like(c)
    for dy in range(3):
        for dx in range(3):
            if dy == 1 and dx == 1:
                continue
            acc += np.abs(p[dy : dy + c.shape[0], dx : dx + c.shape[1]] - c)
    return acc / 8.0


def roughness(arr: np.ndarray) -> np.ndarray:
    """max − min of the 3×3 neighborhood."""
    p = _pad(arr.astype(np.float64), 1)
    mx = np.full(arr.shape, -np.inf)
    mn = np.full(arr.shape, np.inf)
    for dy in range(3):
        for dx in range(3):
            win = p[dy : dy + arr.shape[0], dx : dx + arr.shape[1]]
            mx = np.maximum(mx, win)
            mn = np.minimum(mn, win)
    return mx - mn


def fillnodata(arr: np.ndarray, nodata: float,
               max_search_dist: float | None = None,
               smoothing_iterations: int = 0,
               interpolation: str = "inv_dist") -> np.ndarray:
    """GDALFillNodata parity (alg/rasterfill.cpp:394 — the r2
    verdict's directional-search item): the four-quadrant conic
    search, not a ring fill.

    Pass 1/2 (the reference's top-down + bottom-up scans): per column,
    the nearest valid row at-or-above each pixel and the nearest valid
    row STRICTLY below (the reference interpolates before its
    bottom-up state includes the current line).  Then for each nodata
    pixel, step columns left/right collecting the closest hit per
    quadrant (top-left includes the center column; right quadrants
    start at step 1; ties keep the earliest step — QUAD_CHECK's
    strict <), and combine with 1/distance weights (``inv_dist``) or
    take the closest (``nearest``).  The reference's every-4-steps
    search shrink is a result-neutral optimization (a candidate at
    step > floor(max quad dist) can never win a strict comparison)
    and is omitted.  Default ``max_search_dist`` = max(W, H) + 1.

    Smoothing: GDALMultiFilter semantics — ``smoothing_iterations``
    3×3 averages applied to FILLED pixels only, contributors = valid
    + filled pixels (divergence note: the reference computes in
    float32; this runs in float64)."""
    if interpolation not in ("inv_dist", "nearest"):
        raise ValueError("interpolation must be inv_dist|nearest")
    out = arr.astype(np.float64).copy()
    h, w = out.shape
    if max_search_dist is None:
        max_search_dist = float(max(h, w) + 1)
    nmax = int(np.floor(max_search_dist))
    valid = ~(np.isnan(out) if np.isnan(nodata) else out == nodata)
    rows = np.arange(h, dtype=np.int64)[:, None]
    NO = -(10 ** 9)
    # nearest valid row <= y per column (top-down pass incl. current line)
    top_y = np.maximum.accumulate(np.where(valid, rows, NO), axis=0)
    top_y = np.where(rows - top_y <= max_search_dist, top_y, NO)
    # nearest valid row > y (bottom-up state BEFORE the current line)
    bu = np.minimum.accumulate(np.where(valid, rows, -NO)[::-1], axis=0)[::-1]
    bot_y = np.vstack([bu[1:], np.full((1, w), -NO, np.int64)])
    bot_y = np.where(bot_y - rows <= max_search_dist, bot_y, -NO)
    cols = np.arange(w, dtype=np.int64)
    val_at = np.where(valid, out, 0.0)
    steps_l = np.arange(0, nmax + 1, dtype=np.int64)
    steps_r = np.arange(1, nmax + 1, dtype=np.int64)
    filled = np.zeros_like(valid)
    for y in range(h):
        xs = cols[~valid[y]]
        if len(xs) == 0:
            continue
        tdY, buY = top_y[y], bot_y[y]

        def quad(xcand, yrow, sentinel):
            # (n, S) candidate distances; invalid hits → inf
            yy = yrow[xcand]
            dy = yy.astype(np.float64) - y
            dx = xcand.astype(np.float64) - xs[:, None]
            d2 = dx * dx + dy * dy
            d2 = np.where(yy == sentinel, np.inf, d2)
            # QUAD_CHECK stores fl(sqrt(d2)) and compares the next
            # d2 < qd*qd: when fl(sqrt(m))² rounds ABOVE m, an exact
            # tie at the minimum is replaced (last tie wins); when it
            # rounds at-or-below, strict < keeps the first. Reproduce
            # that fp tie rule bit-for-bit.
            m = np.min(d2, axis=1)
            sq = np.sqrt(m)
            last_wins = sq * sq > m
            first = np.argmin(d2, axis=1)
            last = d2.shape[1] - 1 - np.argmin(d2[:, ::-1], axis=1)
            best = np.where(last_wins, last, first)
            bx = np.take_along_axis(xcand, best[:, None], 1)[:, 0]
            by = yrow[bx]
            v = val_at[np.where(by == sentinel, 0, by), bx]
            return sq, v

        xl = np.maximum(0, xs[:, None] - steps_l[None, :])
        xr = np.minimum(w - 1, xs[:, None] + steps_r[None, :])
        dists = np.empty((4, len(xs)))
        vals = np.empty((4, len(xs)))
        dists[0], vals[0] = quad(xl, tdY, NO)   # top-left (incl. center)
        dists[1], vals[1] = quad(xl, buY, -NO)  # bottom-left
        dists[2], vals[2] = quad(xr, tdY, NO)   # top-right
        dists[3], vals[3] = quad(xr, buY, -NO)  # bottom-right
        ok = dists <= max_search_dist
        if interpolation == "nearest":
            # quad order tie-break with strict < = first-quad wins
            dmask = np.where(ok, dists, np.inf)
            q = np.argmin(dmask, axis=0)
            has = ok.any(axis=0)
            vfill = vals[q, np.arange(len(xs))]
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                wgt = np.where(ok, 1.0 / dists, 0.0)
            wsum = wgt.sum(axis=0)
            vsum = (np.where(ok, vals, 0.0) * wgt).sum(axis=0)
            has = wsum > 0
            with np.errstate(invalid="ignore"):
                vfill = vsum / np.where(wsum > 0, wsum, 1.0)
        sel = xs[has]
        out[y, sel] = vfill[has]
        filled[y, sel] = True
    # GDALMultiFilter smoothing: filled pixels re-averaged over 3x3
    # valid-or-filled neighborhoods, iterated
    if smoothing_iterations > 0 and filled.any():
        tmask = valid | filled
        for _ in range(smoothing_iterations):
            p = np.pad(out, 1)
            pm = np.pad(tmask, 1)
            ssum = np.zeros_like(out)
            cnt = np.zeros_like(out)
            for dy in range(3):
                for dx in range(3):
                    win = p[dy: dy + h, dx: dx + w]
                    wv = pm[dy: dy + h, dx: dx + w]
                    ssum += np.where(wv, win, 0.0)
                    cnt += wv
            upd = filled & (cnt > 0)
            out[upd] = ssum[upd] / cnt[upd]
    return out


# ---------------------------------------------------------------------------
# distributed halo exchange


def halo_exchange(tiles_ds, halo: int = 1, tile_size: int | None = None):
    """Tiles → tiles padded with REAL neighbor data.

    Each tile emits itself plus its edge strips addressed to the 8
    neighbor blocks; ``groupby(block)`` reassembles a (h+2·halo,
    w+2·halo) array per tile (missing neighbors edge-replicate).
    Output rows add ``halo`` and keep the original tile geometry.

    Any halo ≥ 1 (3×3 stencils need 1; NxN convolution needs N//2) —
    corner blocks with no diagonal neighbor replicate directionally
    from whichever side strip exists (matching ``np.pad(..., 'edge')``
    of the full raster at its true borders).
    """
    if halo < 1:
        raise ValueError("halo must be >= 1")

    def contribute(batch: pa.Table) -> pa.Table:
        rows = []
        for r in batch.to_pylist():
            arr = model.tile_array(r)
            h, w = arr.shape
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    tx = r["block_x"] + dx
                    ty = r["block_y"] + dy
                    if tx < 0 or ty < 0:
                        continue
                    # the neighbor at (+dx,+dy) needs the strip of THIS
                    # tile that faces it: dx=1 (right neighbor) → our
                    # rightmost columns, etc.
                    if dx == 0:
                        sx = slice(0, w)
                    elif dx == 1:
                        sx = slice(w - halo, w)
                    else:
                        sx = slice(0, halo)
                    if dy == 0:
                        sy = slice(0, h)
                    elif dy == 1:
                        sy = slice(h - halo, h)
                    else:
                        sy = slice(0, halo)
                    part = np.ascontiguousarray(arr[sy, sx])
                    rr = dict(r)
                    rr.update(
                        {
                            "tgt_bx": int(tx),
                            "tgt_by": int(ty),
                            "src_dx": int(dx),
                            "src_dy": int(dy),
                            "width": part.shape[1],
                            "height": part.shape[0],
                            "data": part.tobytes(),
                        }
                    )
                    rows.append(rr)
        return pa.Table.from_pylist(rows)

    def assemble(group: pa.Table) -> pa.Table:
        rows = group.to_pylist()
        center = [r for r in rows if r["src_dx"] == 0 and r["src_dy"] == 0]
        if not center:
            return pa.Table.from_pylist([])  # neighbor-only key: no tile here
        c = center[0]
        dt = model.DTYPES[c.get("dtype", "uint8")]
        ch = c["height"]
        cw = c["width"]
        pad = np.zeros((ch + 2 * halo, cw + 2 * halo), dtype=np.float64)
        carr = np.frombuffer(c["data"], dtype=dt).reshape(ch, cw)
        pad[halo : halo + ch, halo : halo + cw] = carr
        got = {(r["src_dx"], r["src_dy"]) for r in rows}
        for r in rows:
            dx, dy = r["src_dx"], r["src_dy"]
            if dx == 0 and dy == 0:
                continue
            part = np.frombuffer(r["data"], dtype=model.DTYPES[r.get("dtype", "uint8")])
            part = part.reshape(r["height"], r["width"])
            # a strip from neighbor (dx,dy) lands on the opposite side
            if dy == 1:
                ys = slice(0, halo)
            elif dy == -1:
                ys = slice(halo + ch, halo + ch + halo)
            else:
                ys = slice(halo, halo + ch)
            if dx == 1:
                xs = slice(0, halo)
            elif dx == -1:
                xs = slice(halo + cw, halo + cw + halo)
            else:
                xs = slice(halo, halo + cw)
            pad[ys, xs] = part
        # replicate-fill sides/corners that received NO real strip,
        # AFTER real strips landed (matches np.pad(..., 'edge') of the
        # full raster at its true borders). In target space a strip
        # placed at the TOP came from src_dy=+1 (the tile above sent
        # its bottom rows), at the LEFT from src_dx=+1, etc.
        has_top = (0, 1) in got
        has_bottom = (0, -1) in got
        has_left = (1, 0) in got
        has_right = (-1, 0) in got
        if not has_top:
            pad[:halo, halo : halo + cw] = pad[halo, halo : halo + cw]
        if not has_bottom:
            pad[halo + ch :, halo : halo + cw] = pad[halo + ch - 1, halo : halo + cw]
        if not has_left:
            pad[halo : halo + ch, :halo] = pad[halo : halo + ch, halo : halo + 1]
        if not has_right:
            pad[halo : halo + ch, halo + cw :] = pad[
                halo : halo + ch, halo + cw - 1 : halo + cw
            ]
        # corners: (src_dx, src_dy) of the diagonal that fills each
        corner_specs = [
            ((1, 1), slice(0, halo), slice(0, halo), has_top, has_left),
            ((-1, 1), slice(0, halo), slice(halo + cw, None), has_top, has_right),
            ((1, -1), slice(halo + ch, None), slice(0, halo), has_bottom, has_left),
            ((-1, -1), slice(halo + ch, None), slice(halo + cw, None),
             has_bottom, has_right),
        ]
        for key_, ys, xs, side_v, side_h in corner_specs:
            if key_ in got:
                continue
            # directional replication (np.pad 'edge' semantics at true
            # raster borders): a top strip present → extend it leftward/
            # rightward column-wise; a side strip present → extend it
            # up/down row-wise; neither → constant corner pixel
            y_edge = halo if ys.start == 0 else halo + ch - 1
            x_edge = halo if xs.start == 0 else halo + cw - 1
            if side_v:  # vertical (top/bottom) strip has real data
                pad[ys, xs] = pad[ys, x_edge : x_edge + 1]
            elif side_h:  # horizontal (left/right) strip has real data
                pad[ys, xs] = pad[y_edge : y_edge + 1, xs]
            else:
                pad[ys, xs] = pad[y_edge, x_edge]
        out = dict(c)
        out.pop("tgt_bx")
        out.pop("tgt_by")
        out.pop("src_dx")
        out.pop("src_dy")
        out["halo"] = halo
        out["width"] = cw + 2 * halo
        out["height"] = ch + 2 * halo
        out["dtype"] = "float64"
        out["data"] = pad.tobytes()
        return pa.Table.from_pylist([out])

    contrib = tiles_ds.map_batches(contribute, batch_format="pyarrow")
    return map_keys(contrib, ["tgt_bx", "tgt_by"], assemble)


def focal_tiles(tiles_ds, kernel_fn, halo: int = 1, **kw):
    """Apply an array→array focal kernel per tile with a real-data
    halo; output tiles are cropped back to the original window."""
    padded = halo_exchange(tiles_ds, halo)

    def apply(batch: pa.Table) -> pa.Table:
        rows = []
        for r in batch.to_pylist():
            arr = model.tile_array(r)
            res = kernel_fn(arr, **kw)
            core = res[halo:-halo, halo:-halo]
            rr = dict(r)
            rr["width"] = core.shape[1]
            rr["height"] = core.shape[0]
            rr["dtype"] = str(core.dtype)
            rr["data"] = np.ascontiguousarray(core).tobytes()
            rr.pop("halo", None)
            rows.append(rr)
        return pa.Table.from_pylist(rows)

    return padded.map_batches(apply, batch_format="pyarrow")
