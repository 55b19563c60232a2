"""XYZ tile pyramid from any raster — the gdal2tiles / `gdal raster
tile` pipeline (SURVEY.md §2.10), Ray-Data-shaped.

- Base zoom: every XYZ tile intersecting the source extent is one
  task — warp the source into the tile's 256² WebMercator grid
  (gdal2tiles create_base_tile :1283 / FakeMaxZoomDataset warp target,
  apps/gdalalg_raster_tile.cpp:1856). Tile math = gdal_ray.tiles
  (GlobalMercator parity).
- Overviews: zoom z−1 = groupby(parent tile) of ≤4 children + the
  overview.cpp reduce kernels (create_overview_tile :1471).
- Output: a Dataset of ``(z, x, y, data, ...)`` rows — a parquet tile
  pyramid; PNG/WebP encode is a sink stage stubbed pending codecs
  (tile bytes are raw arrays; resume via state.lineage on key z).

Tile y is XYZ (top-left origin) throughout; parent(x,y) = (x//2, y//2)
holds for XYZ exactly as for TMS.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from gdal_ray import tiles
from gdal_ray.raster import overview, warp
from gdal_ray.stages.cache import resolve_broadcast, worker_cached
from gdal_ray.stages.partition import map_keys

TILE_SIZE = 256


def base_tile_index(
    src_shape, src_gt, src_crs: str, zoom: int
) -> list[tuple[int, int]]:
    """XYZ tiles intersecting the source extent at a zoom."""
    h, w = src_shape
    from gdal_ray.raster import model
    from gdal_ray.proj import Transformer

    corners_px = np.array([[0, 0], [w, 0], [0, h], [w, h]], dtype=np.float64)
    sx, sy = model.pixel_to_world(src_gt, corners_px[:, 0], corners_px[:, 1])
    t = Transformer.from_crs(src_crs, "EPSG:3857")
    mx, my, ok = t.transform_with_errors(sx, sy)
    mx, my = mx[ok], my[ok]
    tx0, ty0 = tiles.meters_to_tile(mx.min(), my.min(), zoom)
    tx1, ty1 = tiles.meters_to_tile(mx.max(), my.max(), zoom)
    n = 1 << zoom
    out = []
    for tx in range(max(0, int(tx0)), min(n - 1, int(tx1)) + 1):
        for ty_tms in range(max(0, int(ty0)), min(n - 1, int(ty1)) + 1):
            out.append((tx, int(tiles.tms_to_xyz(ty_tms, zoom))))
    return out


class BaseTileWarper:
    """map_batches stage over (z, x, y) index rows: warp the broadcast
    source into each tile's mercator grid."""

    def __init__(self, src_ref, src_gt, src_crs: str, method: str = "bilinear",
                 nodata: float = np.nan):
        self.src = resolve_broadcast(src_ref)
        self.src_gt = src_gt
        self.src_crs = src_crs
        self.method = method
        self.nodata = nodata

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for r in batch.to_pylist():
            z, x, y = r["z"], r["x"], r["y"]
            ty_tms = int(tiles.xyz_to_tms(y, z))
            minx, miny, maxx, maxy = tiles.tile_bounds(x, ty_tms, z)
            res = float(tiles.resolution(z))
            gt = (float(minx), res, 0.0, float(maxy), 0.0, -res)
            arr = warp.warp_array(
                self.src, self.src_gt, self.src_crs,
                (TILE_SIZE, TILE_SIZE), gt, "EPSG:3857",
                method=self.method, nodata=self.nodata,
            ).astype(np.float32)
            rows.append(
                {"z": z, "x": x, "y": y, "width": TILE_SIZE,
                 "height": TILE_SIZE, "dtype": "float32",
                 "data": arr.tobytes()}
            )
        return pa.Table.from_pylist(rows)


def overview_level(tiles_ds: rd.Dataset, method: str = "average") -> rd.Dataset:
    """One pyramid step: tiles at zoom z → tiles at z−1, one
    ``map_keys`` call per parent tile."""

    def key(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return (
            batch.append_column("px", pc.floor(pc.divide(batch["x"], 2)))
            .append_column("py", pc.floor(pc.divide(batch["y"], 2)))
        )

    def reduce_group(group: pa.Table) -> pa.Table:
        rows = group.to_pylist()
        z = rows[0]["z"]
        px, py = int(rows[0]["px"]), int(rows[0]["py"])
        full = np.full((2 * TILE_SIZE, 2 * TILE_SIZE), np.nan, dtype=np.float32)
        for r in rows:
            arr = np.frombuffer(r["data"], dtype=np.float32).reshape(
                r["height"], r["width"]
            )
            ox = (r["x"] - 2 * px) * TILE_SIZE
            oy = (r["y"] - 2 * py) * TILE_SIZE
            full[oy : oy + TILE_SIZE, ox : ox + TILE_SIZE] = arr
        red = overview.reduce_2x2(full, method).astype(np.float32)
        return pa.Table.from_pylist(
            [
                {"z": z - 1, "x": px, "y": py, "width": TILE_SIZE,
                 "height": TILE_SIZE, "dtype": "float32",
                 "data": red.tobytes()}
            ]
        )

    keyed = tiles_ds.map_batches(key, batch_format="pyarrow")
    return map_keys(keyed, ["px", "py"], reduce_group)


def raster_tile_pyramid(
    src: np.ndarray,
    src_gt,
    src_crs: str,
    zmin: int,
    zmax: int,
    method: str = "bilinear",
    overview_method: str = "average",
) -> rd.Dataset:
    """Full pyramid: base tiles at zmax (warp per tile) + overview
    levels down to zmin. Returns the union of all levels."""
    idx = base_tile_index(src.shape, src_gt, src_crs, zmax)
    index_tbl = pa.table(
        {
            "z": pa.array([zmax] * len(idx), pa.int32()),
            "x": pa.array([t[0] for t in idx], pa.int64()),
            "y": pa.array([t[1] for t in idx], pa.int64()),
        }
    )
    src_ref = ray.put(src)
    base = rd.from_arrow(index_tbl).map_batches(
        worker_cached(
            BaseTileWarper,
            src_ref=src_ref,
            src_gt=tuple(src_gt),  # a list would key by identity
            src_crs=src_crs,
            method=method,
        ),
        batch_format="pyarrow",
    )
    levels = [base.materialize()]
    cur = levels[0]
    for _z in range(zmax, zmin, -1):
        cur = overview_level(cur, overview_method).materialize()
        levels.append(cur)
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def pyramid_metadata(tiles_df, zmin: int, zmax: int) -> dict:
    """Leaflet/openlayers-style metadata blob (gdal2tiles writes HTML/
    JSON next to the tiles — apps/gdalalg_raster_tile.cpp metadata
    outputs)."""
    return {
        "tilejson": "2.2.0",
        "scheme": "xyz",
        "minzoom": zmin,
        "maxzoom": zmax,
        "tile_size": TILE_SIZE,
        "tiles_total": int(len(tiles_df)),
        "bounds_tiles": {
            int(z): {
                "x": [int(g["x"].min()), int(g["x"].max())],
                "y": [int(g["y"].min()), int(g["y"].max())],
            }
            for z, g in tiles_df.groupby("z")
        },
    }


def write_png_tiles(
    tiles_ds: rd.Dataset,
    out_dir: str,
    vmin: float,
    vmax: float,
    rgba: bool = True,
    overwrite: bool = False,
) -> rd.Dataset:
    """Write pyramid tiles as a z/x/y.png directory tree (the
    gdal2tiles XYZ layout; PNG output of `gdal raster tile`,
    apps/gdalalg_raster_tile.cpp:6191 / gdal2tiles.py:1283).

    Float tile values scale linearly [vmin, vmax] → 0..255 grey; with
    ``rgba`` NaN pixels become fully transparent (the nodata→alpha
    story).  Writes are atomic (tmp + rename) and resumable: existing
    files are skipped unless ``overwrite`` — re-running a killed job
    only encodes the missing tiles.  Returns the manifest dataset
    (z, x, y, path, written, n_bytes)."""
    import os

    from gdal_ray.raster import png as pngmod

    span = float(vmax - vmin) or 1.0

    def sink(batch: pa.Table) -> pa.Table:
        out = []
        for r in batch.to_pylist():
            z, x, y = int(r["z"]), int(r["x"]), int(r["y"])
            d = os.path.join(out_dir, str(z), str(x))
            path = os.path.join(d, f"{y}.png")
            if not overwrite and os.path.exists(path):
                out.append(
                    {"z": z, "x": x, "y": y, "path": path,
                     "written": False, "n_bytes": os.path.getsize(path)}
                )
                continue
            arr = np.frombuffer(r["data"], dtype=np.float32).reshape(
                r["height"], r["width"]
            )
            finite = np.isfinite(arr)
            grey = np.clip(
                (np.where(finite, arr, vmin) - vmin) / span * 255.0,
                0.0, 255.0,
            ).astype(np.uint8)
            if rgba:
                img = np.empty((*grey.shape, 4), dtype=np.uint8)
                img[:, :, 0] = img[:, :, 1] = img[:, :, 2] = grey
                img[:, :, 3] = np.where(finite, 255, 0).astype(np.uint8)
            else:
                img = grey
            data = pngmod.encode_png(img)
            os.makedirs(d, exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
            out.append(
                {"z": z, "x": x, "y": y, "path": path,
                 "written": True, "n_bytes": len(data)}
            )
        return pa.Table.from_pylist(out)

    return tiles_ds.map_batches(sink, batch_format="pyarrow")


def write_pmtiles_pyramid(
    tiles_ds: rd.Dataset,
    path: str,
    vmin: float,
    vmax: float,
    rgba: bool = True,
) -> dict:
    """Pyramid → ONE PMTiles v3 archive: tiles PNG-encode in parallel
    (map_batches), then funnel through the clustered single-file
    writer (gdal_ray.pmtiles — Hilbert order, content dedup; uniform
    tiles like all-NaN ocean collapse to one stored blob)."""
    from gdal_ray import pmtiles as pmt
    from gdal_ray.raster import png as pngmod

    span = float(vmax - vmin) or 1.0

    def encode(batch: pa.Table) -> pa.Table:
        out = []
        for r in batch.to_pylist():
            arr = np.frombuffer(r["data"], dtype=np.float32).reshape(
                r["height"], r["width"])
            finite = np.isfinite(arr)
            grey = np.clip(
                (np.where(finite, arr, vmin) - vmin) / span * 255.0,
                0.0, 255.0).astype(np.uint8)
            if rgba:
                img = np.empty((*grey.shape, 4), dtype=np.uint8)
                img[:, :, 0] = img[:, :, 1] = img[:, :, 2] = grey
                img[:, :, 3] = np.where(finite, 255, 0).astype(np.uint8)
            else:
                img = grey
            out.append({"z": int(r["z"]), "x": int(r["x"]),
                        "y": int(r["y"]),
                        "data": pngmod.encode_png(img)})
        return pa.Table.from_pylist(out)

    encoded = tiles_ds.map_batches(encode, batch_format="pyarrow")
    return pmt.write_pmtiles(path, encoded, tile_type=pmt.TYPE_PNG)
