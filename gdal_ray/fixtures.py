"""Deterministic synthetic fixtures (FIXTURES.md schemas, seed 42).

Everything here is generated from code constants + numpy PRNG seed 42 —
no external data. The ``pages`` table is the BASELINE.json
``input_hint`` corpus shape: ``(url, warc_ts, html, text, lang)``.

Scales (FIXTURES.md §1): smoke=1,000 / correctness=20,000 /
bench=2,000,000 rows. 20 % of rows mention the HOT city (skew fixture
for hot-cell salting).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from gdal_ray.geom import wkb as gwkb
from gdal_ray.geoparse import GAZETTEER

SEED = 42
LANGS = ["en", "es", "de", "fr", "pt"]
N_SITES = 50


def gen_pages(n: int) -> pa.Table:
    """The input corpus (FIXTURES.md §1), fully vectorized.

    text embeds a place mention AND the literal ``lat,lon`` (4 dp) so
    the geoparser is exactly invertible. 20 % of rows (i % 5 == 0) use
    the hot city (GAZETTEER[0]).
    """
    return _pages_from_index(np.arange(n, dtype=np.int64))


def _pages_from_index(i: np.ndarray) -> pa.Table:
    place_idx = np.where(i % 5 == 0, 0, i % 64)
    names = np.array([g[0] for g in GAZETTEER], dtype=object)
    lons = np.array([g[1] for g in GAZETTEER])
    lats = np.array([g[2] for g in GAZETTEER])
    place = names[place_idx]
    lon = lons[place_idx]
    lat = lats[place_idx]

    url = np.char.add(
        np.char.add(
            np.char.add("https://site", (i % N_SITES).astype(str)), ".example/"
        ),
        i.astype(str),
    )
    # 2025-01-01T00:00:00Z + i*137s, timestamp[us]
    base_us = np.int64(1735689600) * 1_000_000
    warc_ts = base_us + i * 137 * 1_000_000

    lat_s = np.char.mod("%.4f", lat)
    lon_s = np.char.mod("%.4f", lon)
    text = np.char.add(
        np.char.add(
            np.char.add(np.char.add("Report ", i.astype(str)), ": rain near "),
            place.astype(str),
        ),
        np.char.add(
            np.char.add(np.char.add(" at ", lat_s), ","),
            np.char.add(lon_s, " today."),
        ),
    )
    html = np.char.add(np.char.add("<html><body>", text), "</body></html>")
    lang = np.array(LANGS, dtype=object)[(i % len(LANGS))]

    return pa.table(
        {
            "url": pa.array(url.tolist(), pa.string()),
            "warc_ts": pa.array(warc_ts, pa.timestamp("us")),
            "html": pa.array([s.encode() for s in html.tolist()], pa.binary()),
            "text": pa.array(text.tolist(), pa.string()),
            "lang": pa.array(lang.tolist(), pa.string()),
        }
    )


def boundary_boxes() -> list[tuple[float, float, float, float]]:
    """The 100 admin boxes (minx, miny, maxx, maxy) — shared between
    the WKB fixture and the SQL oracle (inline VALUES)."""
    boxes = []
    # 90 grid boxes (10 cols x 9 rows = 90) -> use 10x9 to leave room for 10 specials
    xs = np.linspace(-80, 80, 11)
    ys = np.linspace(-60, 60, 10)
    for r in range(9):
        for c in range(10):
            boxes.append((xs[c], ys[r], xs[c + 1], ys[r + 1]))
    # 8 overlapping boxes (offset half-cells, deterministic)
    for k in range(8):
        x0 = -72.0 + 18.0 * k
        y0 = -50.0 + 11.0 * k
        boxes.append((x0, y0, x0 + 24.0, y0 + 20.0))
    # 2 straddling: one across lon=0, one over the hot city (Jakarta)
    boxes.append((-12.0, -15.0, 12.0, 15.0))
    hot_lon, hot_lat = GAZETTEER[0][1], GAZETTEER[0][2]
    boxes.append((hot_lon - 3.0, hot_lat - 3.0, hot_lon + 3.0, hot_lat + 3.0))
    assert len(boxes) == 100
    return boxes


def gen_boundaries() -> pa.Table:
    """Admin polygons (FIXTURES.md §3): 10×9 grid of boxes over
    [-80,80]×[-60,60], + 8 overlapping boxes + 2 straddling boxes.
    WKB polygons, closed CCW outer ring, ``ogc.wkb`` metadata."""
    boxes = boundary_boxes()
    geoms = [gwkb.box_polygon_wkb(*b) for b in boxes]
    schema = pa.schema(
        [
            pa.field("admin_id", pa.int64()),
            pa.field("name", pa.string()),
            pa.field(
                "geometry",
                pa.binary(),
                metadata={b"ARROW:extension:name": b"ogc.wkb"},
            ),
            pa.field("minx", pa.float64()),
            pa.field("miny", pa.float64()),
            pa.field("maxx", pa.float64()),
            pa.field("maxy", pa.float64()),
        ]
    )
    return pa.table(
        {
            "admin_id": pa.array(np.arange(100, dtype=np.int64)),
            "name": pa.array([f"admin_{i}" for i in range(100)]),
            "geometry": pa.array(geoms, pa.binary()),
            "minx": pa.array([b[0] for b in boxes]),
            "miny": pa.array([b[1] for b in boxes]),
            "maxx": pa.array([b[2] for b in boxes]),
            "maxy": pa.array([b[3] for b in boxes]),
        },
        schema=schema,
    )


def _halton(i: np.ndarray, base: int) -> np.ndarray:
    """Vectorized Halton low-discrepancy sequence."""
    out = np.zeros(len(i), dtype=np.float64)
    f = 1.0
    ii = i.copy() + 1
    while ii.max() > 0:
        f /= base
        out += f * (ii % base)
        ii //= base
    return out


def gen_ref_points(n: int = 5000) -> pa.Table:
    """kNN reference set (FIXTURES.md §4): Halton(2,3) over
    [-80,80]×[-60,60], value = sin(id)*100."""
    i = np.arange(n, dtype=np.int64)
    lon = -80.0 + 160.0 * _halton(i, 2)
    lat = -60.0 + 120.0 * _halton(i, 3)
    return pa.table(
        {
            "point_id": pa.array(i),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
            "value": pa.array(np.sin(i.astype(np.float64)) * 100.0),
        }
    )


def gen_grid20() -> pa.Table:
    """byte.tif analogue (FIXTURES.md §5): single 20×20 uint8 block,
    EPSG:26711, geotransform [440720,60,0,3751320,0,-60], data
    ``(i*7 + j*13) % 256``."""
    ii, jj = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
    data = ((ii * 7 + jj * 13) % 256).astype(np.uint8)
    return pa.table(
        {
            "band": pa.array([1], pa.int32()),
            "block_x": pa.array([0], pa.int32()),
            "block_y": pa.array([0], pa.int32()),
            "x0": pa.array([0], pa.int32()),
            "y0": pa.array([0], pa.int32()),
            "width": pa.array([20], pa.int32()),
            "height": pa.array([20], pa.int32()),
            "crs": pa.array(["EPSG:26711"], pa.string()),
            "geotransform": pa.array(
                [[440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0]],
                pa.list_(pa.float64()),
            ),
            "data": pa.array([data.tobytes()], pa.binary()),
        }
    )


# ---------------------------------------------------------------------------
# cached on-disk fixtures (scratch under /tmp, never inside /root/testdata)

FIXTURE_DIR = os.environ.get("GDAL_RAY_FIXTURE_DIR", "/tmp/gdal_ray_fixtures")


def pages_path(n: int, shards: int = 32) -> str:
    """Write-once cached pages corpus: a DIRECTORY of ``shards``
    parquet files (64k-row row groups — the reference Arrow batch
    size, ogrlayerarrow.cpp:2069).

    Sharding matters: a single parquet file is read by ONE Ray task
    (then split), serializing the scan — with 32 shards the read runs
    32-wide. This is also the resumable-output layout the engine
    itself writes (one file per partition). Written to a temp dir +
    atomic rename.
    """
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    path = os.path.join(FIXTURE_DIR, f"pages_{n}")
    if not os.path.isdir(path):
        tmp = path + ".tmp"
        os.makedirs(tmp, exist_ok=True)
        per = (n + shards - 1) // shards
        for s in range(shards):
            start = s * per
            cnt = min(per, n - start)
            if cnt <= 0:
                break
            t = gen_pages_range(start, cnt)
            pq.write_table(
                t, os.path.join(tmp, f"part-{s:05d}.parquet"),
                row_group_size=65536,
            )
        os.rename(tmp, path)
    return path


def gen_pages_range(start: int, count: int) -> pa.Table:
    """gen_pages for rows [start, start+count) — streaming generation."""
    return _pages_from_index(np.arange(start, start + count, dtype=np.int64))
