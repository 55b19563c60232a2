"""Seeded input generators for the four benchmark workloads.

Each generator takes the workload seed and writes parquet files under
a work directory; it also returns the ground truth its oracle needs
(the coordinates it wrote, or the duplicate map of the paragraphs it
wrote). The engine only ever sees the files.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from gdal_ray import fixtures
from gdal_ray.geoparse import GAZETTEER

# bench corpus shape (FIXTURES.md §1): one 62.5k-row file per shard
SHARD_ROWS = 62_500


def _write(table: pa.Table, path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path, row_group_size=65_536)
    return path


def _coords_from_text_format(lat: np.ndarray, lon: np.ndarray):
    """The coordinates exactly as the text spells them (4 decimals)."""
    lat4 = np.char.mod("%.4f", lat)
    lon4 = np.char.mod("%.4f", lon)
    return lat4, lon4, lat4.astype(np.float64), lon4.astype(np.float64)


def gazetteer_pages(seed: int, out_dir: str, shards: int, rows: int = SHARD_ROWS):
    """Gazetteer corpus: ``fixtures.gen_pages_range`` at a seed-derived
    row offset. 64 distinct coordinates, 20 % of rows on the hot city.

    Returns (paths, lon, lat) with one coordinate per generated row.
    """
    offset = int(np.random.default_rng(seed).integers(0, 1 << 40))
    glon = np.array([g[1] for g in GAZETTEER])
    glat = np.array([g[2] for g in GAZETTEER])
    paths, lons, lats = [], [], []
    for s in range(shards):
        start = offset + s * rows
        t = fixtures.gen_pages_range(start, rows)
        paths.append(_write(t, os.path.join(out_dir, f"part-{s:05d}.parquet")))
        # ground truth from the generator's own rule, not from the text:
        # the place index of row i is 0 (hot) when i % 5 == 0, else i % 64
        i = np.arange(start, start + rows, dtype=np.int64)
        pidx = np.where(i % 5 == 0, 0, i % 64)
        _, _, la, lo = _coords_from_text_format(glat[pidx], glon[pidx])
        lons.append(lo)
        lats.append(la)
    return paths, np.concatenate(lons), np.concatenate(lats)


def continuous_pages(seed: int, out_dir: str, shards: int, rows: int):
    """Continuous-coordinate corpus: 80 % global-uniform points, 20 % a
    Gaussian cluster (sigma 1 degree) around the hot city. Every page
    spells its ``lat,lon`` to 4 decimals, so nearly every coordinate is
    distinct and the fused kernel takes its direct path.

    Returns (paths, lon, lat) as spelled in the text.
    """
    rng = np.random.default_rng(seed)
    hot_lon, hot_lat = GAZETTEER[0][1], GAZETTEER[0][2]
    paths, lons, lats = [], [], []
    for s in range(shards):
        n_hot = rows // 5
        lon = rng.uniform(-180.0, 180.0, rows)
        lat = rng.uniform(-85.0, 85.0, rows)
        lon[:n_hot] = np.clip(rng.normal(hot_lon, 1.0, n_hot), -179.9, 179.9)
        lat[:n_hot] = np.clip(rng.normal(hot_lat, 1.0, n_hot), -85.0, 85.0)
        perm = rng.permutation(rows)
        lat4, lon4, la, lo = _coords_from_text_format(lat[perm], lon[perm])
        i = np.arange(s * rows, (s + 1) * rows).astype(str)
        text = np.char.add(
            np.char.add(np.char.add("Report ", i), ": reading at "),
            np.char.add(np.char.add(np.char.add(lat4, ","), lon4), " today."),
        )
        url = np.char.add("https://grid.example/", i)
        t = pa.table(
            {
                "url": pa.array(url.tolist(), pa.string()),
                "text": pa.array(text.tolist(), pa.string()),
            }
        )
        paths.append(_write(t, os.path.join(out_dir, f"part-{s:05d}.parquet")))
        lons.append(lo)
        lats.append(la)
    return paths, np.concatenate(lons), np.concatenate(lats)


def paragraph_docs(
    seed: int,
    out_path: str,
    docs: int,
    max_paragraphs: int = 4,
    dup_frac: float = 0.3,
):
    """Multi-paragraph documents with a fixed duplicate fraction.

    Each document has 1..``max_paragraphs`` paragraphs. A paragraph is
    a copy of an earlier paragraph (from this or an earlier document)
    with probability ``dup_frac``, otherwise a fresh one. The returned
    ``para_ids`` is the known duplicate map: per document, the identity
    of each paragraph, where equal ids mean equal text.
    """
    rng = np.random.default_rng(seed)
    words = np.array(
        "rain wind river harbour market bridge tower field valley road "
        "station school garden forest island coast city village hill lake".split()
    )
    texts: list[str] = []  # paragraph text by identity
    para_ids: list[list[int]] = []
    for _ in range(docs):
        ids = []
        for _ in range(int(rng.integers(1, max_paragraphs + 1))):
            if texts and rng.random() < dup_frac:
                ids.append(int(rng.integers(0, len(texts))))
            else:
                pid = len(texts)
                body = " ".join(rng.choice(words, size=int(rng.integers(6, 14))))
                texts.append(f"P{pid}: {body}.")
                ids.append(pid)
        para_ids.append(ids)
    doc_text = ["\n".join(texts[p] for p in ids) for ids in para_ids]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(docs, dtype=np.int64)),
            "text": pa.array(doc_text, pa.string()),
        }
    )
    _write(t, out_path)
    return out_path, para_ids, texts
