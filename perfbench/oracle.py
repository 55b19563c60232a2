"""Oracles computed without the engine: numpy box containment, a
scalar tile formula and the generator's duplicate map."""

from __future__ import annotations

import math

import numpy as np

from gdal_ray import fixtures

_ORIGIN_SHIFT = 2.0 * math.pi * 6378137.0 / 2.0


def admin_counts(lon: np.ndarray, lat: np.ndarray) -> dict[int, int]:
    """Pages per admin box, boundary-inclusive (a point on a shared edge
    counts for both boxes). Duplicate coordinates are counted once per
    distinct value and weighted, so gazetteer corpora stay cheap."""
    pts, counts = np.unique(np.stack([lon, lat], axis=1), axis=0, return_counts=True)
    px, py = pts[:, 0], pts[:, 1]
    out = {}
    for admin_id, (x0, y0, x1, y1) in enumerate(fixtures.boundary_boxes()):
        inside = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
        n = int(counts[inside].sum())
        if n:
            out[admin_id] = n
    return out


def tile_x(lon: float, zoom: int) -> int:
    """XYZ tile column of a longitude: the GlobalMercator rule
    ``ceil(px / 256) - 1`` written out for one scalar."""
    mx = lon * _ORIGIN_SHIFT / 180.0
    res = 2.0 * math.pi * 6378137.0 / 256 / 2.0**zoom
    px = (mx + _ORIGIN_SHIFT) / res
    return int(math.ceil(px / 256)) - 1


def partition_keys(lon: np.ndarray, zoom: int = 7) -> set[int]:
    return {tile_x(float(x), zoom) for x in np.unique(lon)}


def dedup_survivors(para_ids: list[list[int]], texts: list[str]) -> dict[int, str]:
    """First-occurrence survivors in (doc id, paragraph index) order,
    from the generator's known duplicate map. Documents left with no
    paragraph drop out."""
    seen: set[int] = set()
    out = {}
    for doc_id, ids in enumerate(para_ids):
        keep = []
        for p in ids:
            if p not in seen:
                seen.add(p)
                keep.append(texts[p])
        if keep:
            out[doc_id] = "\n".join(keep)
    return out
