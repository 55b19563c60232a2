"""Span recording around the engine's public callables.

``Tracer.installed()`` replaces each callable of ``_targets()`` with a
wrapper that records a span (name, start, end, parent) and stashes a
cheap reference to what the per-layer ratios need; the ratios are
computed after the pass, outside every span. Only this process is
traced; the engine's source is not edited.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np


def _rows(args, kwargs, out):
    return args[0].num_rows


def _coords(args, kwargs, out):
    return out["lon"], out["lat"], out["has_coords"]


def _knn_kth(args, kwargs, out):
    # (kth squared distance per query, the index cell size squared)
    return out[1][:, -1], args[0].s ** 2


def _pip(args, kwargs, out):
    return len(args[1]), len(out[0])


def _targets():
    from gdal_ray.geom.index import GridPolygonIndex
    from gdal_ray.pipelines import flagship
    from gdal_ray.stages import dedup, join, knn
    from gdal_ray.state import lineage

    # (owner, attribute, span name, observer)
    return [
        (flagship, "fused_geotag_pip", "flagship.fused", None),
        (flagship, "extract_coords", "geoparse.extract", _coords),
        (flagship, "encode_tiles", "tiles.encode", _rows),
        (flagship, "encode_cells", "cells.encode", _rows),
        (flagship, "merge_admin_partials", "flagship.combine", None),
        (flagship, "admin_rollup", "flagship.rollup", None),
        (knn.GridKNNFeatures, "__call__", "knn.features", None),
        (knn.GridKNN, "query", "knn.query", _knn_kth),
        (join.PIPJoiner, "__call__", "join.pip", None),
        (GridPolygonIndex, "query_points", "join.query_points", _pip),
        (lineage.ManifestStore, "commit", "lineage.commit", None),
        (lineage, "content_hash", "lineage.content_hash", None),
        (dedup, "dedup_paragraphs", "dedup.plan", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.stash: dict[str, list] = defaultdict(list)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                self.stash[name].append(observe(args, kwargs, out))
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, extra=()):
        """Wrap every target, plus ``extra`` (owner, attribute, span
        name, observer) entries; restore them on exit."""
        saved = []
        try:
            for owner, attr, name, observe in [*_targets(), *extra]:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, observe))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``total`` (summed durations of outermost
        spans of that name), ``self`` (durations minus child spans) and
        ``count``."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "count": 0}
        )
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            d = out[name]
            d["count"] += 1
            d["self"] += (t1 - t0) - child[i]
            if not self._has_ancestor(i, name):
                d["total"] += t1 - t0
        return dict(out)

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p is not None:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False


def layer_metrics(tr: Tracer, counts: dict) -> dict[str, float]:
    """Per-layer numbers of one kernel pass, from its spans and
    stashed outputs."""
    tot = tr.totals()

    def t(name, kind="total"):
        return tot.get(name, {}).get(kind, 0.0)

    def per_s(rows, secs):
        return rows / secs / 1e6 if secs > 0 else 0.0

    m = {}
    read_s = t("sources.read")
    m["sources.read_s"] = read_s
    m["sources.read_mb_per_s"] = counts.get("read_bytes", 0) / 1e6 / read_s if read_s else 0.0

    coords = tr.stash.get("geoparse.extract", [])
    n_parsed = sum(len(c[0]) for c in coords)
    n_match = sum(int(np.count_nonzero(c[2].to_numpy(zero_copy_only=False))) for c in coords)
    m["geoparse.extract_s"] = t("geoparse.extract")
    m["geoparse.mrows_per_s"] = per_s(n_parsed, m["geoparse.extract_s"])
    m["geoparse.match_frac"] = n_match / n_parsed if n_parsed else 0.0

    m["flagship.fused_s"] = t("flagship.fused", "self")
    # distinct coordinates per fused batch over its rows, the quantity
    # that selects the dictionary or the direct path
    fused = t("flagship.fused")
    if fused and n_parsed:
        distinct = sum(
            len(np.unique(np.stack([c[0].to_numpy(), c[1].to_numpy()], axis=1), axis=0))
            for c in coords
        )
        m["flagship.unique_ratio"] = distinct / n_parsed
    else:
        m["flagship.unique_ratio"] = 0.0
    m["flagship.combine_s"] = t("flagship.combine")
    m["flagship.rollup_s"] = t("flagship.rollup")

    for layer, span in (("tiles", "tiles.encode"), ("cells", "cells.encode")):
        secs = t(span)
        m[f"{layer}.encode_s"] = secs
        m[f"{layer}.mrows_per_s"] = per_s(sum(tr.stash.get(span, [])), secs)

    kth = tr.stash.get("knn.query", [])
    n_q = sum(len(k) for k, _ in kth)
    m["knn.query_s"] = t("knn.query")
    m["knn.mrows_per_s"] = per_s(n_q, m["knn.query_s"])
    m["knn.fallback_frac"] = (
        sum(int((k > s2).sum()) for k, s2 in kth) / n_q if n_q else 0.0
    )

    probes = tr.stash.get("join.query_points", [])
    n_pts = sum(p for p, _ in probes)
    pip_s = t("join.pip") + _outside(tr, "join.query_points", "join.pip")
    m["join.pip_s"] = pip_s
    m["join.mrows_per_s"] = per_s(n_pts, pip_s)
    m["join.matches_per_row"] = sum(x for _, x in probes) / n_pts if n_pts else 0.0
    return m


def _outside(tr: Tracer, name: str, outer: str) -> float:
    """Summed duration of ``name`` spans not nested in an ``outer`` span."""
    total = 0.0
    for i, (n, t0, t1, _) in enumerate(tr.spans):
        if n == name and not tr._has_ancestor(i, outer):
            total += t1 - t0
    return total
