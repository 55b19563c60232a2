"""Vectorized geometry predicates (pure numpy).

Point-in-polygon follows the even-odd rule — the same rule GDAL's
rasterizer uses for polygon interiors (alg/llrasterize.cpp scanline
even-odd fill) — with explicit boundary inclusion so the predicate is
``intersects`` (a point on a shared edge matches BOTH neighboring
polygons, the FIXTURES.md §3 disambiguation; GEOS Intersects
semantics per ogr/ogrgeometry.cpp:569).

One kernel answers every point-in-polygon question:
``PolygonEdges.contains`` tests (point, polygon) probe pairs against
one or more stacked polygons. ``contains_points`` is its one-polygon
case and ``geom.index.GridPolygonIndex.query_points`` its
many-polygon case. On the first call with more than one probe, the
y-range of a polygon of more than 16 edges is cut into slabs, and an
edge is indexed in every slab its y-span meets, so a probe reads only
the edges of its own slab: an edge whose y-span misses the point can
neither touch it nor cross its ray, and the answer is the one over all
edges. The (probe, edge) work runs in chunks of at most ``CHUNK``
elements, never as one edges × points matrix over all points.
"""

from __future__ import annotations

import numpy as np

# (probe, edge) elements per kernel call: each float64 temporary of a
# call stays at 2 MB
CHUNK = 1 << 18


def expand(first: np.ndarray, count: np.ndarray):
    """The ranges ``[first[k], first[k] + count[k])`` flattened →
    ``(k, value)`` per element."""
    k = np.repeat(np.arange(len(count)), count)
    v = np.repeat(first - (np.cumsum(count) - count), count)
    v += np.arange(len(k))
    return k, v


def ragged(first: np.ndarray, count: np.ndarray):
    """``expand`` in chunks of at most ``CHUNK`` elements: yields
    ``(k, value)``, k non-decreasing within and across chunks."""
    ends = np.cumsum(count)
    starts = ends - count
    shift = first - starts
    total = int(ends[-1]) if len(ends) else 0
    for a in range(0, total, CHUNK):
        b = min(a + CHUNK, total)
        # the rows meeting [a, b), each with its share of the chunk
        r0, r1 = np.searchsorted(ends, [a, b - 1], side="right")
        rows = np.arange(r0, r1 + 1)
        k = np.repeat(rows, np.minimum(ends[rows], b) - np.maximum(starts[rows], a))
        yield k, np.arange(a, b) + shift[k]


def edge_terms(px, py, x1, y1, x2, y2):
    """Element-wise over (point, edge) pairs: the point lies on the
    edge; the edge crosses the point's +x ray."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # on-edge: zero cross product + inside the segment envelope
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        on = (
            (cross == 0.0)
            & (px >= np.minimum(x1, x2))
            & (px <= np.maximum(x1, x2))
            & (py >= np.minimum(y1, y2))
            & (py <= np.maximum(y1, y2))
        )
        # half-open in y, so a ray through a vertex counts it once
        straddles = (y1 > py) != (y2 > py)
        xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
    return on, straddles & (px < xint)


def _slab(y, y0, h, nslab):
    """Slab of ``y``: monotone in y, so an edge stored in the slabs of
    its two end y's and all between covers the slab of every y it
    spans."""
    return np.minimum(np.maximum(np.floor((y - y0) / h), 0),
                      nslab - 1).astype(np.int64)


class PolygonEdges:
    """Edge arrays of one or more polygons (all rings, even-odd).

    ``PolygonEdges(rings)`` holds one polygon and
    ``PolygonEdges.stack(polygons)`` several, polygon p having the
    rings ``polygons[p]``. Built once (per broadcast polygon side, in an
    actor's ``__init__``), probed per batch. Per polygon: its edges
    ``edge_off[p]:edge_off[p + 1]`` of ``x1, y1, x2, y2``, ``boxes``
    (envelope), ``ylim`` (the y-range a point must lie in to meet an
    edge), and ``nslab`` slabs of height ``h`` from ``y0``, the first at
    ``slab0``; slab g holds the edges ``slab_edge[slab_off[g]:slab_off[g
    + 1]]``. Until the first call with more than one probe every polygon
    is one slab of all its edges: a single probe reads each edge once,
    which no slab layout beats, and the layout costs a sort.
    """

    __slots__ = ("x1", "y1", "x2", "y2", "edge_off", "boxes", "ylim",
                 "y0", "h", "nslab", "slab0", "slab_off", "slab_edge",
                 "sliced")

    def __init__(self, rings: list[np.ndarray]):
        self._build([rings])

    @classmethod
    def stack(cls, polygons: list[list[np.ndarray]]) -> "PolygonEdges":
        """Several polygons as one table (polygon p = polygons[p])."""
        out = cls.__new__(cls)
        out._build(polygons)
        return out

    @property
    def bounds(self) -> tuple:
        """(minx, miny, maxx, maxy) of polygon 0; (inf, inf, -inf,
        -inf) when it has no edge."""
        return tuple(self.boxes[0])

    def _build(self, polygons):
        xs1, ys1, xs2, ys2, sizes = [], [], [], [], []
        for rings in polygons:
            sizes.append(0)
            for ring in rings:
                r = np.asarray(ring, dtype=np.float64)
                if len(r) < 2:
                    continue
                # ensure closure (GDAL auto-closes rings on import)
                if (r[0] != r[-1]).any():
                    r = np.vstack([r, r[:1]])
                xs1.append(r[:-1, 0])
                ys1.append(r[:-1, 1])
                xs2.append(r[1:, 0])
                ys2.append(r[1:, 1])
                sizes[-1] += len(r) - 1
        self.x1, self.y1, self.x2, self.y2 = (
            np.concatenate(v) if v else np.empty(0)
            for v in (xs1, ys1, xs2, ys2))
        self.edge_off = np.cumsum([0] + sizes)
        # a closed ring's first points are all its vertices; NaN
        # propagates, so a polygon with a NaN vertex has a NaN box
        self.boxes = np.empty((len(sizes), 4))
        self.boxes[:] = (np.inf, np.inf, -np.inf, -np.inf)
        p = np.flatnonzero(sizes)
        if len(p):
            at = self.edge_off[p]
            self.boxes[p, 0] = np.minimum.reduceat(self.x1, at)
            self.boxes[p, 1] = np.minimum.reduceat(self.y1, at)
            self.boxes[p, 2] = np.maximum.reduceat(self.x1, at)
            self.boxes[p, 3] = np.maximum.reduceat(self.y1, at)
        self._unsliced()

    def _unsliced(self):
        """Every polygon one slab of all its edges."""
        n = len(self.boxes)
        # a non-finite y never meets an edge; a polygon with a
        # non-finite vertex is tested whole
        big = np.finfo(np.float64).max
        self.ylim = self.boxes[:, 1::2].copy()
        self.ylim[~np.isfinite(self.boxes).all(axis=1)] = (-big, big)
        self.y0 = np.zeros(n)
        self.h = np.full(n, np.inf)
        self.nslab = np.ones(n, dtype=np.int64)
        self.slab0 = np.arange(n)
        self.slab_off = self.edge_off
        self.slab_edge = np.arange(len(self.x1))
        self.sliced = False

    def _slice(self):
        """Cut the y-range of each polygon of more than 16 edges into
        slabs, and index each edge in every slab its y-span meets."""
        # runs of whole polygons of about CHUNK // 4 edges each, so the
        # build's temporaries stay bounded; a run's slabs follow the
        # previous run's
        first = np.searchsorted(self.edge_off, np.arange(
            0, len(self.x1), CHUNK // 4), side="right") - 1
        runs = np.r_[0, np.unique(first[first > 0]), len(self.boxes)]
        self.nslab, self.y0, self.h, count, self.slab_edge = (
            np.concatenate(c) for c in zip(*(
                self._slab_run(pa, pb) for pa, pb in zip(runs[:-1], runs[1:]))))
        self.slab0 = np.cumsum(self.nslab) - self.nslab
        self.slab_off = np.r_[0, np.cumsum(count)]
        self.sliced = True

    def _slab_run(self, pa: int, pb: int):
        """Slab layout of polygons ``pa:pb`` → per polygon ``nslab``,
        ``y0``, ``h``; per slab its edge count; the slabs' edges."""
        a = self.edge_off[pa]
        n = np.diff(self.edge_off[pa:pb + 1])
        pe = np.repeat(np.arange(len(n)), n)  # polygon of each edge
        y1, y2 = self.y1[a:a + len(pe)], self.y2[a:a + len(pe)]
        box = self.boxes[pa:pb]
        with np.errstate(invalid="ignore"):  # non-finite vertices
            height = box[:, 3] - box[:, 1]
            span = np.bincount(pe, np.abs(y2 - y1), len(n))
        cut = (n > 16) & np.isfinite(height) & (height > 0)
        # up to one slab per two edges, as long as an edge is indexed in
        # about 4 slabs or fewer on average (a closed ring's y-spans sum
        # to at least twice its height)
        nslab = np.ones(len(n), dtype=np.int64)
        nslab[cut] = np.maximum(
            1, np.minimum(n[cut] // 2, 3 * n[cut] * (height[cut] / span[cut])))
        cut = nslab > 1
        y0 = np.where(cut, box[:, 1], 0.0)
        h = np.where(cut, height / nslab, np.inf)
        # each edge's first and last slab
        s0 = (np.cumsum(nslab) - nslab)[pe]
        s1 = s0.copy()
        e = np.flatnonzero(cut[pe])
        q = pe[e]
        s0[e] += _slab(np.minimum(y1[e], y2[e]), y0[q], h[q], nslab[q])
        s1[e] += _slab(np.maximum(y1[e], y2[e]), y0[q], h[q], nslab[q])
        edge, slab = expand(s0, s1 - s0 + 1)
        edge = edge[np.argsort(slab, kind="stable")] + a
        # int32 edge numbers while they fit
        small = np.int32 if len(self.x1) < 2**31 else np.int64
        return (nslab, y0, h, np.bincount(slab, minlength=int(nslab.sum())),
                edge.astype(small))

    def contains(self, px, py, poly) -> np.ndarray:
        """Boundary-inclusive even-odd test of point (px[i], py[i]) in
        polygon poly[i], for every i."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        poly = np.asarray(poly, dtype=np.int64)
        if len(px) > 1 and not self.sliced:
            self._slice()
        lim = self.ylim[poly]
        i = np.flatnonzero((py >= lim[:, 0]) & (py <= lim[:, 1]))
        q, x, y = poly[i], px[i], py[i]
        g = self.slab0[q] + _slab(y, self.y0[q], self.h[q], self.nslab[q])
        lo = self.slab_off[g]
        on = np.zeros(len(i), dtype=bool)
        odd = np.zeros(len(i), dtype=bool)
        for k, s in ragged(lo, self.slab_off[g + 1] - lo):
            a, b = k[0], k[-1] + 1
            e = self.slab_edge[s]
            hit, cr = edge_terms(x[k], y[k], self.x1[e], self.y1[e],
                                 self.x2[e], self.y2[e])
            on[a:b] |= np.bincount(k - a, hit, b - a) > 0
            odd[a:b] ^= np.bincount(k - a, cr, b - a) % 2 == 1
        out = np.zeros(len(px), dtype=bool)
        out[i] = on | odd
        return out

    def contains_points(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Boundary-inclusive even-odd test of every point against the
        one polygon."""
        return self.contains(px, py, np.zeros(len(px), dtype=np.int64))
