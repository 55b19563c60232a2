"""Mergeable sketches: HyperLogLog + deterministic reservoir sampling.

The reference has no sketches (SURVEY.md §2.5 "no sketches"); at
corpus scale they are required engine citizens (guide: "emit one
serialized sketch per batch and merge"). Both operators follow the
mergeable-partial pattern: one small state object per batch, a tiny
final merge — no all-to-all of raw rows.

- ``HLL``: classic HyperLogLog (2^p registers, 64-bit hash, bias
  correction per Flajolet et al. 2007); partial = the register array
  (numpy max-merge).
- ``reservoir_sample``: EXACT uniform n-of-N sampling, distributed
  and deterministic: assign each row the 64-bit hash of a seeded key,
  take the global top-n by (hash, tiebreak) — a fixed-size
  distributed top-k instead of a sequential reservoir (same uniform
  distribution over permutations of distinct keys, reproducible
  across runs and parallelism; cf. the sampling-over-joins literature
  in PAPERS.md where key-hash sampling composes through joins).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_PRIME = np.uint64(0x9E3779B97F4A7C15)


def _hash64(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Deterministic 64-bit mix (splitmix-style) of int64/uint64 input."""
    with np.errstate(over="ignore"):
        x = values.astype(np.uint64) + np.uint64(seed) * _PRIME
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


_FNV = 14695981039346656037
_P = 1099511628211
_PINV = pow(_P, -1, 1 << 64)  # P is odd, so it has an inverse mod 2**64
_CHUNK = 1 << 20  # bytes per vectorised chunk of the string hash


def _powers(base: int, n: int) -> np.ndarray:
    """[1, base, base**2, ..., base**(n-1)] mod 2**64."""
    out = np.full(n, base, dtype=np.uint64)
    out[:1] = 1
    return np.cumprod(out, out=out)


def _poly_sums(seg: np.ndarray, s: np.ndarray, e: np.ndarray):
    """Per row (bytes ``seg[s:e]``): Σ b_j·P^(e-1-j) mod 2**64, and the
    table of P powers up to len(seg). One cumsum of b_j·P^-j per chunk;
    a row's sum is its cumsum difference times P^(e-1)."""
    pw = _powers(_P, len(seg) + 1)
    c = np.zeros(len(seg) + 1, dtype=np.uint64)
    np.cumsum(seg.astype(np.uint64) * _powers(_PINV, len(seg)), out=c[1:])
    return (c[e] - c[s]) * pw[np.maximum(e - 1, 0)], pw


def _bytes_hash(arr: pa.Array, h0: np.uint64) -> np.ndarray:
    """h0·P^n + Σ b_j·P^(n-1-j) mod 2**64 per string/binary row (a null
    is the empty row), over byte chunks of at most ``_CHUNK``; a longer
    row takes its pieces in turn (Horner)."""
    n, bufs = len(arr), arr.buffers()
    wide = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    off = np.frombuffer(bufs[1], np.int64 if wide else np.int32)[
        arr.offset:arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    size = np.diff(off)
    if arr.null_count:
        size[~arr.is_valid().to_numpy(zero_copy_only=False)] = 0
    out = np.empty(n, dtype=np.uint64)
    r = 0
    while r < n:
        base = off[r]
        r1 = int(np.searchsorted(off, base + _CHUNK, side="right")) - 1
        if r1 > r:  # rows r..r1-1 fit in one chunk
            s = off[r:r1] - base
            e = s + size[r:r1]
            d, pw = _poly_sums(data[base:off[r1]], s, e)
            out[r:r1] = h0 * pw[e - s] + d
            r = r1
            continue
        h = h0  # a row longer than a chunk
        for a in range(base, base + size[r], _CHUNK):
            seg = data[a:min(a + _CHUNK, base + size[r])]
            d, pw = _poly_sums(seg, np.zeros(1, np.int64), np.full(1, len(seg)))
            h = h * pw[-1] + d[0]
        out[r] = h
        r += 1
    return out


def hash_any(arr: pa.ChunkedArray | pa.Array, seed: int = 0) -> np.ndarray:
    """64-bit hashes for an Arrow column: integers by value, floats by
    value (-0.0 as 0.0, every NaN as one), booleans as 0/1, dates,
    times, timestamps and durations by their integer view, strings and
    binary by a polynomial over their bytes. A null hashes as the empty
    string."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()
    t = arr.type
    h0 = np.uint64((_FNV + seed) % (1 << 64))
    if pa.types.is_fixed_size_binary(t) or pa.types.is_null(t):
        arr, t = arr.cast(pa.binary()), pa.binary()
    elif pa.types.is_boolean(t):
        arr, t = arr.cast(pa.int8()), pa.int8()
    elif (pa.types.is_date(t) or pa.types.is_time(t)
          or pa.types.is_timestamp(t) or pa.types.is_duration(t)):
        t = pa.int64() if t.bit_width == 64 else pa.int32()
        arr = arr.view(t)
    with np.errstate(over="ignore"):
        if (pa.types.is_string(t) or pa.types.is_large_string(t)
                or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
            return _hash64(_bytes_hash(arr, h0), seed)
        if pa.types.is_floating(t):
            f = arr.cast(pa.float64()).fill_null(0).to_numpy() + 0.0
            vals = np.where(np.isnan(f), np.nan, f).view(np.uint64)
        elif pa.types.is_integer(t):
            vals = arr.fill_null(0).to_numpy()
        else:
            raise TypeError(f"hash_any: no hash for type {t}")
        out = _hash64(vals, seed)
        if arr.null_count:
            null = ~arr.is_valid().to_numpy(zero_copy_only=False)
            out[null] = _hash64(np.full(1, h0), seed)[0]
        return out


class HLL:
    """HyperLogLog with 2^p registers."""

    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> "HLL":
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | (np.uint64(1) << np.uint64(self.p - 1))
        # rank = leading zeros of the remaining bits + 1
        lz = np.zeros(len(h), dtype=np.uint8)
        cur = rest.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            mask = cur >> np.uint64(64 - shift) == 0
            lz = np.where(mask, lz + shift, lz)
            cur = np.where(mask, cur << np.uint64(shift), cur)
        rank = (lz + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)
        return self

    def merge(self, other: "HLL") -> "HLL":
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = self.m
        alpha = 0.7213 / (1.0 + 1.079 / m)
        inv = np.power(2.0, -self.registers.astype(np.float64))
        e = alpha * m * m / inv.sum()
        if e <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                e = m * np.log(m / zeros)
        return float(e)

    def serialize(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def deserialize(cls, data: bytes, p: int = 12) -> "HLL":
        h = cls(p)
        h.registers = np.frombuffer(data, dtype=np.uint8).copy()
        return h


def approx_count_distinct(ds, column: str, p: int = 12, seed: int = 0) -> float:
    """Distributed HLL: one serialized sketch per batch → driver merge
    of the tiny register arrays."""

    def sketch(batch: pa.Table) -> pa.Table:
        h = HLL(p).add_hashes(hash_any(batch[column], seed))
        return pa.table({"sketch": pa.array([h.serialize()], pa.binary())})

    parts = ds.map_batches(sketch, batch_format="pyarrow").take_all()
    acc = HLL(p)
    for row in parts:
        acc.merge(HLL.deserialize(row["sketch"], p))
    return acc.estimate()


def reservoir_sample(ds, n: int, key_col: str, seed: int = 42):
    """Exact uniform sample of n rows, deterministic and
    parallelism-independent: global top-n by seeded key hash.

    Shape: per-batch local top-n (cheap argpartition) → single small
    merge; only n rows per batch ever move."""

    def local(batch: pa.Table) -> pa.Table:
        h = hash_any(batch[key_col], seed)
        k = min(n, len(h))
        if k == 0:
            return batch.append_column("__rs", pa.array([], pa.int64()))
        part = np.argpartition(h, k - 1)[:k]
        out = batch.take(pa.array(part))
        # shift uint64 into signed order (h ^ 2^63) so the int64 sort
        # in the global merge ranks identically to the local unsigned
        # top-n — one ordering end-to-end, batch-size independent
        key = (h[part] ^ np.uint64(1 << 63)).astype(np.int64)
        return out.append_column("__rs", pa.array(key))

    local_ds = ds.map_batches(local, batch_format="pyarrow")
    merged = local_ds.sort("__rs").limit(n)
    return merged.drop_columns(["__rs"])


# ---------------------------------------------------------------------------
# t-digest (mergeable approximate quantiles)


class TDigest:
    """Merging t-digest (Dunning & Ertl 2019, the MergingDigest
    variant): centroids kept sorted by mean; a merge pass enforces the
    scale-function size bound k1 (asin) so accuracy concentrates at
    the tails. The APPROXIMATE scale path for quantiles over
    continuous columns — the exact path is the value-histogram partial
    in queries_relational.q_stats_agg, which degrades to O(rows)
    exchange when every value is distinct."""

    def __init__(self, delta: float = 200.0,
                 means: np.ndarray | None = None,
                 weights: np.ndarray | None = None) -> None:
        self.delta = float(delta)
        self.means = means if means is not None else np.empty(0, np.float64)
        self.weights = (weights if weights is not None
                        else np.empty(0, np.float64))

    # -- scale function k1 and its inverse --------------------------------
    def _k(self, q: np.ndarray) -> np.ndarray:
        return self.delta / (2.0 * np.pi) * np.arcsin(
            np.clip(2.0 * q - 1.0, -1.0, 1.0))

    def add(self, values: np.ndarray,
            weights: np.ndarray | None = None) -> "TDigest":
        v = np.asarray(values, np.float64)
        v = v[np.isfinite(v)]
        if len(v) == 0:
            return self
        w = (np.ones(len(v)) if weights is None
             else np.asarray(weights, np.float64))
        self.means = np.concatenate([self.means, v])
        self.weights = np.concatenate([self.weights, w])
        self._compress()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        self.means = np.concatenate([self.means, other.means])
        self.weights = np.concatenate([self.weights, other.weights])
        self._compress()
        return self

    def _compress(self) -> None:
        """Fully vectorized compression: sort by mean, bucket each
        point by floor(k1(q_left)) and fold each bucket to its
        weighted mean (reduceat) — no per-centroid Python loop. k1's
        range is ±delta/4, so ≤ delta/2 centroids survive; like any
        t-digest, the result depends (within the accuracy bound) on
        merge grouping."""
        if len(self.means) <= 1:
            return
        order = np.argsort(self.means, kind="mergesort")
        m, w = self.means[order], self.weights[order]
        total = w.sum()
        q_left = (np.cumsum(w) - w) / total
        b = np.floor(self._k(q_left)).astype(np.int64)
        new = np.empty(len(b), dtype=bool)
        new[0] = True
        new[1:] = b[1:] != b[:-1]
        idx = np.flatnonzero(new)
        wsum = np.add.reduceat(w, idx)
        self.means = np.add.reduceat(m * w, idx) / wsum
        self.weights = wsum

    def quantile(self, q: float) -> float:
        """Interpolated quantile (centroids treated as midpoints)."""
        if len(self.means) == 0:
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        w = self.weights
        total = w.sum()
        target = q * total
        # cumulative weight at each centroid midpoint
        cum = np.cumsum(w) - w / 2.0
        if target <= cum[0]:
            return float(self.means[0])
        if target >= cum[-1]:
            return float(self.means[-1])
        i = np.searchsorted(cum, target) - 1
        frac = (target - cum[i]) / (cum[i + 1] - cum[i])
        return float(self.means[i] + frac * (self.means[i + 1] - self.means[i]))

    def serialize(self) -> bytes:
        return np.concatenate([self.means, self.weights]).tobytes()

    @classmethod
    def deserialize(cls, data: bytes, delta: float = 200.0) -> "TDigest":
        arr = np.frombuffer(data, np.float64)
        n = len(arr) // 2
        return cls(delta, arr[:n].copy(), arr[n:].copy())


def approx_quantiles(ds, column: str, qs: list[float],
                     delta: float = 200.0) -> list[float]:
    """Distributed approximate quantiles: one t-digest per batch →
    driver merge of O(delta)-centroid partials (the HLL shape — no
    all-to-all, no row exchange)."""

    def sketch(batch: pa.Table) -> pa.Table:
        t = TDigest(delta).add(
            batch[column].to_numpy(zero_copy_only=False))
        return pa.table({"td": pa.array([t.serialize()], pa.binary())})

    acc = TDigest(delta)
    for row in ds.map_batches(sketch, batch_format="pyarrow").take_all():
        acc.merge(TDigest.deserialize(row["td"], delta))
    return [acc.quantile(q) for q in qs]
