"""Distributed Bloom filter — the membership pre-filter a 100-TB
training pipeline needs for "seen URL" suppression and join-shuffle
reduction (reference has no sketches, SURVEY.md §2.5; the classic
Bloom 1970 / Kirsch-Mitzenmacher double-hashing construction).

Shape (the mergeable-partial pattern of stages/sketch.py):

- BUILD: one per-batch partial bitmap, OR-folded — bitwise OR is
  associative/commutative so any merge grouping yields the identical
  filter. The fold is O(blocks × m/8) bytes to the driver; size ``m``
  from (capacity, fpr) so the final bitmap is broadcastable
  (1e9 keys @ 1% fpr ≈ 1.2 GiB — ``ray.put`` once, zero-copy read in
  every probe task). For sparse batches (rows·k ≪ m/64) a set-index
  emission would shuffle less; the bitmap fold keeps the driver
  memory bound at m/8 regardless of row count.
- PROBE: broadcast the words via ``ray.put``; membership is a
  vectorized AND of k bit-tests per row inside ``map_batches``.

Guarantees: NO false negatives (every inserted key reports present);
false positives at ~``fpr``. Therefore:

- ``bloom_prefilter`` (possible members) is a lossless semi-join
  accelerator: follow with the exact join on the surviving ~fpr
  superset.
- ``bloom_anti`` (definite non-members) is APPROXIMATE: it never
  leaks a true member, but drops ~fpr of true non-members — the
  documented trade for a shuffle-free anti join at corpus scale; use
  stages/join.py semi/anti for exact semantics.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from gdal_ray.stages.sketch import _hash64, hash_any


class BloomFilter:
    """Packed-word Bloom filter with Kirsch-Mitzenmacher double
    hashing: probe i uses (h1 + i·h2) mod m — two 64-bit mixes give
    k independent-enough probes (Kirsch & Mitzenmacher 2006)."""

    def __init__(self, capacity: int, fpr: float = 0.01,
                 words: np.ndarray | None = None) -> None:
        if not 0.0 < fpr < 1.0:
            raise ValueError(f"fpr must be in (0,1), got {fpr}")
        ln2 = math.log(2.0)
        m = max(64, int(math.ceil(-capacity * math.log(fpr) / (ln2 * ln2))))
        self.m = ((m + 63) // 64) * 64  # whole words
        self.k = max(1, round((self.m / max(capacity, 1)) * ln2))
        self.capacity = capacity
        self.fpr = fpr
        self.words = (
            words if words is not None
            else np.zeros(self.m // 64, dtype=np.uint64)
        )

    # -- hashing ----------------------------------------------------------
    def _probes(self, h: np.ndarray) -> np.ndarray:
        """(k, n) bit positions from n 64-bit hashes."""
        h1 = h
        h2 = _hash64(h, seed=0x5BD1) | np.uint64(1)  # odd stride
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        with np.errstate(over="ignore"):
            return (h1[None, :] + i * h2[None, :]) % np.uint64(self.m)

    def add_hashes(self, h: np.ndarray) -> "BloomFilter":
        pos = self._probes(h).ravel()
        np.bitwise_or.at(
            self.words, (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )
        return self

    def contains_hashes(self, h: np.ndarray) -> np.ndarray:
        pos = self._probes(h)
        bits = (
            self.words[(pos >> np.uint64(6)).astype(np.int64)]
            >> (pos & np.uint64(63))
        ) & np.uint64(1)
        return bits.all(axis=0)

    # -- merge / io ---------------------------------------------------------
    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if other.m != self.m or other.k != self.k:
            raise ValueError("incompatible Bloom parameters")
        self.words |= other.words
        return self

    def serialize(self) -> bytes:
        return self.words.tobytes()

    @classmethod
    def deserialize(cls, data: bytes, capacity: int,
                    fpr: float = 0.01) -> "BloomFilter":
        return cls(capacity, fpr,
                   words=np.frombuffer(data, dtype=np.uint64).copy())


def build_bloom(ds, column: str, capacity: int, fpr: float = 0.01,
                seed: int = 0) -> BloomFilter:
    """Distributed build: per-batch partial bitmap → driver OR-fold
    (associative — identical result at any parallelism)."""

    def partial(batch: pa.Table) -> pa.Table:
        b = BloomFilter(capacity, fpr)
        b.add_hashes(hash_any(batch[column], seed))
        return pa.table({"bloom": pa.array([b.serialize()], pa.binary())})

    acc = BloomFilter(capacity, fpr)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        acc.merge(BloomFilter.deserialize(row["bloom"], capacity, fpr))
    return acc


def _probe_stage(column: str, bloom_ref, capacity: int, fpr: float,
                 seed: int, keep_members: bool):
    import ray

    def probe(batch: pa.Table) -> pa.Table:
        data = ray.get(bloom_ref)
        b = BloomFilter.deserialize(data, capacity, fpr)
        member = b.contains_hashes(hash_any(batch[column], seed))
        return batch.filter(pa.array(member if keep_members else ~member))

    return probe


def bloom_prefilter(ds, column: str, bloom: BloomFilter, seed: int = 0):
    """Keep POSSIBLE members (lossless: every true member survives).
    The filter ships once via ``ray.put``; each task reads it
    zero-copy from the object store."""
    import ray

    ref = ray.put(bloom.serialize())
    return ds.map_batches(
        _probe_stage(column, ref, bloom.capacity, bloom.fpr, seed, True),
        batch_format="pyarrow",
    )


def bloom_anti(ds, column: str, bloom: BloomFilter, seed: int = 0):
    """Keep DEFINITE non-members (approximate anti join: never leaks
    a member; drops ~fpr of true non-members — see module note)."""
    import ray

    ref = ray.put(bloom.serialize())
    return ds.map_batches(
        _probe_stage(column, ref, bloom.capacity, bloom.fpr, seed, False),
        batch_format="pyarrow",
    )
