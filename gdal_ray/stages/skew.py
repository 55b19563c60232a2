"""Hot-key detection + salting (SURVEY.md §7.2 step 6 / §4 skew row).

The reference's parallelism shards uniform tile rectangles and has no
skew handling (apps/gdalalg_raster_tile.cpp:3921); at corpus scale,
dense urban cells (the hot-city fixture) make single groupby keys
arbitrarily large. The pattern:

1. ``hot_keys`` — cheap sampled histogram (count per key on a
   fraction) → keys above threshold;
2. ``add_salt`` — hot keys get a salt ``0..n_salt-1`` derived
   deterministically from a sibling column's hash (NOT random: results
   must be reproducible across runs/parallelism);
3. aggregate on (key, salt) — bounded group size — then a second tiny
   groupby on key merges the salted partials.

``salted_count`` composes all three for the count case.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd


def hot_keys(ds, key: str, threshold_frac: float = 0.01,
             sample_frac: float = 0.05, seed: int = 42) -> set:
    """Keys whose sampled share exceeds ``threshold_frac``."""
    from ray.data.aggregate import Count

    sampled = ds.select_columns([key])
    if sample_frac < 1.0:
        sampled = sampled.random_sample(sample_frac, seed=seed)
    counts = sampled.groupby(key).aggregate(Count(alias_name="n")).to_pandas()
    total = counts["n"].sum()
    if total == 0:
        return set()
    return set(counts.loc[counts["n"] / total > threshold_frac, key])


def add_salt(ds, key: str, hot: set, n_salt: int = 16,
             hash_col: str | None = None):
    """Append a ``salt`` column: 0 for cold keys; for hot keys a
    deterministic value in [0, n_salt) hashed from ``hash_col`` (or a
    block-stable row index)."""
    hot_list = pa.array(list(hot))

    def salt(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        is_hot = pc.is_in(batch[key], value_set=hot_list).to_numpy(
            zero_copy_only=False
        )
        if hash_col is not None:
            hv = batch[hash_col].to_numpy(zero_copy_only=False)
            hv = np.abs(hv.astype(np.int64, copy=False) * np.int64(2654435761))
        else:
            hv = np.arange(len(batch), dtype=np.int64)
        s = np.where(is_hot, hv % n_salt, 0).astype(np.int32)
        return batch.append_column("salt", pa.array(s))

    return ds.map_batches(salt, batch_format="pyarrow")


def salted_count(ds, key: str, threshold_frac: float = 0.01,
                 n_salt: int = 16):
    """Count per key with hot-key salting: groupby (key, salt) →
    groupby key (the second shuffle moves ≤ n_salt rows per hot key)."""
    from ray.data.aggregate import Count, Sum

    hot = hot_keys(ds, key, threshold_frac)
    salted = add_salt(ds, key, hot, n_salt)
    part = salted.groupby([key, "salt"]).aggregate(
        Count(alias_name="n_part")
    )
    return part.groupby(key).aggregate(
        Sum("n_part", alias_name="n")
    )
