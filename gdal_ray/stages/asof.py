"""As-of join — the time-series lookup the reference lacks
(SURVEY.md §2.4 last row: "no as-of joins in GDAL"; a required custom
operator for the training-pipeline surface).

Semantics (ASOF JOIN ... MATCH backward): for each left row, the
single right row with the same key and the greatest right-ts ≤
left-ts. Shape: co-partition both sides by key
(``stages.partition.map_partitions``), then one
``pandas.merge_asof(by=key)`` per partition — no raw actors.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data as rd

from gdal_ray.stages.partition import map_partitions


def range_join(
    left: rd.Dataset,
    intervals,
    value_col: str,
    lo_col: str = "lo",
    hi_col: str = "hi",
    interval_cols: list[str] | None = None,
    closed: str = "both",
):
    """Interval join: each left row matched to every interval with
    lo ≤ value ≤ hi (the range join the reference only approximates
    via spatial filters — SURVEY.md §2.4 last row).

    The interval side is broadcast (small side: banding tables,
    histograms, SLA windows); the probe is one vectorized comparison
    matrix per batch, emitting one row per (row, interval) match.
    For two large sides, bucket both by value range and reuse the
    cell-partitioned-join pattern (stages.join.cell_partitioned_pip).
    """
    import numpy as np
    import ray

    if not isinstance(intervals, pa.Table):
        intervals = pa.Table.from_pylist(list(intervals))
    lo = np.asarray(intervals[lo_col].to_pylist(), dtype=np.float64)
    hi = np.asarray(intervals[hi_col].to_pylist(), dtype=np.float64)
    cols = interval_cols or [
        c for c in intervals.column_names if c not in (lo_col, hi_col)
    ]
    extra = {c: intervals[c] for c in cols}
    ref = ray.put((lo, hi, {c: v.to_pylist() for c, v in extra.items()}))

    def probe(batch: pa.Table) -> pa.Table:
        lo_, hi_, ex = ray.get(ref)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if closed == "both":
            m = (v[:, None] >= lo_[None, :]) & (v[:, None] <= hi_[None, :])
        elif closed == "left":
            m = (v[:, None] >= lo_[None, :]) & (v[:, None] < hi_[None, :])
        else:
            raise ValueError(closed)
        ri, ii = np.nonzero(m)
        out = batch.take(pa.array(ri))
        for c, vals in ex.items():
            out = out.append_column(
                c, pa.array([vals[j] for j in ii])
            )
        out = out.append_column("lo", pa.array(lo_[ii]))
        out = out.append_column("hi", pa.array(hi_[ii]))
        return out

    return left.map_batches(probe, batch_format="pyarrow")


def asof_join_union(
    both: rd.Dataset,
    key: str,
    ts: str,
    right_cols: list[str],
    suffix: str = "_r",
    *,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
):
    """As-of join over a PRE-TAGGED union: ``both`` already carries
    every left+right column (missing side columns null-padded) plus
    ``__side`` (0 = left, 1 = right). The fast path when both sides
    derive from ONE source (self-as-of: events vs their own marks) —
    the caller emits the union in a single scan instead of Ray
    executing the shared read twice, once per union branch."""
    lcols = set(left_schema.names)

    # canonical output schema: every partition block must agree (empty
    # groups otherwise degrade int columns to float64 via pandas NaN)
    fields = [left_schema.field(c) for c in left_schema.names]
    for c in right_cols:
        out_name = c + suffix if c in lcols else c
        fields.append(pa.field(out_name, right_schema.field(c).type))
    target = pa.schema(fields)

    def merge(g: pd.DataFrame) -> pa.Table:
        import pyarrow.compute as pc

        lg = g[g["__side"] == 0].sort_values(ts, kind="mergesort")
        rg = g[g["__side"] == 1].sort_values(ts, kind="mergesort")
        lg = lg[[c for c in lg.columns if c in lcols]]
        rg = rg[[c for c in rg.columns if c in ([key, ts] + right_cols)]]
        out = pd.merge_asof(
            lg, rg, on=ts, by=key, direction="backward", suffixes=("", suffix)
        )
        out = out.reindex(columns=target.names)
        # Arrow-native NULL (not float NaN) for unmatched right columns —
        # pd.merge_asof emits NaN, which DuckDB/SQL semantics (and the
        # driver's value hash) distinguish from NULL.
        t = pa.Table.from_pandas(out, preserve_index=False)
        cols = []
        for f in target:
            col = t[f.name]
            if pa.types.is_floating(col.type):
                col = pc.if_else(pc.is_nan(col), pa.scalar(None, col.type), col)
            if col.type != f.type:
                col = col.cast(f.type)
            cols.append(col)
        return pa.table(dict(zip(target.names, cols)))

    return map_partitions(both, key, merge)
