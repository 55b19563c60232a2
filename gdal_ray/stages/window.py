"""Grouped window functions — LAG / LEAD / ROW_NUMBER / cumulative
aggregates over (partition key, order key).

The reference's OGR SQL has no window functions (ogr_swq.h grammar);
these are the event-sequence primitives a training-data pipeline
needs (sessionized click streams, per-host page ordering). Semantics
match ANSI ``F(...) OVER (PARTITION BY key ORDER BY ts)`` with
deterministic (order key, tiebreak column) ordering — DuckDB-verified
in tests.

Shape: one ``stages.partition.map_partitions`` shuffle on the
partition key, then every requested function as pandas grouped
transforms over the whole partition.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from gdal_ray.stages.partition import map_partitions

#: supported spec entries: name -> (callable(groupby, col, arg), needs_col)
_FUNCS = frozenset(
    ["row_number", "lag", "lead", "cumsum", "cummax", "cummin", "rank",
     "dense_rank"]
)


def window(ds, key, order_by, funcs: list[tuple],
           tiebreak: str | None = None, descending=False):
    """Apply window functions over ``PARTITION BY key ORDER BY
    order_by [, tiebreak]``.

    ``key`` / ``order_by`` accept a single column name or a list
    (multi-column partitions and composite orderings — the SQL
    ``OVER (PARTITION BY a, b ORDER BY x, y)`` shape, round 5).
    ``descending`` is a bool or per-order-column list of bools.
    RANK/DENSE_RANK rank by the FIRST order column (extra order
    columns act as deterministic tiebreaks only).

    ``funcs``: list of (func, col, out_name[, offset]) — e.g.
    ``("lag", "value", "prev_value", 1)``, ``("row_number", None,
    "rn")``, ``("cumsum", "value", "running")``. LAG/LEAD emit nulls
    at window edges (SQL semantics, not NaN)."""
    for f in funcs:
        if f[0] not in _FUNCS:
            raise ValueError(f"unsupported window function {f[0]}")
    keys = [key] if isinstance(key, str) else list(key)
    orders = [order_by] if isinstance(order_by, str) else list(order_by)
    descs = ([descending] * len(orders) if isinstance(descending, bool)
             else list(descending))

    sort_cols = keys + orders + ([tiebreak] if tiebreak else [])
    ascending = ([True] * len(keys) + [not d for d in descs]
                 + ([True] if tiebreak else []))

    def apply(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            sort_cols, ascending=ascending,
            kind="mergesort").reset_index(drop=True)
        grp = g.groupby(keys, sort=False)
        for spec in funcs:
            fn, col, out = spec[0], spec[1], spec[2]
            arg = spec[3] if len(spec) > 3 else 1
            if fn == "row_number":
                g[out] = grp.cumcount() + 1
            elif fn in ("rank", "dense_rank"):
                g[out] = grp[orders[0]].rank(
                    method="min" if fn == "rank" else "dense",
                    ascending=not descs[0]).astype("int64")
            elif fn == "lag":
                g[out] = grp[col].shift(arg)
            elif fn == "lead":
                g[out] = grp[col].shift(-arg)
            elif fn == "cumsum":
                g[out] = grp[col].cumsum()
            elif fn == "cummax":
                g[out] = grp[col].cummax()
            elif fn == "cummin":
                g[out] = grp[col].cummin()
        return g

    out = map_partitions(ds, keys, apply)

    def fix_nulls(t: pa.Table) -> pa.Table:
        # pandas shift() emits NaN for null — restore Arrow nulls so
        # SQL comparisons (and the driver value hash) see NULL
        import pyarrow.compute as pc

        cols = {}
        for name in t.column_names:
            col = t[name]
            if pa.types.is_floating(col.type):
                col = pc.if_else(pc.is_nan(col),
                                 pa.scalar(None, col.type), col)
            cols[name] = col
        return pa.table(cols)

    return out.map_batches(fix_nulls, batch_format="pyarrow")
