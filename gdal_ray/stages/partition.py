"""The engine's one hash-partitioned group primitive.

``map_partitions(ds, keys, fn)`` shuffles once on
``hash(keys) % PARTITIONS`` and calls ``fn`` on whole reducer blocks;
``map_keys(ds, keys, fn)`` is the same shuffle with ``fn`` called once
per key. Every per-key callback of the engine runs through one of
them: ``join_partitions`` (the one equi join), the top-k merges of
the embedding searches, and the per-key reductions (overview levels,
VRT mosaics, focal halos, MVT tiles, cell-partitioned PIP and
overlay, LSH bucket pairs, ``stats_agg`` and
``state.lineage.write_partitioned``).

``map_partitions``' callback gets one reducer block, which holds one or
more whole hash partitions, and does its per-key work vectorized over
it (a sort plus a pandas groupby, ``merge_asof(by=...)``, a lexsort
split, an Arrow group_by, an Arrow join). Every row of a key lands in
one partition, so per-key semantics hold; small keys batch together,
and a hot key spreads no worse than under a raw-key groupby. Its
callback must therefore treat its input as MANY keys, never assume
one. A reducer that receives no rows emits an empty block with no
columns, which Ray 2.49's ``map_batches`` passes on without calling
``fn``; so when every partition is empty the result has no columns.

``map_keys`` is for callbacks whose body is one key's work. It sorts
each reducer block once on ``keys`` and calls ``fn`` on each key's
zero-copy slice, then concatenates the outputs. A key is a key as
``sketch.hash_any`` partitions it: in every key column all nulls are
one key, all NaNs are one key, and −0.0 is 0.0. Ray 2.49's own
``groupby`` callbacks agree on one int or float key column, not
beyond: they split a NaN or null key of a multi-column group, merge a
float column's nulls, NaNs and +inf, and fail on null strings.

Reducer count: ``R = min(PARTITIONS, CPUs of the cluster)``, fixed in
the driver when the plan is built, not by the input's block count.
Ray 2.49's ``groupby`` (like a ``sort`` left to sample its
boundaries) runs one mapper and one reducer per input block, so its
reducer count would follow the input split. At ``R == 1`` the
shuffle is ``repartition(1)``: no sort, no sample, one callback.
Above it, ``sort("__part", boundaries=...)`` cuts the ``PARTITIONS``
part ids into ``R`` contiguous ranges, so there are ``R`` reducers
whatever the mapper count. The boundary list is never empty: Ray
treats ``[]`` like ``None`` and samples. Ray hands each reducer's
output to ``fn`` as one block (``batch_size=None``), even under a
small ``target_max_block_size``.

The cost is memory, for both functions and every site above: a
reducer block holds about 1/``R`` of the input (at 1 CPU, all of it),
where a callback per hash partition would hold about 1/``PARTITIONS``
and one per key only that key's rows. Nothing caps it yet. The
hash-tagging map runs with ``batch_size=BATCH_ROWS``, so Ray gathers
the reader's ~1 MiB blocks into blocks of at least ``BATCH_ROWS``
rows, and the sort has at most ⌈rows / ``BATCH_ROWS``⌉ mappers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray._private.auto_init_hook import auto_init_ray

from gdal_ray.stages.sketch import hash_any

#: coarse partition count of every hash-partitioned stage
PARTITIONS = 8

#: rows per block fed to the shuffle. Measured rows entering
#: ``map_partitions`` hold 194 B (perfbench ``partitioned_write``'s
#: geotagged pages) and 86-138 B (``paragraph_dedup``'s paragraphs), so
#: a block is 3-6 MiB. Sweep of ``write_partitioned`` on 125,000 of
#: those pages at 1 CPU, median of 6: 8,192 rows 3.17 s, 16,384 1.45 s,
#: 32,768 1.00 s, 65,536 0.85 s. Doubling to 65,536 saves 15 % more
#: there but halves the shuffle map tasks a multi-core cluster could
#: run at once (not measured: the sweep had one CPU).
BATCH_ROWS = 32_768


def map_partitions(ds, keys, fn, batch_format: str = "pandas"):
    """Co-locate the rows of each ``keys`` value (a column name or a
    list of them) and return ``fn`` applied to each reducer block of
    whole hash partitions, delivered in ``batch_format`` ("pandas" or
    "pyarrow")."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def add_part(t: pa.Table) -> pa.Table:
        h = np.zeros(t.num_rows, np.uint64)
        for i, k in enumerate(keys):
            h += hash_any(t[k], seed=i)
        return t.append_column(
            "__part", pa.array((h % PARTITIONS).astype(np.int64)))

    def apply(g):
        if batch_format == "pandas":
            return fn(g.drop(columns="__part"))
        return fn(g.drop_columns(["__part"]))

    apply.__name__ = fn.__name__  # Ray names the operator after it

    auto_init_ray()  # as the Dataset's own execution would
    r = min(PARTITIONS, max(1, int(ray.cluster_resources().get("CPU", 1))))
    tagged = ds.map_batches(add_part, batch_format="pyarrow",
                            batch_size=BATCH_ROWS)
    if r == 1:
        shuffled = tagged.repartition(1)
    else:
        shuffled = tagged.sort("__part", boundaries=[
            -(-i * PARTITIONS // r) for i in range(1, r)])
    return shuffled.map_batches(apply, batch_format=batch_format,
                                batch_size=None)


def _run_ends(t: pa.Table, keys) -> np.ndarray:
    """End offsets of the key runs of ``t``, sorted on ``keys``: a new
    run starts wherever any key column changes value."""
    ends = [t.num_rows]
    for k in keys:
        a = t[k].combine_chunks()
        if pa.types.is_floating(a.type):  # one NaN; -0.0 + 0.0 is 0.0
            a = pc.if_else(pc.is_nan(a), np.nan, pc.add(a, 0.0))
        ends.extend(pc.run_end_encode(a).run_ends.to_numpy())
    return np.unique(ends)


def map_keys(ds, keys, fn):
    """Co-locate the rows of each ``keys`` value (a column name or a
    list of them) and return the outputs of ``fn`` called once per key
    on an Arrow table of that key's rows, each call returning an Arrow
    table. A reducer block makes one sort and one concatenation."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def per_key(t: pa.Table) -> pa.Table:
        t = t.sort_by([(k, "ascending") for k in keys])
        ends = _run_ends(t, keys)
        starts = np.concatenate([[0], ends[:-1]])
        return pa.concat_tables(
            [fn(t.slice(s, e - s)) for s, e in zip(starts, ends)],
            promote_options="permissive")

    per_key.__name__ = fn.__name__
    return map_partitions(ds, keys, per_key, batch_format="pyarrow")


def _shared_type(t: pa.DataType) -> pa.DataType:
    """One type per key family, so equal keys of different widths
    (an int32 -1 and an int64 -1) hash to the same partition."""
    if pa.types.is_integer(t):
        return pa.int64()
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pa.large_string()
    return t


def join_partitions(left, right, left_on, right_on=None,
                    join_type: str = "inner"):
    """Equi join of two Datasets. ``join_type`` is "inner",
    "left_outer", "right_outer", "full_outer", "left_semi" or
    "left_anti"; the output is that of ``pa.Table.join`` with its
    default key coalescing (one copy of each key), and a null key
    never matches.

    Each side is tagged (``__side``, an ``l.`` / ``r.`` prefix on its
    columns, its keys copied under shared names in one type per key
    family), the two are ``union``-ed, ``map_partitions`` co-locates
    equal keys, and each partition runs one ``pa.Table.join``. Semi
    and anti joins shuffle only the right key columns. A partition
    that holds no rows of one side may lack that side's columns; the
    outer joins that still emit rows there pad them from the side's
    schema, fetched up front."""
    lkeys = [left_on] if isinstance(left_on, str) else list(left_on)
    rkeys = lkeys if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    how = join_type.replace("_", " ")
    shared = [f"__k{i}" for i in range(len(lkeys))]
    prefix = ("l.", "r.")
    if how in ("left semi", "left anti"):
        right = right.select_columns(rkeys)

    def schema_if(pad: bool, ds):
        s = ds.schema() if pad else None
        return s.base_schema if s is not None else None

    schemas = (schema_if(how in ("right outer", "full outer"), left),
               schema_if(how in ("left outer", "full outer"), right))

    def tag(side: int, keys):
        def f(t: pa.Table) -> pa.Table:
            cols = {prefix[side] + c: t[c] for c in t.column_names}
            for k, c in zip(shared, keys):
                cols[k] = pc.cast(t[c], _shared_type(t[c].type))
            cols["__side"] = pa.array([side] * t.num_rows, pa.int8())
            return pa.table(cols)
        return f

    def split(t: pa.Table, side: int):
        names = [c for c in t.column_names if c.startswith(prefix[side])]
        if not names:
            return None if schemas[side] is None \
                else schemas[side].empty_table()
        rows = t.filter(pc.equal(t["__side"], side)).select(names)
        return rows.rename_columns([c[len(prefix[side]):] for c in names])

    def keys_only(t: pa.Table, keys, like):
        return pa.schema([pa.field(k, t.schema.field(c).type)
                          for k, c in zip(keys, like)]).empty_table()

    def join(t: pa.Table) -> pa.Table:
        lt, rt = split(t, 0), split(t, 1)
        # a side absent from this block has no rows to match; its key
        # columns alone let the join keep the other side's rows
        lt = keys_only(rt, lkeys, rkeys) if lt is None else lt
        rt = keys_only(lt, rkeys, lkeys) if rt is None else rt
        for lk, rk in zip(lkeys, rkeys):
            rt = rt.set_column(rt.schema.get_field_index(rk), rk,
                               pc.cast(rt[rk], lt.schema.field(lk).type))
        return lt.join(rt, keys=lkeys, right_keys=rkeys, join_type=how)

    both = left.map_batches(tag(0, lkeys), batch_format="pyarrow").union(
        right.map_batches(tag(1, rkeys), batch_format="pyarrow"))
    return map_partitions(both, shared, join, batch_format="pyarrow")
