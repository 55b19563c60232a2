"""stages/partition.py: the hash-partitioned group primitive."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gdal_ray.stages.partition import (BATCH_ROWS, PARTITIONS, map_keys,
                                      map_partitions)


def _blocks():
    # int keys; every other block also holds a null key, which pandas
    # would widen to float64 for that block only
    return [pa.table({"k": pa.array([k, k + 1] + ([None] if i % 2 else []),
                                    pa.int64()),
                      "v": pa.array([1, 1] + ([1] if i % 2 else []),
                                    pa.int64())})
            for i, k in enumerate(range(0, 40, 2))] * 2


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
def test_each_key_in_one_partition(ray_session, fmt):
    import ray.data as rd

    def per_key(g):
        if fmt == "pyarrow":
            assert g.column_names == ["k", "v"]
            g = g.to_pandas()
        else:
            assert list(g.columns) == ["k", "v"]
        return g.groupby("k", dropna=False, as_index=False)["v"].sum()

    out = map_partitions(rd.from_arrow(_blocks()), "k", per_key,
                         batch_format=fmt).to_pandas()
    # a key split across partitions would appear once per partition
    assert not out["k"].duplicated().any()
    got = dict(zip(out["k"].fillna(-1).astype(int), out["v"]))
    assert got == {**{k: 2 for k in range(40)}, -1: 20}


def _blocks_out(tables) -> int:
    """Output blocks of an identity ``map_partitions`` over ``tables``."""
    import ray.data as rd

    def same(t):  # nested, so that workers need not import this file
        return t

    return map_partitions(rd.from_arrow(tables), "k", same,
                          batch_format="pyarrow").materialize().num_blocks()


def _inputs_filling_every_part():
    """20 small blocks, and BATCH_ROWS + 1 rows in 17 blocks; both hold
    keys of all PARTITIONS hash parts."""
    small = [pa.table({"k": pa.array(range(i * 10, i * 10 + 10))})
             for i in range(20)]
    n = BATCH_ROWS // 16
    big = [pa.table({"k": pa.array(range(i * n, (i + 1) * n))})
           for i in range(16)]
    big.append(pa.table({"k": pa.array([BATCH_ROWS])}))
    assert sum(t.num_rows for t in big) == BATCH_ROWS + 1
    return small, big


def test_reducer_count_follows_cpus(ray_session):
    """One reducer, so one output block, per CPU up to PARTITIONS,
    whatever the input's block or row count."""
    for tables in _inputs_filling_every_part():
        assert _blocks_out(tables) == min(PARTITIONS, 4)


def _check_small_blocks_keep_keys_whole(keys: int = 300):
    """With 4 KiB target blocks, every key still reaches exactly one
    callback (Ray does not split a reducer block before the callback)
    and every row is counted once."""
    import ray.data as rd
    from ray.data import DataContext

    def per_key_counts(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t["k"])
        return pa.table({"k": vc.field("values"), "n": vc.field("counts"),
                         "ncols": pa.array([t.num_columns] * len(vc))})

    rng = np.random.default_rng(16)
    tables = [pa.table({"k": pa.array(rng.integers(0, keys, 5_000)),
                        "s": pa.array(["x" * 40] * 5_000)})
              for _ in range(20)]
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 4096
    try:
        out = map_partitions(rd.from_arrow(tables), "k", per_key_counts,
                             batch_format="pyarrow").to_pandas()
    finally:
        ctx.target_max_block_size = old
    assert not out["k"].duplicated().any()
    assert len(out) == len({k for t in tables for k in t["k"].to_pylist()})
    assert out["n"].sum() == 100_000
    assert (out["ncols"] == 2).all()


def test_small_target_blocks_keep_each_key_in_one_callback(ray_session):
    _check_small_blocks_keep_keys_whole()


def test_empty_reducers_fire_no_callback(ray_session):
    """One key fills one hash part, so 3 of the 4 reducers get no rows;
    no callback may see their column-less blocks."""
    _check_small_blocks_keep_keys_whole(keys=1)


@pytest.mark.parametrize("suffix", [".shp", ".sqlite"])
def test_one_key_output_writes_through_the_registry(ray_session, tmp_path,
                                                    suffix):
    """At 4 CPUs one key leaves 3 reducers empty; their zero-row,
    column-less blocks must not reach the files the ``write`` step
    makes (the Shapefile writer iterates batches, the SQLite writer
    takes ``to_arrow_refs``)."""
    import ray.data as rd

    from gdal_ray.drivers import resolve_vector_source, write_vector
    from gdal_ray.geom import wkb as W

    n = 100
    t = pa.table({"k": pa.array([7] * n, pa.int64()),
                  "v": pa.array(range(n), pa.int64()),
                  "geometry": W.encode_points(np.arange(n, dtype=float),
                                              np.zeros(n))})
    out = map_partitions(rd.from_arrow(t), "k", lambda g: g,
                         batch_format="pyarrow")
    path = str(tmp_path / ("x" + suffix))
    write_vector(out, path)
    rows = resolve_vector_source(path)().take_all()
    assert sorted((r["k"], r["v"], bytes(r["geometry"])) for r in rows) == \
        sorted(zip([7] * n, range(n), t["geometry"].to_pylist()))


def _norm_key(i, f, s) -> str:
    """An (int, float, string) key as ``hash_any`` sees it: one NaN,
    -0.0 as 0.0. Callbacks copy this: workers do not import this file."""
    return repr((i, f + 0.0 if f is not None and f == f else f, s))


def _check_map_keys_matches_map_groups(keys=("i", "f", "s"),
                                       one_key: bool = False):
    """``map_keys`` against Ray's ``groupby(keys).map_groups`` in 20
    input blocks under 4 KiB target blocks. The int key "i", float key
    "f" (always with ±0.0) and string key "s" hold nulls and NaN only
    when grouped alone: Ray 2.49 splits a NaN or null key of a multi-column
    group across reducers. ``one_key`` leaves every reducer but one
    without rows. Each call must see one key, and each key one call."""
    import ray.data as rd
    from ray.data import DataContext

    keys = list(keys)

    def summary(g: pa.Table) -> pa.Table:
        # nested, so that workers need not import this file
        vals = zip(*(g[k].to_pylist() for k in keys))
        seen = {repr(tuple(v + 0.0 if isinstance(v, float) and v == v
                           else v for v in row)) for row in vals}
        return pa.table({"key": [min(seen)], "nkeys": [len(seen)],
                         "n": [g.num_rows], "v": [pc.sum(g["v"]).as_py()]})

    rng = np.random.default_rng(19)
    pick = (lambda vals: [vals[0]] * 250) if one_key else \
        (lambda vals: [vals[j] for j in rng.integers(0, len(vals), 250)])
    alone = len(keys) == 1
    tables = [pa.table({
        "i": pa.array(pick([7, 0, -3, None if alone else 2]), pa.int64()),
        "f": pa.array(pick([-0.0, 0.0, 1.5, float("nan") if alone else 2.5]),
                      pa.float64()),
        "s": pa.array(pick(["a", "b", ""]), pa.string()),
        "v": pa.array(rng.integers(0, 1000, 250)),
        "pad": pa.array(["x" * 40] * 250),
    }) for _ in range(20)]
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 4096
    try:
        got = map_keys(rd.from_arrow(tables), keys, summary).to_pandas()
        want = rd.from_arrow(tables).groupby(keys).map_groups(
            summary, batch_format="pyarrow").to_pandas()
    finally:
        ctx.target_max_block_size = old
    assert (got["nkeys"] == 1).all()
    assert not got["key"].duplicated().any()
    assert got["n"].sum() == 20 * 250
    assert len(got) == (1 if one_key else
                        {"i": 4, "f": 3, "s": 3}[keys[0]] if alone else 36)
    assert got.sort_values("key").to_dict("records") == \
        want.sort_values("key").to_dict("records")


@pytest.mark.parametrize("keys,one_key", [
    (("i", "f", "s"), False), (("i",), False), (("f",), False),
    (("s",), False), (("i", "f", "s"), True)],
    ids=["i,f,s", "i", "f", "s", "one key"])
def test_map_keys_matches_map_groups(ray_session, keys, one_key):
    _check_map_keys_matches_map_groups(keys, one_key)


def test_map_keys_where_map_groups_is_no_oracle(ray_session):
    """Null strings, null ints, and a float column's nulls, NaNs and
    +inf, in any key position, each form one key, as ``hash_any``
    partitions them. Ray 2.49's ``map_groups`` cannot check this: its
    sampled sort fails on None strings across blocks, it splits a NaN
    or null key of a multi-column group (across reducers, and one
    group per row where that column does not lead the sort), and it
    merges a float column's nulls, NaNs and +inf into one group when a
    sorted block ends in NaN or null."""
    import ray.data as rd

    nan, inf = float("nan"), float("inf")
    s = ["a", None, None, "a", "b", None, None, "a", "a"] * 4
    f = [inf, None, nan, inf, None, nan, -nan, 1.0, -0.0, 0.0] * 3 + [nan] * 6
    i = [1, None, None] * 12
    t = pa.table({"s": pa.array(s), "f": pa.array(f, pa.float64()),
                  "i": pa.array(i, pa.int64())})

    def count(g: pa.Table) -> pa.Table:
        keys = {repr((i, f + 0.0 if f is not None and f == f else f, s))
                for i, f, s in zip(g["i"].to_pylist(), g["f"].to_pylist(),
                                   g["s"].to_pylist())}
        return pa.table({"key": [min(keys)], "nkeys": [len(keys)],
                         "n": [g.num_rows]})

    got = map_keys(rd.from_arrow([t.slice(0, 13), t.slice(13)]),
                   ["s", "f", "i"], count).to_pandas()
    assert (got["nkeys"] == 1).all()
    want = {}
    for k in map(_norm_key, i, f, s):
        want[k] = want.get(k, 0) + 1
    assert dict(zip(got["key"], got["n"])) == want


def test_distinct_with_nulls_in_some_batches(ray_session):
    import ray.data as rd

    from gdal_ray import ogrsql

    ds = rd.from_arrow(_blocks())
    out = ogrsql.execute("SELECT DISTINCT k FROM t", {"t": ds}).to_pandas()
    assert len(out) == 41


# join_partitions contract, checked against DuckDB. Left key int32,
# right key int64: without a shared cast, -1 hashes to different
# partitions for the two widths. Six distinct keys over 8 partitions
# leave some partitions empty on one or both sides.
_L = pa.table({"k": pa.array([1, 2, None, -1, 5, 1, None, 7], pa.int32()),
               "v": pa.array(range(8), pa.int64())})
_R = pa.table({"k2": pa.array([1, None, -1, -1, 7, 9], pa.int64()),
               "w": pa.array([10, 11, 12, 13, 14, 15], pa.int64())})
_R2 = pa.table({"v2": pa.array([0, 3, 3, 6], pa.int64()),
                "x": pa.array(["a", "b", "c", "d"])})

_ORACLE = {
    "inner": "SELECT k, v, w FROM l JOIN r ON k = k2",
    "left_outer": "SELECT k, v, w FROM l LEFT JOIN r ON k = k2",
    "right_outer": "SELECT v, k2, w FROM l RIGHT JOIN r ON k = k2",
    "full_outer": "SELECT coalesce(k, k2) AS k, v, w "
                  "FROM l FULL JOIN r ON k = k2",
    "left_semi": "SELECT k, v FROM l WHERE EXISTS "
                 "(SELECT 1 FROM r WHERE k2 = k)",
    "left_anti": "SELECT k, v FROM l WHERE NOT EXISTS "
                 "(SELECT 1 FROM r WHERE k2 = k)",
}


def _rows(tbl_or_rows, cols):
    rows = tbl_or_rows if isinstance(tbl_or_rows, list) \
        else tbl_or_rows.to_pylist()
    return sorted((tuple(r.get(c) for c in cols) for r in rows),
                  key=repr)


def _duckdb(sql, **tables):
    import duckdb

    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return con.execute(sql).fetch_arrow_table()


def _split(t, n):
    step = -(-t.num_rows // n)
    return [t.slice(i, step) for i in range(0, t.num_rows, step)]


@pytest.mark.parametrize("how", sorted(_ORACLE))
def test_join_partitions_matches_duckdb(ray_session, how):
    import ray.data as rd

    from gdal_ray.stages.partition import join_partitions

    got = join_partitions(rd.from_arrow(_split(_L, 3)),
                          rd.from_arrow(_split(_R, 2)),
                          "k", "k2", how).take_all()
    want = _duckdb(_ORACLE[how], l=_L, r=_R)
    cols = want.column_names
    assert all(sorted(r) == sorted(cols) for r in got)
    assert _rows(got, cols) == _rows(want, cols)


def test_join_partitions_chained(ray_session):
    import ray.data as rd

    from gdal_ray.stages.partition import join_partitions

    first = join_partitions(rd.from_arrow(_L), rd.from_arrow(_R),
                            "k", "k2", "left_outer")
    got = join_partitions(first, rd.from_arrow(_R2), "v", "v2").take_all()
    want = _duckdb("SELECT k, v, w, x FROM l LEFT JOIN r ON k = k2 "
                   "JOIN r2 ON v = v2", l=_L, r=_R, r2=_R2)
    assert _rows(got, want.column_names) == _rows(want, want.column_names)


@pytest.mark.parametrize("how", ["inner", "left_outer", "left_anti"])
def test_join_partitions_empty_right(ray_session, how):
    import ray.data as rd

    from gdal_ray.stages.partition import join_partitions

    empty = rd.from_arrow(_R).filter(lambda row: False)
    got = join_partitions(rd.from_arrow(_L), empty, "k", "k2",
                          how).take_all()
    want = [] if how == "inner" else _L.to_pylist()
    assert _rows(got, ["k", "v"]) == _rows(want, ["k", "v"])
