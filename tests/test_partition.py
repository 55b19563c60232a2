"""stages/partition.py: the hash-partitioned group primitive."""

import pyarrow as pa
import pytest

from gdal_ray.stages.partition import BATCH_ROWS, map_partitions


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


def test_shuffle_input_coalesces_to_batch_rows(ray_session):
    """The sort shuffle runs one reducer per block it is fed; the
    hash-tagging map feeds it blocks of at least BATCH_ROWS rows, not
    the input's split, so the output block count follows the rows."""
    import ray.data as rd

    def same(t):
        return t

    def blocks_out(tables):
        return map_partitions(rd.from_arrow(tables), "k", same,
                              batch_format="pyarrow").materialize().num_blocks()

    small = [pa.table({"k": pa.array(range(i * 10, i * 10 + 10))})
             for i in range(20)]
    assert blocks_out(small) == 1
    # 16 blocks fill the first BATCH_ROWS-row task, one row is left over
    n = BATCH_ROWS // 16
    tables = [pa.table({"k": pa.array(range(i * n, (i + 1) * n))})
              for i in range(16)]
    tables.append(pa.table({"k": pa.array([BATCH_ROWS])}))
    assert sum(t.num_rows for t in tables) == BATCH_ROWS + 1
    assert blocks_out(tables) == 2


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
