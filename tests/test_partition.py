"""stages/partition.py: the hash-partitioned group primitive."""

import pyarrow as pa
import pytest

from gdal_ray.stages.partition import map_partitions


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


def test_distinct_with_nulls_in_some_batches(ray_session):
    import ray.data as rd

    from gdal_ray import ogrsql

    ds = rd.from_arrow(_blocks())
    out = ogrsql.execute("SELECT DISTINCT k FROM t", {"t": ds}).to_pandas()
    assert len(out) == 41
