"""The per-worker stage cache (gdal_ray.stages.cache): keys, hits,
eviction and the class rule."""

import gc
import os
import weakref

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gdal_ray.stages import cache


class _Probe:
    """Records what it was built from; every live instance is tracked."""

    live = weakref.WeakSet()
    builds = 0

    def __init__(self, table, tag: str = ""):
        type(self).builds += 1
        type(self).live.add(self)
        self.first = table["x"][0].as_py()
        self.tag = tag

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "first", pa.array([self.first] * batch.num_rows)
        )


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache._CACHE.clear()
    _Probe.builds = 0
    yield
    cache._CACHE.clear()


def _table(v: int) -> pa.Table:
    return pa.Table.from_arrays([pa.array([v], pa.int64())], ["x"])


def test_same_table_hits_in_process():
    t = _table(1)
    a = cache.cached_instance(_Probe, table=t, tag="a")
    b = cache.cached_instance(_Probe, table=t, tag="a")
    assert a is b and _Probe.builds == 1
    # primitives key by value: another tag is another key
    c = cache.cached_instance(_Probe, table=t, tag="b")
    assert c is not a and c.tag == "b" and _Probe.builds == 2
    # an equal but distinct table is another object: keyed by identity
    d = cache.cached_instance(_Probe, table=_table(1), tag="b")
    assert d is not c and _Probe.builds == 3


def test_worker_cached_stage_runs_batches():
    stage = cache.worker_cached(_Probe, table=_table(7))
    out = stage(pa.table({"y": [1, 2]}))
    assert out["first"].to_pylist() == [7, 7]
    stage(pa.table({"y": [3]}))
    assert _Probe.builds == 1


def test_evicted_table_id_reuse_builds_fresh_state(monkeypatch):
    a = _table(1)
    old_id = id(a)
    assert cache.cached_instance(_Probe, table=a).first == 1
    # while the entry lives it holds ``a``: its id cannot be taken
    del a
    gc.collect()
    assert any(id(h) == old_id for _k, held, _i in cache._CACHE[_Probe]
               for h in held)
    cache.cached_instance(_Probe, table=_table(2))  # evicts the entry
    # a new table that CPython gave the evicted table's id
    t = _table(3)
    monkeypatch.setattr(cache, "id", lambda v: old_id if v is t else id(v),
                        raising=False)
    inst = cache.cached_instance(_Probe, table=t)
    assert inst.first == 3


def test_eviction_bounds_live_instances():
    tables = [_table(i) for i in range(6)]
    for t in tables:
        cache.cached_instance(_Probe, table=t)
    gc.collect()
    assert _Probe.builds == 6
    assert len(cache._CACHE[_Probe]) == cache.LIVE_PER_CLASS
    assert len(_Probe.live) == cache.LIVE_PER_CLASS
    # the newest key survives and hits
    assert cache.cached_instance(_Probe, table=tables[-1]).first == 5
    assert _Probe.builds == 6


def test_locals_class_rejected():
    class Local(_Probe):
        pass

    with pytest.raises(TypeError, match="module level"):
        cache.worker_cached(Local, table=_table(1))
    with pytest.raises(TypeError, match="module level"):
        cache.cached_instance(Local, table=_table(1))


def test_resolve_broadcast(ray_session, tmp_path):
    import ray

    t = _table(4)
    assert cache.resolve_broadcast(t) is t
    assert cache.resolve_broadcast(ray.put(t)).equals(t)
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path)
    assert cache.resolve_broadcast(path).equals(t)
    shapes = [(b"\x01", 1.0)]
    assert cache.resolve_broadcast(shapes) is shapes


def test_same_ref_hits_across_tasks(ray_session):
    """One ObjectRef: each worker process builds the stage once and
    every later task on that worker reuses it."""
    import ray
    import ray.data as rd

    from gdal_ray import fixtures
    from gdal_ray.stages.knn import GridKNNFeatures

    ref = ray.put(fixtures.gen_ref_points(200))

    def probe(batch: pa.Table) -> pa.Table:
        from gdal_ray.stages.cache import cached_instance

        inst = cached_instance(GridKNNFeatures, ref=ref)
        n = batch.num_rows
        return pa.table({"pid": pa.array([os.getpid()] * n, pa.int64()),
                         "inst": pa.array([id(inst)] * n, pa.int64())})

    n_tasks = 16
    out = (
        rd.range(n_tasks, override_num_blocks=n_tasks)
        .map_batches(probe, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    assert len(out) == n_tasks
    per_pid = out.groupby("pid")["inst"].nunique()
    assert (per_pid == 1).all()
    assert out["pid"].nunique() < n_tasks  # some worker ran several tasks
