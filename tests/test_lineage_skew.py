"""Resume/lineage tests."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest


def _pages_tagged(n=2000):
    import ray.data as rd

    from gdal_ray import fixtures
    from gdal_ray.pipelines import flagship

    t = fixtures.gen_pages(n)
    ds = rd.from_arrow(t)
    return flagship.geotag_pages(ds)


class TestLineage:
    def test_write_resume_skip(self, ray_session, tmp_path):
        import ray.data as rd

        from gdal_ray.state.lineage import ManifestStore, write_partitioned

        out = str(tmp_path / "out")
        ds = _pages_tagged(1000).select_columns(["url", "tile_z7_x"])
        recs = write_partitioned(ds, out, "tile_z7_x")
        n_parts = len(recs)
        assert n_parts > 5
        assert all(r["status"] == "done" for r in recs)
        total_rows = sum(r["rows"] for r in recs)
        assert total_rows == 1000
        # data is readable back as hive partitions
        back = rd.read_parquet(
            [os.path.join(out, d, "data.parquet") for d in os.listdir(out)
             if d.startswith("part=")]
        )
        assert back.count() == 1000

        # simulate a partial failure: delete 3 partitions + manifests
        store = ManifestStore(out)
        victims = sorted(store.completed_keys())[:3]
        for k in victims:
            shutil.rmtree(store.partition_dir(k))
            os.remove(os.path.join(store.manifest_dir, f"{k}.json"))
        assert len(store.completed_keys()) == n_parts - 3

        # resume: only the 3 victims get recomputed
        ds2 = _pages_tagged(1000).select_columns(["url", "tile_z7_x"])
        recs2 = write_partitioned(ds2, out, "tile_z7_x")
        assert len(recs2) == n_parts
        assert len(store.completed_keys()) == n_parts
        # identical content hashes as an untouched fresh run
        out2 = str(tmp_path / "fresh")
        recs3 = write_partitioned(
            _pages_tagged(1000).select_columns(["url", "tile_z7_x"]),
            out2,
            "tile_z7_x",
        )
        h1 = {r["partition"]: r["content_hash"] for r in recs2}
        h2 = {r["partition"]: r["content_hash"] for r in recs3}
        assert h1 == h2

    @pytest.mark.parametrize("as_str", [False, True])
    def test_many_keys_per_partition(self, ray_session, tmp_path, as_str):
        """200 keys over 20 blocks: each hash partition holds many keys,
        and each key still gets exactly its own rows."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray.data as rd

        from gdal_ray.state.lineage import (
            ManifestStore,
            content_hash,
            write_partitioned,
        )

        rng = np.random.default_rng(15)
        keys = rng.integers(0, 200, 4000)
        keys[:200] = np.arange(200)  # every key occurs
        t = pa.table({
            "k": pa.array([f"key{k}" for k in keys]) if as_str else pa.array(keys),
            "v": pa.array(np.arange(4000)),
            "x": pa.array(rng.random(4000)),
        })
        blocks = [t.slice(i * 200, 200) for i in range(20)]
        out = str(tmp_path / "out")
        store = ManifestStore(out)
        recs = write_partitioned(rd.from_arrow(blocks), out, "k")
        assert len(recs) == 200
        assert {r["partition"] for r in recs} == set(t["k"].to_pylist())
        assert sum(r["rows"] for r in recs) == 4000
        for r in recs:
            want = t.filter(pc.equal(t["k"], r["partition"]))
            got = pq.ParquetFile(os.path.join(
                store.partition_dir(r["partition"]), "data.parquet")).read()
            assert got.num_rows == want.num_rows == r["rows"]
            assert set(got["v"].to_pylist()) == set(want["v"].to_pylist())
            assert r["content_hash"] == content_hash(want) == content_hash(got)

        def snapshot():
            return {os.path.join(d, f): os.stat(os.path.join(d, f)).st_mtime_ns
                    for d, _, fs in os.walk(out) for f in fs}

        before = snapshot()
        again = write_partitioned(rd.from_arrow(blocks), out, "k")
        assert snapshot() == before  # the resume pass rewrote no file
        assert again == recs

    def test_rows_without_coordinates_keep_their_own_tile(
            self, ray_session, tmp_path):
        """A page without coordinates is not counted in, or committed
        with, the real corner tile (0, 2^z - 1) at lon -180, lat -85."""
        import pyarrow.parquet as pq
        import ray.data as rd

        from gdal_ray.pipelines import flagship
        from gdal_ray.state.lineage import ManifestStore, write_partitioned

        t = flagship.encode_tiles(pa.table({
            "url": ["corner", "nan", "north"],
            "lon": [-179.9, np.nan, 10.0],
            "lat": [-84.9, np.nan, 89.9],
        }), zooms=(7, 9))
        assert t["tile_z7_x"].to_pylist() == [0, -1, 67]
        assert t["tile_z7_y"].to_pylist() == [127, 128, 0]
        assert t["tile_id"].null_count == 1 and not t["tile_id"][1].is_valid

        counts = flagship.tile_counts(rd.from_arrow(t), zoom=7).take_all()
        assert sorted((r["tile_z7_x"], r["tile_z7_y"], r["n_pages"])
                      for r in counts) == [(-1, 128, 1), (0, 127, 1), (67, 0, 1)]

        out = str(tmp_path / "out")
        recs = write_partitioned(rd.from_arrow(t), out, "tile_z7_x")
        assert {r["partition"]: r["rows"] for r in recs} == {-1: 1, 0: 1, 67: 1}
        store = ManifestStore(out)
        for key, url in ((-1, "nan"), (0, "corner")):
            got = pq.read_table(os.path.join(store.partition_dir(key),
                                             "data.parquet"))
            assert got["url"].to_pylist() == [url]

    def test_resume_filter(self, ray_session, tmp_path):
        import ray.data as rd

        from gdal_ray.state.lineage import resume_filter, write_partitioned

        out = str(tmp_path / "o2")
        t = pa.table({"k": pa.array([1, 1, 2, 3]), "v": pa.array([1, 2, 3, 4])})
        write_partitioned(rd.from_arrow(t), out, "k")
        # all partitions committed -> everything filtered
        left = resume_filter(rd.from_arrow(t), "k", out)
        assert left.count() == 0
        # empty store -> passthrough
        left2 = resume_filter(rd.from_arrow(t), "k", str(tmp_path / "empty"))
        assert left2.count() == 4
