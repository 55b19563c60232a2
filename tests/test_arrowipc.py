"""Arrow IPC vector driver (gdal_ray/arrowipc.py) — file + stream
formats, sharded batch-index read, geo field metadata, partitioned
resumable dir sink."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.ipc as pa_ipc
import pytest

from gdal_ray import arrowipc as A


def _table(n=100):
    from gdal_ray.geom.wkb import encode_points

    rng = np.random.default_rng(2)
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-85, 85, n)
    return pa.table({
        "fid": pa.array(range(n), pa.int64()),
        "name": pa.array([f"f{i}" for i in range(n)], pa.string()),
        "geometry": encode_points(lon, lat),
    })


class TestRoundTrip:
    def test_file_format(self, ray_session, tmp_path):
        import ray.data as rd

        t = _table()
        p = str(tmp_path / "pts.arrow")
        A.write_arrow_ipc(rd.from_arrow(t), p)
        out = A.read_arrow_ipc(p).to_pandas().sort_values("fid")
        assert len(out) == 100
        assert (out["geometry"].values == t["geometry"].to_pylist()).all()

    def test_stream_format(self, ray_session, tmp_path):
        import ray.data as rd

        t = _table(30)
        p = str(tmp_path / "pts.arrows")
        A.write_arrow_ipc(rd.from_arrow(t), p)
        # stream files have no ARROW1 magic
        assert open(p, "rb").read(6) != b"ARROW1"
        out = A.read_arrow_ipc(p).to_pandas().sort_values("fid")
        assert out["name"].tolist() == t["name"].to_pylist()

    def test_geo_field_metadata(self, ray_session, tmp_path):
        import ray.data as rd

        p = str(tmp_path / "geo.arrow")
        A.write_arrow_ipc(rd.from_arrow(_table(5)), p)
        with pa.memory_map(p, "r") as mm:
            schema = pa_ipc.open_file(mm).schema
        f = schema.field("geometry")
        assert f.metadata[b"ARROW:extension:name"] == b"ogc.wkb"

    def test_sharded_read_many_batches(self, ray_session, tmp_path):
        """A file with many record batches reads through the parallel
        batch-index path and preserves every row."""
        p = str(tmp_path / "many.arrow")
        t = _table(400)
        with open(p, "wb") as f:
            with pa_ipc.new_file(f, t.schema) as w:
                for i in range(0, 400, 10):   # 40 batches
                    w.write_table(t.slice(i, 10))
        ds = A.read_arrow_ipc(p, batches_per_block=4)
        out = ds.to_pandas().sort_values("fid").reset_index(drop=True)
        assert out["fid"].tolist() == list(range(400))

    def test_vsimem(self, ray_session):
        import ray.data as rd

        from gdal_ray import vsi

        t = _table(7)
        A.write_arrow_ipc(rd.from_arrow(t), "/vsimem/a.arrow")
        out = A.read_arrow_ipc("/vsimem/a.arrow").to_pandas()
        assert len(out) == 7
        vsi.MEM_FS.pop("a.arrow", None)


class TestDirSink:
    def test_partitioned_write_read_resume(self, ray_session, tmp_path):
        import ray.data as rd

        t = _table(200)
        ds = rd.from_arrow(t).repartition(4)
        d = str(tmp_path / "parts")
        n1 = A.write_arrow_ipc_dir(ds, d)
        files = sorted(os.listdir(d))
        assert n1 == len(files) >= 1
        # rerun: content-hashed names → nothing rewritten
        mtimes = {f: os.path.getmtime(os.path.join(d, f)) for f in files}
        A.write_arrow_ipc_dir(rd.from_arrow(t).repartition(4), d)
        for f in files:
            assert os.path.getmtime(os.path.join(d, f)) == mtimes[f]
        out = A.read_arrow_ipc_dir(d).to_pandas().sort_values("fid")
        assert out["fid"].tolist() == list(range(200))

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            A.read_arrow_ipc_dir(str(tmp_path))
