"""The shuffle and stateful stages finish on a 1-CPU Ray cluster.

The shared session fixture starts Ray with 4 logical CPUs, which hides
any stage that only makes progress with a spare CPU. This test runs
the webtext curation, a chained SQL JOIN, the worker-cached stateful
stages (PIP join, kNN join, IDW), a top-k merge (a ``map_partitions``
callback over many keys) and an overview level (a ``map_keys``
callback per key) in a fresh process whose Ray has ``num_cpus=1``,
under a hard timeout, and checks each against the same calls in this
process. The child also checks that ``map_partitions`` runs one
reducer there and keeps each key in one callback under 4 KiB target
blocks, and that ``map_keys`` groups as Ray's ``map_groups`` does."""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.feather as feather

SF = "/root/testdata/sf0.001"
REPO = Path(__file__).resolve().parents[1]

NAMES = ("curated", "joined", "pip", "knn", "idw", "topk", "overview")

SQL = """
SELECT o.o_orderkey, c.c_name, n.n_name
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
"""


def _run(sf):
    """(curated corpus, chained join, PIP join, kNN join, IDW, cosine
    top-k, overview level) as sorted DataFrames."""
    import ray.data as rd

    from gdal_ray import fixtures, ogrsql
    from gdal_ray.pipelines.tilepyramid import TILE_SIZE, overview_level
    from gdal_ray.pipelines.webtext import curate
    from gdal_ray.stages.embed import cosine_topk
    from gdal_ray.stages.join import pip_join
    from gdal_ray.stages.knn import idw_estimate, knn_join

    ds, _ = curate(sf, count_stages=False)
    tables = {t: rd.read_parquet(f"{sf}/{t}.parquet")
              for t in ("orders", "customer", "nation")}
    joined = ogrsql.execute(SQL, tables)
    rng = np.random.default_rng(3)
    pts = rd.from_arrow(pa.table({
        "pid": pa.array(np.arange(400, dtype=np.int64)),
        "lon": pa.array(rng.uniform(-80, 80, 400)),
        "lat": pa.array(rng.uniform(-60, 60, 400)),
    })).repartition(4)
    ref = fixtures.gen_ref_points(300)
    stateful = (
        pip_join(pts, fixtures.gen_boundaries()),
        knn_join(pts, ref, k=3),
        idw_estimate(pts, ref, k=3),
    )
    vecs = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(300, dtype=np.int64)),
        "embedding": pa.array(list(rng.standard_normal((300, 8))),
                              pa.list_(pa.float32())),
    })).repartition(4)
    topk = cosine_topk(vecs, rng.standard_normal((5, 8)), k=4)
    # six z=3 tiles under three parents, one of them with a single child
    tiles = rd.from_items([
        {"z": 3, "x": x, "y": y, "width": TILE_SIZE, "height": TILE_SIZE,
         "dtype": "float32",
         "data": rng.uniform(0, 1, (TILE_SIZE, TILE_SIZE))
         .astype(np.float32).tobytes()}
        for x, y in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (5, 5))])
    return [_sorted(d.to_pandas()) for d in (ds, joined, *stateful, topk,
                                             overview_level(tiles))]


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


CHILD = """
import sys
import pyarrow as pa
import pyarrow.feather as feather
import ray
from ray.data import DataContext

sys.path.insert(0, {repo!r})
sys.path.insert(0, {tests!r})
ray.init(address="local", num_cpus=1, object_store_memory=300 << 20,
         include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
from test_one_cpu import NAMES, _run
from test_partition import (_blocks_out, _check_map_keys_matches_map_groups,
                            _check_small_blocks_keep_keys_whole,
                            _inputs_filling_every_part)

# one CPU, one reducer: no sort, one block whatever the input split
assert [_blocks_out(t) for t in _inputs_filling_every_part()] == [1, 1]
_check_small_blocks_keep_keys_whole()
_check_map_keys_matches_map_groups()
for name, df in zip(NAMES, _run({sf!r})):
    feather.write_feather(pa.Table.from_pandas(df, preserve_index=False),
                          {out!r} + "/" + name + ".arrow")
ray.shutdown()
"""


def test_curate_and_chained_join_at_one_cpu(ray_session, tmp_path):
    script = CHILD.format(repo=str(REPO), tests=str(REPO / "tests"),
                          sf=SF, out=str(tmp_path))
    # own process group, so a hang takes the child's Ray down with it
    proc = subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError("1-CPU run did not finish in 300 s")
    assert proc.returncode == 0, err[-4000:]

    want = _run(SF)
    assert len(want[0]) == 75
    assert len(want[2]) > 0 and len(want[3]) == 3 * 400
    assert len(want[5]) == 5 * 4 and len(want[6]) == 3
    for name, w in zip(NAMES, want):
        got = feather.read_table(tmp_path / f"{name}.arrow").to_pandas()
        assert len(got) == len(w), name
        pd.testing.assert_frame_equal(got, w, check_dtype=False)
