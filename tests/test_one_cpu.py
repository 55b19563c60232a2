"""The shuffle stages finish on a 1-CPU Ray cluster.

The shared session fixture starts Ray with 4 logical CPUs, which hides
any stage that only makes progress with a spare CPU. This test runs
the webtext curation and a chained SQL JOIN in a fresh process whose
Ray has ``num_cpus=1``, under a hard timeout, and checks both against
the same calls in this process."""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pandas as pd
import pyarrow.feather as feather

SF = "/root/testdata/sf0.001"
REPO = Path(__file__).resolve().parents[1]

SQL = """
SELECT o.o_orderkey, c.c_name, n.n_name
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
"""


def _run(sf):
    """(curated corpus, chained join) as sorted DataFrames."""
    import ray.data as rd

    from gdal_ray import ogrsql
    from gdal_ray.pipelines.webtext import curate

    ds, _ = curate(sf, count_stages=False)
    tables = {t: rd.read_parquet(f"{sf}/{t}.parquet")
              for t in ("orders", "customer", "nation")}
    joined = ogrsql.execute(SQL, tables)
    return [_sorted(d.to_pandas()) for d in (ds, joined)]


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
from test_one_cpu import _run

for name, df in zip(("curated", "joined"), _run({sf!r})):
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
    for name, w in zip(("curated", "joined"), want):
        got = feather.read_table(tmp_path / f"{name}.arrow").to_pandas()
        assert len(got) == len(w), name
        pd.testing.assert_frame_equal(got, w, check_dtype=False)
