"""The four workloads: inputs, the timed job, its oracle check, and the
in-process kernel pass the traced run times layer by layer.

A job is one closed-loop operation: it starts when the previous one
has completed. Every job output is checked; a mismatch raises
``OracleMismatch``.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import gen
import oracle


class OracleMismatch(Exception):
    """A job output disagrees with the oracle."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleMismatch(what)


# (generated shards, rows per shard, times a job reads each shard), at
# normal and at tiny (self-test) size
SIZES = {
    "geotag_gazetteer": {"normal": (1, 62_500, 16), "tiny": (1, 4_096, 1)},
    "geotag_continuous": {"normal": (2, 6_250, 1), "tiny": (1, 2_048, 1)},
    "partitioned_write": {"normal": (1, 31_250, 1), "tiny": (1, 4_096, 1)},
    "paragraph_dedup": {"normal": (1, 200, 1), "tiny": (1, 40, 1)},
}


class Workload:
    name = ""

    def __init__(self, seed: int, work: str, size: str):
        self.seed = seed
        self.work = work
        self.shards, self.rows, self.repeat = SIZES[self.name][size]
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Ray-side set-up: broadcast tables. Ray is initialised."""

    def warm_up(self) -> None:
        """A small job that starts the workers and builds their state."""
        raise NotImplementedError

    def run(self) -> dict:
        """One timed job → {"rows": input rows, "out": output, ...}."""
        raise NotImplementedError

    def check(self, res: dict) -> None:
        raise NotImplementedError

    def corrupt(self, res: dict) -> None:
        """Damage a job output so that ``check`` must reject it."""
        raise NotImplementedError

    def cleanup(self, res: dict) -> None:
        """Remove what a job left on disk."""

    def kernel_pass(self) -> dict:
        """The job's kernels in this process over the same files (the
        traced run's unit of work) → counts for the per-layer ratios,
        and under "layers" any per-layer metric measured directly."""
        raise NotImplementedError

    def ray_pass(self) -> tuple[float, list, dict]:
        """One checked job → (wall, the Datasets it executed,
        workload-specific per-layer metrics)."""
        t0 = time.perf_counter()
        res = self.run()
        wall = res.get("wall_s", time.perf_counter() - t0)
        try:
            self.check(res)
            return wall, res.get("datasets", []), self.layer_counts(res)
        finally:
            self.cleanup(res)

    def layer_counts(self, res: dict) -> dict:
        return {}


class _Geotag(Workload):
    """scan_parquet_files(fuse=fused_geotag_pip,
    combine=merge_admin_partials) → admin_rollup."""

    def generate(self) -> None:
        self.paths, lon, lat = self.make_pages()
        self.warm_path = _head(self.paths[0], WARM_ROWS)
        base = oracle.admin_counts(lon, lat)
        self.expected = {k: v * self.repeat for k, v in base.items()}
        self.n_rows = len(lon) * self.repeat

    def setup(self) -> None:
        import ray

        from gdal_ray import fixtures

        self.bnd = fixtures.gen_boundaries()
        self.ref = fixtures.gen_ref_points(5000)
        self.kwargs = {"bnd_ref": ray.put(self.bnd), "knn_ref": ray.put(self.ref)}

    def warm_up(self) -> None:
        self._scan([self.warm_path])

    def run(self) -> dict:
        out, ds = self._scan(self.paths * self.repeat)
        return {"rows": self.n_rows, "out": out, "datasets": [ds]}

    def _scan(self, paths: list[str]):
        from gdal_ray.pipelines import flagship
        from gdal_ray.sources import scan_parquet_files

        ds = scan_parquet_files(
            paths,
            columns=["text"],
            fuse=flagship.fused_geotag_pip,
            fuse_kwargs=self.kwargs,
            combine=flagship.merge_admin_partials,
        )
        return flagship.admin_rollup(ds), ds

    def check(self, res: dict) -> None:
        out = res["out"]
        got = dict(
            zip(out["admin_id"].to_pylist(), out["n_pages"].to_pylist())
        )
        got = {k: v for k, v in got.items() if v}
        _expect(got == self.expected, f"admin counts differ: {_diff(got, self.expected)}")

    def corrupt(self, res: dict) -> None:
        out = res["out"]
        n = out["n_pages"].to_numpy().copy()
        n[0] += 1
        res["out"] = out.set_column(1, "n_pages", pa.array(n))

    def kernel_pass(self) -> dict:
        from gdal_ray.pipelines import flagship

        partials, nbytes = [], 0
        for p in self.paths * self.repeat:
            t = read_table(p, columns=["text"])
            nbytes += t.nbytes
            partials.append(
                flagship.fused_geotag_pip(t, bnd_ref=self.bnd, knn_ref=self.ref)
            )
        combined = flagship.merge_admin_partials(pa.concat_tables(partials))
        import ray.data as rd

        out = flagship.admin_rollup(rd.from_arrow(combined))
        self.check({"out": out})
        return {"rows": self.n_rows, "read_bytes": nbytes}


class GeotagGazetteer(_Geotag):
    name = "geotag_gazetteer"

    def make_pages(self):
        return gen.gazetteer_pages(
            self.seed, os.path.join(self.work, "pages"), self.shards, self.rows
        )


class GeotagContinuous(_Geotag):
    name = "geotag_continuous"

    def make_pages(self):
        return gen.continuous_pages(
            self.seed, os.path.join(self.work, "pages"), self.shards, self.rows
        )


class PartitionedWrite(Workload):
    """The job_entry.py composition: read_parquet → geotag_pages →
    resume_filter → write_partitioned on tile_z7_x, then a resume pass
    over the same output that must skip every partition."""

    name = "partitioned_write"
    part_col = "tile_z7_x"
    columns = ["url", "warc_ts", "text", "lang"]

    def generate(self) -> None:
        self.paths, lon, _ = gen.gazetteer_pages(
            self.seed, os.path.join(self.work, "pages"), self.shards, self.rows
        )
        self.warm_path = _head(self.paths[0], WARM_ROWS)
        self.n_rows = len(lon)
        self.expected_keys = oracle.partition_keys(lon, zoom=7)
        self._n = 0

    def _job(self, out_dir: str, paths: list[str] | None = None) -> list[dict]:
        import ray.data as rd

        from gdal_ray.pipelines import flagship
        from gdal_ray.state import lineage

        pages = rd.read_parquet(paths or self.paths, columns=self.columns)
        tagged = flagship.geotag_pages(pages, has_html=False)
        tagged = lineage.resume_filter(tagged, self.part_col, out_dir)
        return lineage.write_partitioned(
            tagged, out_dir, self.part_col, lineage={"input": "perfbench"}
        )

    def warm_up(self) -> None:
        out_dir = os.path.join(self.work, "warm-up")
        self._job(out_dir, [self.warm_path])
        shutil.rmtree(out_dir)

    def run(self) -> dict:
        self._n += 1
        out_dir = os.path.join(self.work, f"out-{self._n}")
        t0 = time.perf_counter()
        records = self._job(out_dir)
        wall = time.perf_counter() - t0
        before = _snapshot(out_dir)
        t1 = time.perf_counter()
        self._job(out_dir)
        resume_s = time.perf_counter() - t1
        after = _snapshot(out_dir)
        return {
            "rows": self.n_rows,
            "wall_s": wall,
            "resume_s": resume_s,
            "out": out_dir,
            "records": records,
            "before": before,
            "after": after,
        }

    def check(self, res: dict) -> None:
        out_dir, records = res["out"], res["records"]
        keys = {r["partition"] for r in records}
        _expect(keys == self.expected_keys,
                f"partition set differs: {sorted(keys ^ self.expected_keys)[:5]}")
        _expect(sum(r["rows"] for r in records) == self.n_rows,
                "manifest rows != rows read")
        files = glob.glob(os.path.join(out_dir, "part=*", "data.parquet"))
        on_disk = {int(f.split("part=")[1].split(os.sep)[0]) for f in files}
        _expect(on_disk == self.expected_keys, "partition directories differ")
        written = sum(pq.read_metadata(f).num_rows for f in files)
        _expect(written == self.n_rows, f"{written} rows on disk, {self.n_rows} read")
        _expect(res["before"] == res["after"], "the resume pass wrote output")

    def ray_pass(self) -> tuple[float, list, dict]:
        from ray.data import Dataset

        captured = []
        materialize = Dataset.materialize

        def capture(ds, *a, **kw):
            captured.append(materialize(ds, *a, **kw))
            return captured[-1]

        Dataset.materialize = capture  # write_partitioned executes here
        try:
            wall, _, counts = super().ray_pass()
        finally:
            Dataset.materialize = materialize
        # the first execution is the write pass, the second the resume pass
        return wall, captured[:1], counts

    def layer_counts(self, res: dict) -> dict:
        before, after, records = res["before"], res["after"], res["records"]
        manifests = [f for f in before if os.sep + "_manifest" + os.sep in f]
        rewritten = sum(before[f] != after.get(f) for f in manifests)
        commit_ms = [r["wall_ms"] for r in records]
        return {
            "lineage.commit_ms.p50": statistics.median(commit_ms),
            "lineage.commit_ms.max": max(commit_ms),
            "lineage.partitions": len(records),
            "lineage.bytes_written": sum(
                size for f, (size, _) in before.items() if f.endswith("data.parquet")
            ),
            "lineage.resume_skip_frac": 1.0 - rewritten / len(manifests),
        }

    def corrupt(self, res: dict) -> None:
        victim = sorted(glob.glob(os.path.join(res["out"], "part=*")))[0]
        shutil.rmtree(victim)

    def cleanup(self, res: dict) -> None:
        shutil.rmtree(res["out"], ignore_errors=True)

    def kernel_pass(self) -> dict:
        from gdal_ray.pipelines import flagship
        from gdal_ray.state import lineage

        out_dir = os.path.join(self.work, "kernel-out")
        shutil.rmtree(out_dir, ignore_errors=True)
        store = lineage.ManifestStore(out_dir)
        nbytes, keys = 0, set()
        for i, p in enumerate(self.paths):
            t = read_table(p, columns=self.columns)
            nbytes += t.nbytes
            tagged = flagship.encode_tiles(flagship.extract_coords(t))
            # one commit per (file, partition): the group-and-commit
            # step of write_partitioned without the shuffle
            for key in pc.unique(tagged[self.part_col]).to_pylist():
                part = tagged.filter(pc.equal(tagged[self.part_col], key))
                store.commit(f"{key}-{i}", part)
                keys.add(key)
        _expect(keys == self.expected_keys, "kernel pass partition set differs")
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"rows": self.n_rows, "read_bytes": nbytes}


class ParagraphDedup(Workload):
    """stages.dedup.dedup_paragraphs over multi-paragraph documents."""

    name = "paragraph_dedup"

    def generate(self) -> None:
        path = os.path.join(self.work, "docs", "docs.parquet")
        self.path, self.para_ids, texts = gen.paragraph_docs(self.seed, path, self.rows)
        self.expected = oracle.dedup_survivors(self.para_ids, texts)
        self.n_rows = self.rows
        self.n_paragraphs = sum(len(p) for p in self.para_ids)
        self.n_groups = len(texts)

    def warm_up(self) -> None:
        import ray.data as rd

        from gdal_ray.stages.dedup import dedup_paragraphs

        dedup_paragraphs(rd.read_parquet(self.path).limit(20)).to_pandas()

    def run(self) -> dict:
        import ray.data as rd

        from gdal_ray.stages.dedup import dedup_paragraphs

        ds = dedup_paragraphs(rd.read_parquet(self.path))
        return {"rows": self.n_rows, "out": ds.to_pandas(), "datasets": [ds]}

    def check(self, res: dict) -> None:
        out = res["out"]
        got = dict(zip(out["doc_id"].tolist(), out["text"].tolist()))
        _expect(len(got) == len(out), "a document appears twice")
        _expect(got == self.expected, f"survivors differ: {_diff(got, self.expected)}")

    def corrupt(self, res: dict) -> None:
        res["out"] = res["out"].iloc[1:]

    def kernel_pass(self) -> dict:
        t0 = time.perf_counter()
        res = self.run()
        wall = time.perf_counter() - t0
        self.check(res)
        return {"rows": self.n_rows, "layers": {"dedup.wall_s": wall}}

    def layer_counts(self, res: dict) -> dict:
        survivors = sum(t.count("\n") + 1 for t in res["out"]["text"])
        return {
            "dedup.paragraphs": self.n_paragraphs,
            "dedup.groups": self.n_groups,
            "dedup.survivor_frac": survivors / self.n_paragraphs,
        }


# per-layer metrics that only one workload's Ray pass produces
WARM_ROWS = 2_048

WORKLOAD_ONLY_LAYERS = (
    "lineage.commit_ms.p50", "lineage.commit_ms.max", "lineage.partitions",
    "lineage.bytes_written", "lineage.resume_skip_frac",
    "dedup.wall_s", "dedup.paragraphs", "dedup.groups", "dedup.survivor_frac",
)

WORKLOADS = {
    w.name: w
    for w in (GeotagGazetteer, GeotagContinuous, PartitionedWrite, ParagraphDedup)
}


def _head(path: str, rows: int) -> str:
    """A copy of the first ``rows`` rows of ``path``: the warm-up input."""
    out = os.path.join(os.path.dirname(os.path.dirname(path)), "warm-up.parquet")
    pq.write_table(pq.read_table(path).slice(0, rows), out)
    return out


def read_table(path: str, columns: list[str]) -> pa.Table:
    """The decode step of ``scan_parquet_files``' scan task."""
    return pq.read_table(path, columns=columns, use_threads=False)


def _snapshot(out_dir: str) -> dict:
    """Every file under ``out_dir`` with its size and mtime."""
    snap = {}
    for root, _, files in os.walk(out_dir):
        for f in files:
            st = os.stat(os.path.join(root, f))
            snap[os.path.join(root, f)] = (st.st_size, st.st_mtime_ns)
    return snap


def _diff(got: dict, want: dict) -> str:
    keys = sorted(set(got) | set(want))
    bad = [(k, got.get(k), want.get(k)) for k in keys if got.get(k) != want.get(k)]
    return f"{len(bad)} keys, first {bad[:3]}"
