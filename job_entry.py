"""`ray job submit` entrypoint for the flagship pipeline.

The north-rule launch contract: the job runs on a fixed-size Ray
cluster via

    ray job submit --working-dir . -- python job_entry.py \\
        --input /data/pages --output /out/tiles --zooms 7,9,12

On the cluster, ``ray.init(address="auto")`` attaches to the running
cluster; standalone (tests/sandbox) it starts a local session. The
pipeline is the end-to-end north-star slice: pages → geoparse →
tile/cell encode → PIP-join rollup → RESUMABLE partitioned parquet
(state/lineage.py manifest: one atomic commit per tile-zoom
partition with lineage records {partition, rows, content hash} — a
killed run re-submitted with the same --output skips completed
partitions via resume_filter).

Exit code 0 and a one-line JSON summary on stdout (rows, partitions,
skipped = partitions already committed when the run starts, wall
seconds, rows_per_s = rows / wall) — machine-checkable from the job
log.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="job_entry")
    p.add_argument("--input", required=True,
                   help="directory holding documents.parquet (or a "
                        "pages parquet with url/warc_ts/text/lang)")
    p.add_argument("--output", required=True,
                   help="output directory (manifest + partitioned "
                        "parquet; re-run with the same dir to resume)")
    p.add_argument("--zooms", default="7,9,12")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="standalone only; ignored on a cluster")
    a = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # on a cluster `ray job submit` sets RAY_ADDRESS; locally fall
        # back to a fresh local session
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if a.num_cpus:
            kwargs["num_cpus"] = a.num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from gdal_ray.pipelines import flagship
    from gdal_ray.state import lineage

    zooms = tuple(int(z) for z in a.zooms.split(","))
    t0 = time.time()
    pages = flagship.pages_from_documents(a.input)
    tagged = flagship.geotag_pages(pages, zooms, has_html=False)

    # partition key: coarse tile at the coarsest requested zoom —
    # bounded partition count, resume granularity = one tile
    zc = min(zooms)
    part_col = f"tile_z{zc}_x"
    skipped = len(lineage.ManifestStore(a.output).completed_keys())
    tagged = lineage.resume_filter(tagged, part_col, a.output)
    records = lineage.write_partitioned(
        tagged, a.output, part_col,
        lineage={"input": a.input, "zooms": list(zooms)},
    )
    wall = time.time() - t0
    rows = sum(r["rows"] for r in records)
    print(json.dumps({
        "rows": int(rows),
        "partitions": len(records),
        "skipped": skipped,
        "wall_s": round(wall, 2),
        "rows_per_s": round(rows / wall, 1),
        "output": a.output,
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
