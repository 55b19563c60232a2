"""The Ray driver of one benchmark run; ``run.py`` starts it.

It generates the workload's inputs. With ``--trace 0`` it then sets up
Ray three times (start, broadcast ``ray.put``, one warm-up job), and
after each set-up runs jobs in a closed loop with one client for a
third of ``--seconds``. With ``--trace 1`` it sets up once and makes
the traced run. It reports through JSON event lines on
``--events-fd``; ``run.py`` turns them into metrics, watches the
per-job deadline and kills this process if a job hangs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))  # the checkout's gdal_ray

import workloads  # noqa: E402

SETUPS = 3  # set-ups per timed run; setup_s is their median


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def nproc() -> int:
    """What coreutils ``nproc`` prints: the usable CPUs, further limited
    by OMP_NUM_THREADS when that is set."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def ray_init(num_cpus: int, temp_dir: str | None) -> None:
    import ray
    from ray.data import DataContext

    kwargs = {
        "address": "local",
        "num_cpus": num_cpus,
        "include_dashboard": False,
        "logging_level": "ERROR",
        "log_to_driver": False,
        "object_store_memory": 512 * 1024**2,
    }
    if temp_dir:
        kwargs["_temp_dir"] = temp_dir
    ray.init(**kwargs)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def run_job(w, inject: str | None) -> dict:
    """One job with its oracle check → event fields."""
    t0 = time.perf_counter()
    res = None
    try:
        if inject == "hang":
            _hang()
        res = w.run()
        wall = res.get("wall_s", time.perf_counter() - t0)
        if inject == "corrupt":
            w.corrupt(res)
        w.check(res)
        ev = {"ok": True, "wall_s": wall, "rows": res["rows"]}
        if "resume_s" in res:
            ev["resume_s"] = res["resume_s"]
    except Exception as e:  # a failed job is counted, the loop goes on
        traceback.print_exc()
        return {"ok": False, "error": repr(e)[:300]}
    finally:
        if res is not None:
            w.cleanup(res)
    return ev


def _hang() -> None:
    """A job that never finishes (self-test of the hard timeout)."""
    import ray

    @ray.remote
    def forever():
        time.sleep(10**6)

    ray.get(forever.remote())


def timed(w, seconds: float, inject: str | None, emit) -> None:
    """Jobs in a closed loop with one client for ``seconds``."""
    t_start = time.perf_counter()
    first = True
    while first or time.perf_counter() - t_start < seconds:
        first = False
        emit(ev="op_start", loadavg=loadavg())
        ev = run_job(w, inject)
        emit(ev="op_end", loadavg=loadavg(), **ev)


# --------------------------------------------------------------------------
# traced run


def _op_class(name: str) -> str:
    if re.match(r"(Read|FromItems|FromArrow|Input)", name):
        return "read"
    if re.match(r"(Sort|Aggregate|Repartition|HashShuffle|RandomShuffle|Join|Zip)", name):
        return "shuffle"
    return "map"


def ray_data_metrics(datasets, wall: float) -> dict:
    """Per operator class: summed task wall time, from the stats that
    ``Dataset.stats()`` prints (its structured summary)."""
    seen, ops = set(), []

    def walk(summary):
        for op in summary.operators_stats:
            key = (summary.dataset_uuid, summary.number, op.operator_name)
            if key not in seen:
                seen.add(key)
                ops.append(op)
        for p in summary.parents:
            walk(p)

    for ds in datasets:
        walk(ds._get_stats_summary())
    m = {f"ray_data.{c}.wall_s": 0.0 for c in ("read", "map", "shuffle")}
    tasks = 0
    for op in ops:
        m[f"ray_data.{_op_class(op.operator_name)}.wall_s"] += op.wall_time.get("sum", 0.0)
        n = re.match(r"(\d+) tasks executed", op.block_execution_summary_str or "")
        tasks += int(n.group(1)) if n else 0
    busy = sum(m.values())
    m["ray_data.tasks"] = tasks
    m["ray_data.wall_s"] = wall
    m["ray_data.overhead_s"] = wall - busy
    print("ray_data operators:", [(op.operator_name, round(op.wall_time.get("sum", 0.0), 4))
                                  for op in ops], file=sys.stderr)
    return m


def traced(w, args, emit) -> None:
    """Alternate plain and traced kernel passes for ``--seconds``, then
    one Ray pass for Dataset stats and the lineage/dedup counts."""
    import tracing

    plain, wrapped, layers, fails, n = [], [], [], 0, 0
    t_start = time.perf_counter()
    while n < 2 or time.perf_counter() - t_start < args.seconds:
        # alternate which pass of a pair runs first
        for traced_pass in ((False, True), (True, False))[n // 2 % 2]:
            tr = tracing.Tracer()
            n += 1
            t0 = time.perf_counter()
            try:
                if traced_pass:
                    extra = [(workloads, "read_table", "sources.read", None)]
                    with tr.installed(extra):
                        counts = w.kernel_pass()
                else:
                    counts = w.kernel_pass()
            except Exception:
                traceback.print_exc()
                fails += 1
                continue
            wall = time.perf_counter() - t0
            if traced_pass:
                wrapped.append(wall)
                m = tracing.layer_metrics(tr, counts)
                m.update(counts.get("layers", {}))
                layers.append(m)
            else:
                plain.append(wall)
    if not layers or not plain:
        emit(ev="layers", metrics={}, attempted=n, failed=fails)
        return
    m = dict.fromkeys(workloads.WORKLOAD_ONLY_LAYERS, 0.0)
    m.update({k: statistics.median(x[k] for x in layers) for k in layers[0]})
    m["trace.plain_s"] = statistics.median(plain)
    m["trace.wrapped_s"] = statistics.median(wrapped)
    m["trace.overhead_frac"] = m["trace.wrapped_s"] / m["trace.plain_s"] - 1.0

    n += 1
    try:
        wall, datasets, counts = w.ray_pass()
        m.update(ray_data_metrics(datasets, wall))
        m.update(counts)
    except Exception:
        traceback.print_exc()
        fails += 1
    emit(ev="layers", metrics=m, attempted=n, failed=fails)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--ray-temp", default="")
    p.add_argument("--events-fd", type=int, required=True)
    p.add_argument("--size", default="normal", choices=("normal", "tiny"))
    p.add_argument("--inject", choices=("corrupt", "hang"))
    args = p.parse_args()

    events = os.fdopen(args.events_fd, "w", buffering=1)

    def emit(**kw):
        events.write(json.dumps(kw) + "\n")

    t0 = time.perf_counter()
    w = workloads.WORKLOADS[args.workload](args.seed, args.work, args.size)
    num_cpus = nproc()
    emit(ev="host", nproc=num_cpus, ray_num_cpus=num_cpus,
         generate_s=time.perf_counter() - t0)

    import ray

    # each set-up is followed by its share of the measured seconds, so
    # the jobs of one run sample the host over the whole run
    windows = 1 if args.trace else SETUPS
    for _ in range(windows):
        t0 = time.perf_counter()
        ray_init(num_cpus, args.ray_temp or None)
        try:
            w.setup()
            w.warm_up()
            emit(ev="setup", setup_s=time.perf_counter() - t0)
            if args.trace:
                traced(w, args, emit)
            else:
                timed(w, args.seconds / windows, args.inject, emit)
        finally:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
