#!/usr/bin/env python3
"""Benchmark of the gdal_ray engine. Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

One run starts ``driver.py`` as the single Ray driver process and
supervises it: it reads the driver's events, samples the summed RSS of
the driver and the ``ray::`` worker processes from /proc while a job
runs, and kills the driver and every Ray process (``ray stop --force``)
when a job exceeds its hard timeout, counting that job as failed.

Stdout gets readable lines (host facts, one line per job, every metric
by name with its unit) and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the ``end_to_end`` list of BENCHMARK.json, with
``--trace 1`` the ``per_layer`` list. ``attempted`` and ``failed`` are
ops_total and ops_failed: a job that times out, raises or disagrees
with its oracle counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

OP_TIMEOUT_S = 60.0  # a job slower than this is taken for a hang
RUN_LIMIT_S = 165.0  # the whole run, input generation included
RSS_PERIOD_S = 0.1
PAGE = os.sysconf("SC_PAGE_SIZE")
# AF_UNIX paths hold at most 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
RAY_SOCKET_SUFFIX = 72


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def session_pids(sid: int) -> list[int]:
    """Processes of session ``sid``. The driver leads its own session,
    and Ray's processes (GCS, raylet, agents, workers) stay in it."""
    pids = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    stat = f.read()
            except OSError:  # exited while listed
                continue
            if int(stat[stat.rindex(")") + 2:].split()[3]) == sid:
                pids.append(int(d))
    return pids


def is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read(5) == b"ray::"
    except OSError:
        return False


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * PAGE
    except OSError:
        return 0


class RssSampler(threading.Thread):
    """Peak summed RSS of the driver and the ray:: processes while a job
    runs."""

    def __init__(self, driver_pid: int):
        super().__init__(daemon=True)
        self.driver_pid = driver_pid
        self.lock = threading.Lock()
        self.active = False
        self.peak = 0
        self.stopped = threading.Event()

    def sample(self) -> int:
        workers = [p for p in session_pids(self.driver_pid) if is_ray_worker(p)]
        return sum(rss_bytes(p) for p in [self.driver_pid, *workers])

    def run(self) -> None:
        while not self.stopped.wait(RSS_PERIOD_S):
            with self.lock:
                if self.active:
                    self.peak = max(self.peak, self.sample())

    def begin(self) -> None:
        with self.lock:
            self.peak = self.sample()
            self.active = True

    def end(self) -> float:
        with self.lock:
            self.active = False
            return max(self.peak, self.sample()) / 2**20


def ray_stop() -> None:
    subprocess.run(
        [sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=60, check=False,
    )


def stop_session(sid: int) -> list[int]:
    """Kill what is left of the run's session and wait until it has
    ended → the pids that were still there."""
    left = session_pids(sid)
    if left:
        os.killpg(sid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while session_pids(sid) and time.monotonic() < deadline:
            time.sleep(0.1)
    return left


def run_once(workload, seed, seconds, trace, size="normal", inject=None,
             op_timeout=OP_TIMEOUT_S) -> dict:
    """Drive one run → {"host", "setup_s", "ops", "layers", "error",
    "left_over"}."""
    base = os.path.join(ROOT, ".pbw")
    work = os.path.join(base, f"{workload}-{seed}-{os.getpid()}")
    ray_temp = os.path.join(base, f"r{os.getpid()}")
    if len(ray_temp) + RAY_SOCKET_SUFFIX > 107:
        print(f"checkout path too long for Ray sockets under {ray_temp}; "
              "using Ray's default temp dir", file=sys.stderr)
        ray_temp = ""
    os.makedirs(work, exist_ok=True)
    rfd, wfd = os.pipe()
    cmd = [sys.executable, os.path.join(HERE, "driver.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", work, "--ray-temp", ray_temp,
           "--events-fd", str(wfd), "--size", size]
    if inject:
        cmd += ["--inject", inject]
    # Ray workers import gdal_ray from the checkout, whatever their cwd
    path = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0", PYTHONPATH=path)
    state = {"host": {"loadavg_before": loadavg()}, "setup_s": [], "ops": [],
             "layers": None, "error": None, "left_over": []}
    child = subprocess.Popen(cmd, pass_fds=(wfd,), stdout=sys.stderr,
                             stderr=sys.stderr, start_new_session=True,
                             env=env, cwd=ROOT)
    os.close(wfd)
    state["pid"] = child.pid
    sampler = RssSampler(child.pid)
    sampler.start()
    run_deadline = time.monotonic() + RUN_LIMIT_S
    op_deadline = None
    buf = b""
    try:
        while True:
            timeout = min(run_deadline, op_deadline or run_deadline) - time.monotonic()
            if timeout <= 0:
                what = "job" if op_deadline else "run"
                state["error"] = f"{what} timed out"
                if op_deadline:
                    state["ops"][-1].update(ok=False, error="timeout", rss_mb=sampler.end())
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                ray_stop()
                break
            if not select.select([rfd], [], [], timeout)[0]:
                continue
            chunk = os.read(rfd, 1 << 16)
            if not chunk:  # the driver closed its end: it has exited
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                ev = json.loads(line)
                kind = ev.pop("ev")
                if kind == "host":
                    state["host"].update(ev)
                elif kind == "setup":
                    state["setup_s"].append(ev["setup_s"])
                elif kind == "op_start":
                    sampler.begin()
                    op_deadline = time.monotonic() + op_timeout
                    state["ops"].append({"loadavg_before": ev["loadavg"]})
                elif kind == "op_end":
                    op_deadline = None
                    after = ev.pop("loadavg")
                    state["ops"][-1].update(ev, rss_mb=sampler.end(), loadavg_after=after)
                elif kind == "layers":
                    state["layers"] = ev
    finally:
        os.close(rfd)
        sampler.stopped.set()
        sampler.join()
        try:
            code = child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            code = child.wait()
        if code and not state["error"]:
            state["error"] = f"driver exited with code {code}"
        state["left_over"] = stop_session(child.pid)
        shutil.rmtree(work, ignore_errors=True)
        if ray_temp:
            shutil.rmtree(ray_temp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # another run's files are still there
            pass
    state["host"]["loadavg_after"] = loadavg()
    return state


def summarize(state: dict, trace: int) -> dict:
    """The result object; ``metrics`` holds what could be measured."""
    ops = state["ops"]
    if trace:
        lay = state["layers"] or {"metrics": {}, "attempted": 1, "failed": 1}
        attempted, failed, metrics = lay["attempted"], lay["failed"], lay["metrics"]
        if state["error"]:
            attempted, failed = attempted + 1, failed + 1
    else:
        ok = [o for o in ops if o.get("ok")]
        attempted = max(len(ops), 1)
        failed = attempted - len(ok)
        metrics = {}
        if ok:
            metrics["rows_per_s"] = statistics.median(o["rows"] / o["wall_s"] for o in ok)
            metrics["peak_rss_mb"] = statistics.median(o["rss_mb"] for o in ok)
            # a workload without resume support redoes the whole job
            # when resubmitted
            metrics["resume_s"] = statistics.median(o.get("resume_s", o["wall_s"]) for o in ok)
        if state["setup_s"]:
            metrics["setup_s"] = statistics.median(state["setup_s"])
    return {
        "correct": failed == 0 and not state["error"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(state: dict, result: dict, wanted: list[dict]) -> None:
    host = state["host"]
    print(f"host: nproc={host.get('nproc')} ray_num_cpus={host.get('ray_num_cpus')} "
          f"generate_s={host.get('generate_s')} setup_s={state['setup_s']} "
          f"loadavg_before={host['loadavg_before']} loadavg_after={host['loadavg_after']}")
    for i, op in enumerate(state["ops"]):
        print(f"job {i}: ok={op.get('ok')} wall_s={op.get('wall_s')} rows={op.get('rows')} "
              f"resume_s={op.get('resume_s')} rss_mb={op.get('rss_mb')} "
              f"loadavg {op.get('loadavg_before')} -> {op.get('loadavg_after')} "
              f"{op.get('error') or ''}")
    if state["error"]:
        print(f"error: {state['error']}")
    if state["left_over"]:
        print(f"killed {len(state['left_over'])} processes left over by the driver")
    for m in wanted:
        print(f"{m['name']} = {result['metrics'].get(m['name'])} {m['unit']}")
    print(f"ops_total = {result['attempted']} count")
    print(f"ops_failed = {result['failed']} count")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run every workload at tiny size, with and without a corrupted output or a hung job")
    a = p.parse_args(argv)
    if a.selftest:
        return selftest()
    if a.workload is None or a.seed is None or a.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    b = spec()
    if a.workload not in {w["name"] for w in b["workloads"]}:
        p.error(f"unknown workload {a.workload}")
    state = run_once(a.workload, a.seed, a.seconds, a.trace)
    result = summarize(state, a.trace)
    wanted = b["per_layer" if a.trace else "end_to_end"]
    report(state, result, wanted)
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print(f"no result: {missing} not measured", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in wanted}
    result["metrics"] = {n: {"value": result["metrics"][n], "unit": units[n]} for n in names}
    print(json.dumps(result))
    return 0


def selftest() -> int:
    """Every workload once at tiny size: clean, with a corrupted output,
    and traced; then one hung job, which must be killed and counted."""
    b = spec()
    layer_names = {m["name"] for m in b["per_layer"]}
    checks = []
    for name in (w["name"] for w in b["workloads"]):
        r = summarize(run_once(name, 1, 1, 0, size="tiny"), 0)
        checks.append((f"{name}: a clean run passes its oracle",
                       r["correct"] and r["failed"] == 0 and len(r["metrics"]) == 4))
        r = summarize(run_once(name, 1, 1, 0, size="tiny", inject="corrupt"), 0)
        checks.append((f"{name}: a corrupted output counts as failed",
                       not r["correct"] and r["failed"] == r["attempted"]))
        r = summarize(run_once(name, 1, 1, 1, size="tiny"), 1)
        checks.append((f"{name}: the traced run reports every per-layer metric",
                       r["correct"] and set(r["metrics"]) == layer_names))
    t0 = time.monotonic()
    state = run_once(b["workloads"][0]["name"], 1, 1, 0, size="tiny",
                     inject="hang", op_timeout=10)
    r = summarize(state, 0)
    checks.append(("a hung job is killed within its timeout and counted as failed",
                   r["failed"] == 1 and time.monotonic() - t0 < 90
                   and not session_pids(state["pid"])))
    for what, ok in checks:
        print(("PASS " if ok else "FAIL ") + what)
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
