"""Population-day benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload calm-day --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Each run measures ``--seconds`` seconds of back-to-back worker processes
(``worker.py``), each of which sets up and runs one population day from
the seed.  With ``--trace 0`` the run prints every end-to-end metric
(medians over the workers); with ``--trace 1`` it alternates untraced
and traced workers and prints every per-layer metric.  Every run checks
its outputs: every launched task finished, identical simulated outcomes
across all workers of the seed (traced ones included), and — traced —
that the named layers cover the window.  A worker that crashes or
outlives its deadline is killed with its whole process group.  A run
that fails any check counts all its tasks as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every check passed.  README.md describes the workloads and
the layer → metric → workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SCALE, NAMES  # noqa: E402

#: a whole run ends within this many seconds, whatever happens
RUN_BUDGET_S = 170.0
#: a single worker is killed after this many seconds
WORKER_TIMEOUT_S = 120.0
#: untraced workers per run, at least (medians need three)
MIN_WORKERS = 3
#: how often the resident memory of a worker's children is sampled
POLL_S = 0.05

END_TO_END = (
    ("tasks_per_s", "tasks/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mean_j_s", "s"),
    ("sim_p99_j_s", "s"),
    ("sim_jobs_per_task", "jobs"),
)


def environment(seed: int) -> dict:
    """What the numbers were measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():  # a plain checkout has no history
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "seed": seed,
    }


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(x) for x in fh.read().split()]
    except OSError:
        return []


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_worker(argv: list[str], timeout: float) -> dict:
    """Run one worker process to completion or to its deadline.

    Returns ``{"ok": bool, "result": dict | None, "error": str,
    "elapsed": s, "children_peak_mb": MB, "pgid": int}``.  The worker
    leads its own process group; the group is killed when the worker
    exits or times out, so a wedged shard worker can neither hang the
    benchmark nor outlive it.
    """
    t0 = time.perf_counter()
    spawn_ts = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv, "--spawn-ts", repr(spawn_ts)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    children_peak = 0.0
    error = ""
    try:
        while True:
            try:
                out, err = proc.communicate(timeout=POLL_S)
                break
            except subprocess.TimeoutExpired:
                # the children alive together (one day's shard workers)
                rss = sum(_rss_mb(c) for c in _children(proc.pid))
                children_peak = max(children_peak, rss)
                if time.perf_counter() - t0 > timeout:
                    _kill_group(proc.pid)
                    out, err = proc.communicate()
                    error = f"deadline of {timeout:.0f} s exceeded; worker killed"
                    break
    finally:
        _kill_group(proc.pid)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - t0
    result = None
    if not error:
        if proc.returncode != 0:
            tail = "\n".join(err.strip().splitlines()[-8:])
            error = f"worker exited with code {proc.returncode}:\n{tail}"
        else:
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                error = "worker printed no result"
    return {
        "ok": result is not None,
        "result": result,
        "error": error,
        "elapsed": elapsed,
        "children_peak_mb": children_peak,
        "pgid": proc.pid,
    }


def _quantiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: int | None = None,
    inject: str | None = None,
    log=print,
) -> dict:
    """Measure one workload; return its result line.

    That is ``correct``, ``attempted`` (tasks launched over all days,
    a failed worker's nominal ones included), ``failed`` and ``metrics``.
    A run that fails a check or loses a worker counts every attempted
    task as failed.  ``scale`` (tasks per day) and ``inject`` (a shard
    fault, see ``worker.py``) exist for the benchmark's own tests.
    """
    start = time.perf_counter()
    nominal = scale or DEFAULT_SCALE[name]
    base = ["--workload", name, "--seed", str(seed)]
    if scale is not None:
        base += ["--scale", str(scale)]
    if inject is not None:
        base += ["--inject", inject]
    runs: list[dict] = []
    problems: list[str] = []
    attempted = 0
    pattern = (False, True) if trace else (False,)
    k = 0
    while True:
        traced = pattern[k % len(pattern)]
        elapsed = time.perf_counter() - start
        same = [r["elapsed"] for r in runs if r["traced"] == traced]
        est = statistics.median(same) if same else 0.0
        n_plain = sum(1 for r in runs if not r["traced"])
        n_traced = len(runs) - n_plain
        enough = n_plain >= (1 if trace else MIN_WORKERS) and n_traced >= trace
        if enough and elapsed + est > seconds:
            break
        remaining = RUN_BUDGET_S - elapsed
        if runs and remaining < max(est * 1.5, 5.0):
            break
        r = run_worker(
            base + ["--trace", "1" if traced else "0"],
            timeout=min(WORKER_TIMEOUT_S, remaining),
        )
        k += 1
        r["traced"] = traced
        runs.append(r)
        if not r["ok"]:
            attempted += nominal
            problems.append(r["error"])
            log(f"# {name}: worker failed: {r['error']}")
            break
        res = r["result"]
        attempted += res["sim"]["launched"]
        bad = [c for c, ok in res["checks"].items() if not ok]
        if bad:
            problems.append(f"worker check(s) failed: {', '.join(bad)}")
        log(
            f"# {name} seed={seed} traced={int(traced)} "
            f"setup={res['setup_s']:.3f}s (host {res['setup_host_s']:.3f}s) "
            f"day={res['run_s']:.3f}s (host {res['run_host_s']:.3f}s) "
            f"digest={res['sim']['digest'][:12]}"
        )
    good = [r for r in runs if r["ok"]]
    plain = [r["result"] for r in good if not r["traced"]]
    traced_runs = [r["result"] for r in good if r["traced"]]
    metrics: dict = {}
    if len({r["result"]["sim"]["digest"] for r in good}) > 1:
        problems.append(
            f"simulated outcomes differ across {len(good)} workers of one seed"
        )
    if plain and not trace:
        sim = plain[0]["sim"]
        # the worker's own peak plus the sampled peak of its live children
        peaks = [
            r["result"]["peak_rss_self_mb"] + r["children_peak_mb"]
            for r in good
            if not r["traced"]
        ]
        rates = [p["tasks"] / p["run_s"] for p in plain]
        values = {
            "tasks_per_s": statistics.median(rates),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(peaks),
            "sim_mean_j_s": sim["sim_mean_j_s"],
            "sim_p99_j_s": sim["sim_p99_j_s"],
            "sim_jobs_per_task": sim["sim_jobs_per_task"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        # unscaled, for ratios between workloads scaled by different loops
        host_rate = statistics.median(p["tasks"] / p["run_host_s"] for p in plain)
        log(
            f"# {name}: {len(plain)} days, gave_up_frac="
            f"{sim['gave_up_frac']:.6f}, tasks_per_s quartiles="
            + "/".join(f"{q:.0f}" for q in _quantiles(rates))
            + f", host_tasks_per_s={host_rate:.1f}"
        )
    if trace and plain and traced_runs:
        metrics = _layer_report(plain, traced_runs)
    for p in problems:
        log(f"# {name}: CHECK FAILED: {p}")
    correct = not problems and bool(metrics)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
    }


def _layer_report(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians of the traced workers' ledgers."""
    keys = list(traced[0]["layers"])
    out = {}
    for key in keys:
        value = statistics.median(t["layers"][key] for t in traced)
        out[key] = {"value": value, "unit": _unit(key)}
    base = statistics.median(p["run_s"] for p in plain)
    slow = statistics.median(t["run_s"] for t in traced)
    out["trace.overhead_frac"] = {"value": slow / base - 1.0, "unit": "ratio"}
    return out


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_frac", "_ratio")) or key == "wms.jobs_per_resolve":
        return "ratio"
    if key.startswith("shard.bytes"):
        return "bytes"
    return "count"


def _print_table(name: str, metrics: dict) -> None:
    for key, m in metrics.items():
        print(f"{name:12s} {key:28s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(args.seed)))
    names = NAMES if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        reports[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_table(name, reports[name]["metrics"])
    if len(names) == 1:
        report = reports[names[0]]
    else:
        # one line for the whole set: metrics keyed "<workload>.<metric>"
        report = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {
                f"{name}.{key}": m
                for name, r in reports.items()
                for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
