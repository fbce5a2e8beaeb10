"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/collect.py --runs 10 --seconds 25
    python3 perfbench/collect.py --runs 10 --workload retry-day --out perfbench/baseline.json

Runs ``run.py`` once per seed (seeds ``--first-seed`` onwards) on each
workload, exactly as the command line in ``BENCHMARK.json`` does, and
prints per end-to-end metric the median and the interquartile range as
a share of the median (``statistics.quantiles(values, n=4)``) next to
the metric's bound.  With ``calm-day`` and ``sharded-day`` both run it
also prints the shard speed-up: the ratio of their median throughputs
in host seconds, since the two are scaled by different reference loops
(see ``worker.reference_seconds``).  ``--out`` also writes the numbers
with the environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)`` of ``values``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workload", choices=names, action="append")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"environment": environment(args.first_seed), "workloads": {}}
    ok = True
    host_rates: dict[str, list[float]] = {}
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [
                *spec["command"],
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not last["correct"]:
                ok = False
                print(f"{name} seed={seed}: FAILED (exit {proc.returncode})")
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            for key, m in last["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            host = re.search(r"host_tasks_per_s=([0-9.]+)", proc.stdout)
            host_rates.setdefault(name, []).append(float(host.group(1)))
        rows = {}
        for key, vals in values.items():
            if len(vals) < 2:
                continue
            med, rel = spread(vals)
            rows[key] = {"median": med, "iqr_frac": rel, "values": vals}
            bound = bounds.get(key)
            mark = ""
            if bound is not None and rel > bound / 3:
                mark = "  > bound/3"
            print(
                f"{name:12s} {key:28s} median {med:14.6g}  iqr/median {rel:7.4f}"
                + (f"  bound {bound}" if bound is not None else "")
                + mark
            )
        report["workloads"][name] = rows
    if "calm-day" in host_rates and "sharded-day" in host_rates:
        speedup = statistics.median(host_rates["sharded-day"]) / statistics.median(
            host_rates["calm-day"]
        )
        report["shard_speedup_host"] = speedup
        report["host_tasks_per_s"] = host_rates
        print(f"shard speed-up (host seconds, sharded-day / calm-day): {speedup:.3f}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
