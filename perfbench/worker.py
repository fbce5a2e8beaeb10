"""One measured population day in a fresh process.

Run by ``run.py``, never directly by hand::

    python3 perfbench/worker.py --workload calm-day --seed 3 --spawn-ts T

The process imports the package, generates the workload from the seed,
warms and restores its grid (set-up), runs the day through the public
API (the timed window) and prints one JSON line: host timings, the
simulated outcome and its digest, its own correctness checks and — with
``--trace 1`` — the per-layer ledger.  Set-up is measured from
``--spawn-ts``, the parent's wall clock just before it started this
process, to the first launch.  A fixed reference loop runs before the
set-up, between set-up and day, and after the day; the mean of the
loops on either side of each gives the host's speed meanwhile, and
set-up and day are also reported in reference seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

_W0 = time.time()
_P0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ledger as ledger_mod  # noqa: E402
import workloads  # noqa: E402

#: share of the traced window allowed outside every named layer
MAX_UNATTRIBUTED = 0.05
#: nominal time of :func:`reference_seconds` — times are reported as if
#: measured on a machine that runs the reference loop in this long
REFERENCE_S = 0.25


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn-ts", type=float, required=True)
    p.add_argument(
        "--inject",
        choices=("crash-shard", "hang-shard"),
        default=None,
        help="make a shard worker die or wedge (tests the harness)",
    )
    return p.parse_args(argv)


def _inject(kind: str):
    def hook(msg) -> None:
        if type(msg) is tuple and msg and msg[0] == "sync":
            if kind == "crash-shard":
                os._exit(3)
            time.sleep(3600.0)

    return hook


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a = a
        self.b = b


def _reference_loop(n: int) -> None:
    import heapq

    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    x = 0.5
    for i in range(n):
        x = (x * 3.9) % 1.0
        push(heap, (x, i, _Obj(i, None)))
        table[i & 4095] = _Obj(i, x)
        if len(heap) > 1024:
            pop(heap)


def reference_seconds(procs: int = 1, n: int = 150_000) -> float:
    """Host seconds of a fixed pure-Python loop (heap, dict, objects).

    The loop exercises what the simulator's hot paths do, so its time
    tracks the speed the machine gives a process right now.  With
    ``procs`` > 1 that many copies run at once, in forked processes, and
    the slowest sets the time: the speed of a day whose shards advance
    in lockstep.  The copies slow each other down, so the sharded day's
    scaled throughput over a one-process day's is *not* the shard
    speed-up; ``collect.py`` reports that from host seconds.
    """
    t0 = time.perf_counter()
    pids = []
    for _ in range(procs - 1):
        pid = os.fork()
        if pid == 0:
            try:
                _reference_loop(n)
            finally:
                os._exit(0)
        pids.append(pid)
    _reference_loop(n)
    for pid in pids:
        os.waitpid(pid, 0)
    return time.perf_counter() - t0


def to_reference(host_s: float, ref_before: float, ref_after: float) -> float:
    """``host_s`` in reference seconds, the host's speed taken from the
    reference loops run before and after it."""
    return host_s * REFERENCE_S * 2.0 / (ref_before + ref_after)


def _digest(result) -> str:
    h = hashlib.sha256()
    for f in result.fleets:
        h.update(f.j.tobytes())
        h.update(f.jobs_submitted.tobytes())
        h.update(str(f.gave_up).encode())
    h.update(repr(result.broker_dispatches).encode())
    h.update(repr((result.jobs_lost, result.jobs_stuck)).encode())
    return h.hexdigest()


def _outcome(wl, result) -> tuple[dict, dict]:
    """Simulated metrics and the conservation checks of one result."""
    import numpy as np

    checks = {}
    launched = wl.spec.total_tasks
    finished = sum(int(f.j.size) for f in result.fleets)
    gave_up = sum(int(f.gave_up) for f in result.fleets)
    # the engines report gave_up as n_tasks - finished, so a task the
    # program drops reads as a give-up; every workload is sized to finish
    # all its tasks well before the horizon, so any give-up fails the run
    checks["all_tasks_finished"] = finished == launched and all(
        f.j.size == f.spec.n_tasks for f in result.fleets
    )
    j = np.concatenate([f.j for f in result.fleets])
    jobs = np.concatenate([f.jobs_submitted for f in result.fleets])
    checks["latencies_valid"] = bool(
        j.size == finished and np.all(np.isfinite(j)) and np.all(j >= 0.0)
    )
    checks["jobs_valid"] = bool(jobs.size == finished and np.all(jobs >= 1))
    cfg = wl.config
    if cfg.retry is None and cfg.submit_faults is None and cfg.resubmit is None:
        # every copy a task used went through the grid's submit counter
        # (middleware retries and agent rescues keep their own books)
        checks["jobs_ledger"] = int(jobs.sum()) == int(
            result.metrics.get("grid.jobs_submitted", -1)
        )
    sim = {
        "launched": launched,
        "finished": finished,
        "gave_up": gave_up,
        "sim_mean_j_s": float(j.mean()) if j.size else 0.0,
        "sim_p99_j_s": float(np.percentile(j, 99)) if j.size else 0.0,
        "sim_jobs_per_task": float(jobs.sum() / j.size) if j.size else 0.0,
        "gave_up_frac": gave_up / launched if launched else 0.0,
        "digest": _digest(result),
    }
    return sim, checks


def _sum_metric(metrics: dict, prefix: str, suffix: str) -> int:
    return int(
        sum(
            v
            for k, v in metrics.items()
            if k.startswith(prefix) and k.endswith(suffix)
        )
    )


def _layer_metrics(led, wall, result, dispatched) -> dict:
    """Every per-layer metric of one traced window (zero where unused)."""
    calls = led.calls
    s = led.self_s
    # the sharded day reports its parent's split instead of shard.self_s
    out = {
        f"{layer}.self_s": s.get(layer, 0.0)
        for layer in ledger_mod.LAYERS
        if layer != "shard"
    }
    resolves = calls["wms", "_resolve_bucket"]
    attempts = led.cancel_attempts["site"]
    out.update(
        {
            "events.dispatched": dispatched,
            "events.heap_peak": led.heap_peak,
            "wms.resolves": resolves,
            "wms.jobs_per_resolve": (
                sum(result.broker_dispatches) / resolves if resolves else 0.0
            ),
            "site.cancel_calls": calls["site", "cancel"] + calls["site", "cancel_many"],
            "site.cancel_hit_ratio": (
                led.cancel_hits["site"] / attempts if attempts else 0.0
            ),
            "fairshare.wakes": calls["fairshare", "_on_wake"],
            "grid.submit_calls": calls["grid", "submit"] + calls["grid", "submit_many"],
            "soa.launch_calls": calls["soa", "_fire_launches"],
            "soa.expiry_calls": (
                calls["soa", "_expire_block"] + calls["soa", "_expire_one"]
            ),
            "middleware.attempts": _sum_metric(result.metrics, "mw.", ".submits"),
            "middleware.retries": calls["middleware", "_retry"],
            "middleware.failovers": _sum_metric(result.metrics, "mw.", ".failovers"),
            "weather.rescues": int(result.metrics.get("resubmit.resubmissions", 0)),
            "shard.epochs": 0,
            "shard.parent_wait_s": 0.0,
            "shard.route_s": 0.0,
            "shard.bytes_out": 0,
            "shard.bytes_in": 0,
            "trace.unattributed_frac": s.get("other", 0.0) / wall,
        }
    )
    return out


def _shard_metrics(probe, wall, result) -> dict:
    """The sharded day's ledger: the parent's window, all in ``shard``."""
    out = _layer_metrics(ledger_mod.Ledger(), wall, result, 0)
    out.update(
        {
            "shard.epochs": probe.runs_sent // max(1, len(probe.conns)),
            "shard.parent_wait_s": probe.recv_s,
            "shard.route_s": wall - probe.recv_s - probe.send_s,
            "shard.bytes_out": probe.bytes_out,
            "shard.bytes_in": probe.bytes_in,
        }
    )
    return out


def _run_day(wl, probe, led, ref_start: float, ref_procs: int):
    """Set up and run the day once, with reference loops around it.

    Returns ``(result, t_ready, t_first, t_end, refs, dispatched)``:
    set-up ends at ``t_ready`` and the day runs from ``t_first`` (the
    first launch) to ``t_end``.  ``refs`` is ``(after set-up, before the
    day, after the day)``: a loop runs between set-up and first launch
    where the two can be told apart.  On the sharded day they cannot —
    the first launch is the parent's first ``run`` message, after the
    shard grids were warmed, pickled and forked inside
    ``run_population_sharded`` — so set-up and day share the loops run
    before the set-up (``ref_start``) and after the day.
    """
    from repro.gridsim.grid import warmed_grid
    from repro.population import run_population, run_population_sharded

    if wl.sharded:
        t_call = time.perf_counter()
        result = run_population_sharded(
            wl.config,
            wl.spec,
            shards=workloads.SHARDS,
            seed=wl.pop_seed,
            grid_seed=wl.grid_seed,
            warm=workloads.WARM,
        )
        t_end = time.perf_counter()
        t_first = probe.first_send if probe.first_send is not None else t_call
        after = reference_seconds(ref_procs)
        return result, t_first, t_first, t_end, (after, ref_start, after), 0
    grid = warmed_grid(wl.config, wl.grid_seed, workloads.WARM)
    t_ready = time.perf_counter()
    mid = reference_seconds(ref_procs)
    ev0 = grid.sim.events_processed
    if led is not None:
        led.reset()
        ledger_mod.activate(led)
    t_first = time.perf_counter()
    result = run_population(grid, wl.spec, seed=wl.pop_seed)
    t_end = time.perf_counter()
    if led is not None:
        ledger_mod.activate(None)
        led.close()
    refs = (mid, mid, reference_seconds(ref_procs))
    return result, t_ready, t_first, t_end, refs, grid.sim.events_processed - ev0


def main(argv=None) -> int:
    args = _parse(argv)
    # host speed before set-up (on both cores at once for the sharded day)
    ref_procs = workloads.SHARDS if args.workload == "sharded-day" else 1
    ref_start = reference_seconds(ref_procs)
    traced = bool(args.trace)
    wl = workloads.make(args.workload, args.seed, args.scale)
    led = probe = None
    if wl.sharded:
        probe = ledger_mod.install_shard_probe(timed=traced)
        if args.inject:
            probe.child_hook = _inject(args.inject)
    elif traced:
        ledger_mod.install()
        led = ledger_mod.Ledger()
    result, t_ready, t_first, t_end, refs, dispatched = _run_day(
        wl, probe, led, ref_start, ref_procs
    )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the reference loop before the imports is not set-up
    setup_s = (_W0 - args.spawn_ts) + (t_ready - _P0) - ref_start
    run_s = t_end - t_first
    sim, checks = _outcome(wl, result)
    out = {
        "workload": wl.name,
        "seed": args.seed,
        "traced": traced,
        "tasks": sim["finished"] + sim["gave_up"],
        "setup_s": to_reference(setup_s, ref_start, refs[0]),
        "run_s": to_reference(run_s, refs[1], refs[2]),
        "setup_host_s": setup_s,
        "run_host_s": run_s,
        "peak_rss_self_mb": peak_mb,
        "sim": sim,
        "checks": checks,
    }
    if traced and wl.sharded:
        # the parent's whole window is shard time: there is no split to check
        out["layers"] = _shard_metrics(probe, run_s, result)
    elif traced:
        wall = led.wall
        out["layers"] = _layer_metrics(led, wall, result, dispatched)
        named = sum(v for k, v in led.self_s.items() if k in ledger_mod.LAYERS)
        # the named layers cover the window, up to the allowed remainder
        checks["layers_sum_to_wall"] = (
            1.0 - MAX_UNATTRIBUTED <= named / wall <= 1.0 + 1e-9
        )
        if led.calls["soa", "__init__"]:
            # the pool's settles, counted by the ledger, are the finished tasks
            checks["pool_settles"] = led.calls["soa", "settle"] == sim["finished"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
