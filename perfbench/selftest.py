"""The benchmark's own tests (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

Every workload runs at a tiny scale through the real harness (worker
processes, deadlines, checks); nothing here installs a wrapper in the
test process itself, so the package's classes stay untouched.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import run  # noqa: E402
from workloads import NAMES  # noqa: E402

TINY = 2000


def _quiet(*_args) -> None:
    return None


def _alive_in_group(pgid: int) -> list[int]:
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


@pytest.mark.parametrize("name", NAMES)
def test_smoke_each_workload(name):
    report = run.run_workload(name, 3, 1.0, False, scale=TINY, log=_quiet)
    assert report["correct"], report
    assert report["attempted"] >= run.MIN_WORKERS * TINY
    assert report["failed"] == 0
    assert set(report["metrics"]) == {k for k, _ in run.END_TO_END}
    for m in report["metrics"].values():
        assert m["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced(name):
    # run_workload fails the run when a traced day's digest differs from
    # the untraced days' or the named layers miss the window
    report = run.run_workload(name, 4, 1.0, True, scale=TINY, log=_quiet)
    assert report["correct"], report
    metrics = report["metrics"]
    assert metrics["trace.unattributed_frac"]["value"] <= 0.05
    if name == "sharded-day":
        assert metrics["shard.epochs"]["value"] > 0
        assert metrics["shard.bytes_in"]["value"] > 0
        assert metrics["fairshare.self_s"]["value"] == 0.0
    else:
        assert metrics["shard.epochs"]["value"] == 0
        assert metrics["events.dispatched"]["value"] > 0
    if name == "fault-day":
        assert metrics["client.self_s"]["value"] > 0
        assert metrics["middleware.self_s"]["value"] > 0
        assert metrics["soa.self_s"]["value"] == 0.0
    else:
        assert metrics["client.self_s"]["value"] == 0.0
        assert metrics["middleware.self_s"]["value"] == 0.0
    if name == "retry-day":
        assert metrics["fairshare.self_s"]["value"] == 0.0
        assert metrics["site.self_s"]["value"] > 0
    if name == "calm-day":
        assert metrics["fairshare.self_s"]["value"] > 0
        assert metrics["site.self_s"]["value"] == 0.0


def test_worker_repeats_and_reports_layers():
    r = run.run_worker(
        ["--workload", "retry-day", "--seed", "5", "--scale", str(TINY), "--trace", "1"],
        timeout=60,
    )
    assert r["ok"], r["error"]
    res = r["result"]
    assert all(res["checks"].values()), res["checks"]
    layers = res["layers"]
    named = sum(layers[f"{x}.self_s"] for x in ledger.LAYERS if x != "shard")
    wall = res["run_host_s"]
    # self times plus the unattributed share tile the window; the
    # worker's window starts a hair after its own timer, hence the slack
    assert named / wall + layers["trace.unattributed_frac"] == pytest.approx(1.0, abs=0.01)


def test_ledger_self_times_tile_the_window():
    led = ledger.Ledger()
    ledger.activate(led)
    try:

        def busy(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass

        inner = ledger.Dispatch(lambda: busy(0.01), "site", "inner")

        def outer_body():
            busy(0.01)
            inner()
            busy(0.01)

        outer = ledger.Dispatch(outer_body, "wms", "outer")
        led.reset()
        busy(0.005)
        outer()
        outer()
        led.close()
    finally:
        ledger.activate(None)
    total = sum(led.self_s.values())
    assert total == pytest.approx(led.wall, rel=1e-9)
    assert led.self_s["site"] == pytest.approx(0.02, abs=0.01)
    assert led.self_s["wms"] == pytest.approx(0.04, abs=0.02)
    assert led.calls["wms", "outer"] == 2 and led.calls["site", "inner"] == 2


def test_classify_attributes_by_instance_class():
    from functools import partial

    class Fake:
        def tick(self):
            return None

    Fake.__module__ = "repro.gridsim.fairshare"
    assert ledger.classify(partial(Fake().tick)) == ("fairshare", "tick")
    assert ledger.classify(print) == ("other", "print")


@pytest.mark.parametrize("inject", ["crash-shard", "hang-shard"])
def test_wedged_or_crashed_shard_is_a_recorded_failure(inject):
    t0 = time.perf_counter()
    r = run.run_worker(
        [
            "--workload", "sharded-day", "--seed", "1", "--scale", str(TINY),
            "--trace", "0", "--inject", inject,
        ],
        timeout=20,
    )
    elapsed = time.perf_counter() - t0
    assert not r["ok"]
    assert elapsed < 60
    if inject == "hang-shard":
        assert "deadline" in r["error"]
    time.sleep(0.2)
    assert _alive_in_group(r["pgid"]) == []


def test_failed_run_exits_nonzero_and_counts_all_tasks_failed():
    report = run.run_workload(
        "sharded-day", 1, 1.0, False, scale=TINY, inject="crash-shard", log=_quiet
    )
    assert not report["correct"]
    assert report["failed"] == report["attempted"] > 0


def test_later_failed_worker_fails_every_task(monkeypatch):
    real = run.run_worker
    calls = []

    def second_crashes(argv, timeout):
        calls.append(argv)
        if len(calls) == 2:
            argv = argv + ["--inject", "crash-shard"]
        return real(argv, timeout)

    monkeypatch.setattr(run, "run_worker", second_crashes)
    report = run.run_workload("sharded-day", 1, 30.0, False, scale=TINY, log=_quiet)
    assert len(calls) == 2
    assert not report["correct"]
    assert report["failed"] == report["attempted"] == 2 * TINY


def test_failed_check_fails_every_task(monkeypatch):
    real = run.run_worker
    calls = []

    def third_differs(argv, timeout):
        calls.append(argv)
        r = real(argv, timeout)
        if len(calls) == 3:
            r["result"]["sim"]["digest"] = "0" * 64
        return r

    monkeypatch.setattr(run, "run_worker", third_differs)
    report = run.run_workload("calm-day", 2, 0.1, False, scale=TINY, log=_quiet)
    assert len(calls) == run.MIN_WORKERS == 3
    assert not report["correct"]
    assert report["failed"] == report["attempted"] == 3 * TINY


def test_missing_program_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "calm-day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
