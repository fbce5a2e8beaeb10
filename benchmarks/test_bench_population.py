"""Benchmarks: the multi-VO federation layer and the population driver.

``test_bench_multi_vo_population`` tracks the steady cost of driving a
mixed user population (fair-share sites, two federated brokers, diurnal
launches) at a moderate 2·10³ tasks, so regressions in the fair-share
commit loop or the wake predictor show up in ``BENCH_core.json``.

``test_bench_population_20k`` is the always-on population-scale guard:
2·10⁴ tasks on the same 16-site / 4096-core fair-share grid the 100k
day uses, small enough to keep the core baseline fast but large enough
that the block-resolved fair-share commit loop dominates — regressions
there move this number first.

``test_bench_multi_vo_adoption_10k`` and ``test_bench_population_100k``
are the opt-in large-scale runs (``REPRO_BENCH_LARGE=1`` or
``run_benchmarks.py --large``): the full ``multi-vo`` experiment — the
§8-style adoption sweep at 10⁴ tasks per point, whose rendered output is
also the committed ``benchmarks/results/multi-vo.txt`` artifact — and a
10⁵-task population day on a 4096-core fair-share grid, the regime the
batched client-event pipeline is built for.
"""

import os

import pytest

from repro.core.strategies import MultipleSubmission, SingleResubmission
from repro.experiments import run_experiment
from repro.experiments.multi_vo import multi_vo_grid_config
from repro.population import FleetSpec, PopulationSpec, run_population
from repro.gridsim import warmed_snapshot
from repro.traces.generator import DiurnalProfile

RUN_LARGE = os.environ.get("REPRO_BENCH_LARGE", "") not in ("", "0")


# the canonical fleet-scale workload now lives with the runtime so the
# CLI, the example and the benches all measure the same population day
from repro.population.presets import (
    fleet_grid_config,
    fleet_population_spec,
    fleet_sites_for,
)


def test_bench_multi_vo_population(benchmark):
    """2·10³ tasks across 3 VOs / 2 brokers on the warmed 576-core grid."""
    config = multi_vo_grid_config()
    snap = warmed_snapshot(config, seed=29, duration=6 * 3600.0)
    spec = PopulationSpec(
        fleets=(
            FleetSpec("biomed", SingleResubmission(t_inf=4000.0), 700),
            FleetSpec(
                "biomed",
                MultipleSubmission(b=3, t_inf=4000.0),
                300,
                label="biomed/adopters",
            ),
            FleetSpec("atlas", SingleResubmission(t_inf=4000.0), 600),
            FleetSpec("cms", SingleResubmission(t_inf=4000.0), 400),
        ),
        window=86_400.0,
        diurnal=DiurnalProfile(amplitude=0.4),
    )

    def run():
        return run_population(snap.restore(), spec, seed=29)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.total_finished + result.total_gave_up == 2000
    assert result.total_gave_up < 100
    assert sum(result.broker_dispatches) > 2000


def test_bench_population_20k(benchmark):
    """2·10⁴ tasks in one day on the fleet-scale grid (always on).

    A 1/5-scale replica of the 100k population day: same 4096-core
    fair-share grid, same fleet mix and diurnal window, so the
    fair-share commit loop, the wake predictor and the launch-schedule
    walker are exercised in their production regime on every core
    baseline run.
    """
    snap = warmed_snapshot(fleet_grid_config(), seed=41, duration=6 * 3600.0)
    spec = fleet_population_spec(20_000)

    def run():
        return run_population(snap.restore(), spec, seed=41)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.total_finished + result.total_gave_up == 20_000
    assert result.total_finished > 16_000


@pytest.mark.skipif(
    not RUN_LARGE, reason="set REPRO_BENCH_LARGE=1 (or --large) to run"
)
def test_bench_population_100k(benchmark):
    """10⁵ tasks in one day on a fleet-scale grid (opt-in, --large).

    The §8 population regime the batched client pipeline targets: a
    16-site / 4096-core fair-share grid, four fleets totalling 10⁵
    short tasks across a diurnal day — dispatch buckets fill with tens
    of jobs, sibling bursts batch-cancel, and the run finishes
    event-driven at the last task's completion.
    """
    snap = warmed_snapshot(fleet_grid_config(), seed=41, duration=6 * 3600.0)
    spec = fleet_population_spec(100_000)

    def run():
        return run_population(snap.restore(), spec, seed=41)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert result.total_finished + result.total_gave_up == 100_000
    assert result.total_finished > 80_000


@pytest.mark.skipif(
    not RUN_LARGE, reason="set REPRO_BENCH_LARGE=1 (or --large) to run"
)
def test_bench_population_1m(benchmark):
    """10⁶ tasks in one day: the population-1m milestone (opt-in).

    Ten times the 100k day on ten times the grid (160 fair-share sites
    / 40960 cores — ``fleet_sites_for`` keeps the per-site regime
    identical, a 16-site day saturates at this scale), run through the
    struct-of-arrays pool.  The point of this bench is *completing* at
    this scale in minutes on one core (the weekly population-smoke job
    runs it and uploads the JSON artifact); the per-run number tracks
    the pool's O(tasks) scaling against the 100k bench.
    """
    snap = warmed_snapshot(
        fleet_grid_config(fleet_sites_for(1_000_000)),
        seed=41,
        duration=6 * 3600.0,
    )
    spec = fleet_population_spec(1_000_000)

    def run():
        return run_population(snap.restore(), spec, seed=41)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert result.total_finished + result.total_gave_up == 1_000_000
    assert result.total_finished > 800_000


@pytest.mark.skipif(
    not RUN_LARGE, reason="set REPRO_BENCH_LARGE=1 (or --large) to run"
)
def test_bench_multi_vo_adoption_10k(benchmark, save_result):
    """The full multi-vo experiment: 4 adoption levels x 10⁴ tasks."""
    result = benchmark.pedantic(
        lambda: run_experiment("multi-vo"),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )
    save_result(result)
    sweep, shares = result.tables
    assert len(sweep.rows) == 4
    assert len(shares.rows) == 8
