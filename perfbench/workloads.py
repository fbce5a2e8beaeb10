"""The four population-day workloads, generated from a seed.

Each workload is a :class:`Workload`: a grid config, a population spec
and the way the day is executed (``run_population`` on one process, or
``run_population_sharded`` across two).  The program under test receives
only the generated ``GridConfig`` and ``PopulationSpec`` plus the seed
that keys the grid and the launch schedule.  Engines are pinned in every
config, so the ``REPRO_SITE_ENGINE``/``REPRO_WMS_ENGINE`` test-matrix
variables never change what the benchmark measures.  README.md records
why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: default task count per workload (a full diurnal day each)
DEFAULT_SCALE = {
    "calm-day": 100_000,
    "retry-day": 100_000,
    "fault-day": 50_000,
    "sharded-day": 100_000,
}

#: worker processes of the sharded workload (the box has 2 cores)
SHARDS = 2

#: virtual warm-up before the first launch (the presets' value)
WARM = 6 * 3600.0

#: retry-day timeout: close to the ~70 s median J of the FIFO day, so
#: client timeouts, cancels and resubmissions sit on the hot path
RETRY_T_INF = 90.0


@dataclass(frozen=True)
class Workload:
    """One generated benchmark input."""

    name: str
    config: object
    spec: object
    #: keys the grid's RNG streams (per shard on the sharded day)
    grid_seed: int
    #: keys the launch schedule; kept apart from ``grid_seed`` because
    #: both derive child streams from the same integer the same way
    pop_seed: int
    sharded: bool = False


def _pin(config):
    return replace(config, site_engine="vector", wms_engine="batched")


def _calm(scale: int):
    from repro.population.presets import fleet_grid_config, fleet_population_spec

    return _pin(fleet_grid_config()), fleet_population_spec(scale)


def _retry(scale: int):
    from repro.core.strategies import (
        DelayedResubmission,
        MultipleSubmission,
        SingleResubmission,
    )
    from repro.gridsim.grid import GridConfig, SiteConfig
    from repro.population.spec import FleetSpec, PopulationSpec
    from repro.traces.generator import DiurnalProfile

    sites = tuple(
        SiteConfig(
            name=f"fifo{i:02d}", n_cores=256, utilization=0.8, runtime_median=1800.0
        )
        for i in range(16)
    )
    t_inf = RETRY_T_INF

    def n(frac: float) -> int:
        return int(scale * frac)

    spec = PopulationSpec(
        fleets=(
            FleetSpec("biomed", SingleResubmission(t_inf=t_inf), n(0.35), runtime=120.0),
            FleetSpec(
                "biomed",
                DelayedResubmission(t0=0.6 * t_inf, t_inf=t_inf),
                n(0.15),
                runtime=120.0,
                label="biomed/delayed",
            ),
            FleetSpec(
                "atlas",
                MultipleSubmission(b=5, t_inf=t_inf),
                n(0.15),
                runtime=120.0,
                label="atlas/bursts",
            ),
            FleetSpec("cms", SingleResubmission(t_inf=t_inf), n(0.35), runtime=120.0),
        ),
        window=86_400.0,
        diurnal=DiurnalProfile(amplitude=0.4),
    )
    return _pin(GridConfig(sites=sites)), spec


def _fault(scale: int):
    from repro.gridsim.faults import FaultModel, SubmitFaultConfig
    from repro.gridsim.federation import BrokerConfig
    from repro.gridsim.health import HealthConfig
    from repro.gridsim.middleware import RetryPolicy
    from repro.gridsim.weather import ResubmitConfig, StormConfig, WeatherConfig
    from repro.population.presets import fleet_grid_config, fleet_population_spec

    base = fleet_grid_config()
    names = tuple(s.name for s in base.sites)
    half = len(names) // 2
    config = replace(
        base,
        brokers=(
            BrokerConfig("wms-a", names[:half], info_lag=600.0),
            BrokerConfig("wms-b", names[half:], info_lag=600.0),
        ),
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
        submit_faults=SubmitFaultConfig(p_fail=0.05, p_landed=0.5),
        retry=RetryPolicy(),
        # frequent short storms: ~27 a day, half of them downing a
        # broker.  Rare long ones (or two overlapping broker downs) would
        # swing the day's mean J by ~30 % from seed to seed
        weather=WeatherConfig(
            storm=StormConfig(
                mean_interval=3600.0,
                mean_duration=300.0,
                subset_size=2,
                broker_prob=0.5,
            )
        ),
        health=HealthConfig(),
        resubmit=ResubmitConfig(),
    )
    return _pin(config), fleet_population_spec(scale)


_BUILDERS = {
    "calm-day": _calm,
    "retry-day": _retry,
    "fault-day": _fault,
    "sharded-day": _calm,
}

NAMES = tuple(_BUILDERS)


def make(name: str, seed: int, scale: int | None = None) -> Workload:
    """Generate workload ``name`` for ``seed`` (``scale`` tasks, or the default)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; available: {', '.join(NAMES)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    import numpy as np

    config, spec = _BUILDERS[name](scale or DEFAULT_SCALE[name])
    grid_seed, pop_seed = (
        int(x) for x in np.random.SeedSequence(seed).generate_state(2)
    )
    return Workload(
        name, config, spec, grid_seed, pop_seed, sharded=name == "sharded-day"
    )
