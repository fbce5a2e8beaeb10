"""The struct-of-arrays population pool and the sharded runtime.

Two laws are pinned here:

* the SoA pool (:mod:`repro.population.soa`) reproduces the per-task
  TaskCore driver **bit-for-bit** on every site x WMS engine corner,
  with one broker and with two — same latencies, same jobs-per-task,
  same broker dispatch counts, same fair-share usage shares.  A task
  ledger records but changes no law, and it makes ``run_population``
  take the TaskCore driver, so a ledgered run is the oracle;
* the sharded runtime (:mod:`repro.population.shard`) is deterministic
  for a fixed shard count, and its ``shards=1`` degenerate case is the
  single-process driver itself.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.strategies import (
    DelayedResubmission,
    MultipleSubmission,
    SingleResubmission,
)
from repro.gridsim import (
    BrokerConfig,
    FaultModel,
    GridConfig,
    SiteConfig,
    warmed_snapshot,
)
from repro.gridsim.grid import warmed_grid
from repro.population import (
    FleetSpec,
    PopulationSpec,
    run_population,
    run_population_sharded,
)
from repro.population.soa import pool_supported
from repro.traces.generator import DiurnalProfile

SHARES = (("biomed", 0.4), ("atlas", 0.35), ("cms", 0.25))

CORNERS = [
    ("vector", "batched"),
    ("vector", "event"),
    ("event", "batched"),
    ("event", "event"),
]


def corner_config(
    site_engine: str, wms_engine: str, *, brokers=()
) -> GridConfig:
    sites = tuple(
        SiteConfig(
            name=f"s{i:02d}",
            n_cores=48,
            utilization=0.7,
            runtime_median=1500.0,
            vo_shares=SHARES,
        )
        for i in range(4)
    )
    return GridConfig(
        sites=sites,
        faults=FaultModel(p_lost=0.01, p_stuck=0.01),
        site_engine=site_engine,
        wms_engine=wms_engine,
        brokers=brokers,
    )


#: two federated brokers splitting the four corner sites
TWO_BROKERS = (
    BrokerConfig("wms-a", ("s00", "s01"), info_lag=600.0),
    BrokerConfig("wms-b", ("s02", "s03"), info_lag=600.0),
)


def mixed_spec(n: int = 240) -> PopulationSpec:
    """All three paper strategies, diurnal launches, a short window."""
    return PopulationSpec(
        fleets=(
            FleetSpec(
                "biomed", SingleResubmission(t_inf=4000.0), n, runtime=300.0
            ),
            FleetSpec(
                "atlas",
                MultipleSubmission(b=3, t_inf=4000.0),
                (2 * n) // 3,
                runtime=300.0,
            ),
            FleetSpec(
                "cms",
                DelayedResubmission(t0=3500.0, t_inf=6000.0),
                (2 * n) // 3,
                runtime=300.0,
            ),
        ),
        window=20_000.0,
        diurnal=DiurnalProfile(amplitude=0.4),
    )


def federated_spec(n: int = 240) -> PopulationSpec:
    """One fleet pinned by broker name, two on the round-robin default
    (one of them bursting: ``submit_many`` advances the cursor once per
    burst)."""
    return PopulationSpec(
        fleets=(
            FleetSpec(
                "biomed",
                SingleResubmission(t_inf=4000.0),
                n,
                runtime=300.0,
                broker="wms-b",
            ),
            FleetSpec(
                "atlas",
                MultipleSubmission(b=3, t_inf=4000.0),
                (2 * n) // 3,
                runtime=300.0,
            ),
            FleetSpec(
                "cms",
                DelayedResubmission(t0=3500.0, t_inf=6000.0),
                (2 * n) // 3,
                runtime=300.0,
            ),
        ),
        window=20_000.0,
        diurnal=DiurnalProfile(amplitude=0.4),
    )


def run_day(config: GridConfig, spec=None, *, oracle: bool = False):
    """One population day; ``oracle`` turns the task ledger on first."""
    grid = warmed_snapshot(config, seed=17, duration=2 * 3600.0).restore()
    if oracle:
        grid.enable_task_ledger()
        assert not pool_supported(grid)
    else:
        assert pool_supported(grid)
    return run_population(grid, spec or mixed_spec(), seed=9)


def assert_identical(a, b) -> None:
    assert len(a.fleets) == len(b.fleets)
    for x, y in zip(a.fleets, b.fleets):
        np.testing.assert_array_equal(x.j, y.j)
        np.testing.assert_array_equal(x.jobs_submitted, y.jobs_submitted)
        assert x.gave_up == y.gave_up
    assert a.duration == b.duration
    assert a.jobs_lost == b.jobs_lost
    assert a.jobs_stuck == b.jobs_stuck
    assert a.broker_dispatches == b.broker_dispatches
    assert a.site_usage_shares == b.site_usage_shares


class TestSoaOracleEquivalence:
    @pytest.mark.parametrize("site_engine,wms_engine", CORNERS)
    def test_soa_matches_legacy(self, site_engine, wms_engine):
        """Pool vs TaskCore oracle, bit-for-bit, on every engine corner."""
        config = corner_config(site_engine, wms_engine)
        oracle = run_day(config, oracle=True)
        soa = run_day(config)
        assert_identical(oracle, soa)
        assert soa.total_finished > 0

    @pytest.mark.parametrize("site_engine,wms_engine", CORNERS)
    def test_soa_matches_legacy_two_brokers(self, site_engine, wms_engine):
        """The pool resolves brokers through the grid: a pinned fleet and
        the round-robin default land where the TaskCore driver's do."""
        config = corner_config(site_engine, wms_engine, brokers=TWO_BROKERS)
        oracle = run_day(config, federated_spec(), oracle=True)
        soa = run_day(config, federated_spec())
        assert_identical(oracle, soa)
        assert soa.total_finished > 0
        assert min(soa.broker_dispatches) > 0
        assert soa.jobs_lost > 0 and soa.jobs_stuck > 0

    def test_auto_picks_pool_on_calm_grids(self, monkeypatch):
        """Without the per-task subsystems the pool runs every task."""
        from repro.population import driver

        def no_task_core(*args, **kwargs):
            raise AssertionError("the TaskCore driver ran on a pool grid")

        monkeypatch.setattr(driver, "launch_task", no_task_core)
        result = run_day(corner_config("vector", "batched"))
        assert result.total_finished > 0

    def test_auto_falls_back_when_unsupported(self, monkeypatch):
        """Tracing hooks the per-task surface: the TaskCore driver runs."""
        from repro.population import driver

        def no_pool(*args, **kwargs):
            raise AssertionError("the pool ran on a traced grid")

        monkeypatch.setattr(driver, "TaskPool", no_pool)
        config = dataclasses.replace(
            corner_config("vector", "batched"), tracing=True
        )
        grid = warmed_snapshot(config, seed=17, duration=2 * 3600.0).restore()
        assert not pool_supported(grid)
        result = run_population(grid, mixed_spec(), seed=9)
        assert result.total_finished > 0


class TestEmptyPopulations:
    def test_zero_task_fleet_contributes_nothing(self):
        config = corner_config("vector", "batched")
        spec = mixed_spec(60)
        empty = FleetSpec("cms", SingleResubmission(t_inf=4000.0), 0)
        padded = PopulationSpec(
            fleets=spec.fleets + (empty,),
            window=spec.window,
            diurnal=spec.diurnal,
        )
        snap = warmed_snapshot(config, seed=17, duration=2 * 3600.0)
        result = run_population(snap.restore(), padded, seed=9)
        assert result.fleets[-1].j.size == 0
        assert result.fleets[-1].gave_up == 0
        assert result.total_finished > 0

    def test_empty_spec_returns_empty_result(self):
        config = corner_config("vector", "batched")
        snap = warmed_snapshot(config, seed=17, duration=2 * 3600.0)
        grid = snap.restore()
        before = grid.now
        result = run_population(grid, PopulationSpec(fleets=()), seed=9)
        assert result.fleets == ()
        assert result.duration == 0.0
        assert grid.now == before  # the grid never advanced

    def test_all_zero_fleets_return_empty_outcomes(self):
        config = corner_config("vector", "batched")
        spec = PopulationSpec(
            fleets=(
                FleetSpec("biomed", SingleResubmission(t_inf=4000.0), 0),
                FleetSpec("atlas", MultipleSubmission(b=2, t_inf=4000.0), 0),
            )
        )
        snap = warmed_snapshot(config, seed=17, duration=2 * 3600.0)
        result = run_population(snap.restore(), spec, seed=9)
        assert len(result.fleets) == 2
        assert all(f.j.size == 0 and f.gave_up == 0 for f in result.fleets)

    def test_empty_spec_sharded(self):
        config = shard_config()
        result = run_population_sharded(
            config,
            PopulationSpec(fleets=()),
            shards=2,
            seed=9,
            grid_seed=5,
            warm=3600.0,
        )
        assert result.fleets == ()
        assert result.broker_dispatches == (0, 0)


def shard_config(n_sites: int = 6) -> GridConfig:
    sites = tuple(
        SiteConfig(
            name=f"s{i:02d}",
            n_cores=48,
            utilization=0.7,
            runtime_median=1500.0,
            vo_shares=SHARES,
        )
        for i in range(n_sites)
    )
    return GridConfig(sites=sites, wms_engine="batched")


class TestShardedRuntime:
    def test_determinism_for_fixed_shard_count(self):
        """Same seed + same shard count => bit-identical outcomes."""
        config = shard_config()
        spec = mixed_spec(150)
        kw = dict(shards=2, seed=9, grid_seed=5, warm=3600.0)
        a = run_population_sharded(config, spec, **kw)
        b = run_population_sharded(config, spec, **kw)
        assert_identical(a, b)
        assert a.total_finished + a.total_gave_up == spec.total_tasks
        assert len(a.broker_dispatches) == 2

    def test_one_shard_is_the_driver(self):
        """shards=1 delegates to run_population on the warmed grid."""
        config = shard_config()
        spec = mixed_spec(100)
        sharded = run_population_sharded(
            config, spec, shards=1, seed=9, grid_seed=5, warm=3600.0
        )
        direct = run_population(
            warmed_grid(config, 5, 3600.0), spec, seed=9
        )
        assert_identical(sharded, direct)

    def test_three_shard_conservation(self):
        config = shard_config()
        spec = mixed_spec(120)
        result = run_population_sharded(
            config, spec, shards=3, seed=9, grid_seed=5, warm=3600.0
        )
        assert result.total_finished + result.total_gave_up == spec.total_tasks
        assert result.total_finished > 0
        assert len(result.broker_dispatches) == 3
        # every task that finished submitted at least one grid job
        assert sum(result.broker_dispatches) >= result.total_finished

    def test_shard_count_validation(self):
        config = shard_config(n_sites=2)
        spec = mixed_spec(30)
        with pytest.raises(ValueError, match="exceeds"):
            run_population_sharded(
                config, spec, shards=3, seed=9, grid_seed=5, warm=3600.0
            )
        with pytest.raises(ValueError, match="positive int"):
            run_population_sharded(
                config, spec, shards=0, seed=9, grid_seed=5, warm=3600.0
            )

    def test_unshardable_features_rejected(self):
        spec = mixed_spec(30)
        with pytest.raises(ValueError, match="wms_engine='batched'"):
            run_population_sharded(
                GridConfig(sites=shard_config().sites, wms_engine="event"),
                spec,
                shards=2,
                seed=9,
                grid_seed=5,
                warm=3600.0,
            )
        with pytest.raises(ValueError, match="process fabric"):
            run_population_sharded(
                # pin the batched engine so this corner still tests the
                # tracing rejection when REPRO_WMS_ENGINE=event
                GridConfig(
                    sites=shard_config().sites,
                    wms_engine="batched",
                    tracing=True,
                ),
                spec,
                shards=2,
                seed=9,
                grid_seed=5,
                warm=3600.0,
            )
        pinned = PopulationSpec(
            fleets=(
                FleetSpec(
                    "biomed", SingleResubmission(t_inf=4000.0), 10, broker=0
                ),
            )
        )
        with pytest.raises(ValueError, match="pins a broker"):
            run_population_sharded(
                shard_config(),
                pinned,
                shards=2,
                seed=9,
                grid_seed=5,
                warm=3600.0,
            )

    def test_worker_killed_mid_epoch_is_a_clean_error(self, monkeypatch):
        """A shard worker that dies mid-run ends the run with an error
        naming it and its exit code — never a hang or a raw EOFError —
        and leaves no worker process behind."""
        import multiprocessing as mp
        import os
        import signal

        from repro.population import soa

        parent = os.getpid()
        launch = soa.TaskPool._launch
        launched = [0]

        def dying_launch(pool, i):
            # shard 1 owns s01, s03, s05; it dies on its fifth launch
            if os.getpid() != parent and pool.grid.sites[0].name == "s01":
                launched[0] += 1
                if launched[0] == 5:
                    os.kill(os.getpid(), signal.SIGKILL)
            launch(pool, i)

        monkeypatch.setattr(soa.TaskPool, "_launch", dying_launch)
        with pytest.raises(
            RuntimeError, match=r"shard worker 1 died mid-run \(exit code -9\)"
        ):
            run_population_sharded(
                shard_config(), mixed_spec(60), shards=2, seed=9,
                grid_seed=5, warm=3600.0,
            )
        assert mp.active_children() == []

    def test_worker_dead_between_epochs_is_a_clean_error(self, monkeypatch):
        """A worker that exits right after reporting an epoch: the
        parent's next message to it hits a closed pipe, which ends the
        run with the same error."""
        import multiprocessing as mp
        import os
        import time
        from multiprocessing.connection import Connection

        from repro.population import shard

        local_loads = shard._ShardRuntime._local_loads
        send = Connection.send
        # per process after the fork: only shard 1 ever sets "die"
        state = {"epochs": 0, "die": False}

        def counting_loads(rt):
            if rt.wid == 1:
                state["epochs"] += 1
                state["die"] = state["epochs"] == 3
            return local_loads(rt)

        parent = os.getpid()
        runs = [0]

        def send_then_die(conn, obj):
            if os.getpid() == parent and obj[0] == "run":
                runs[0] += 1
                if runs[0] == 8:
                    # the fourth epoch's message to shard 1: wait until
                    # the worker is gone, so the send meets a closed pipe
                    deadline = time.monotonic() + 10.0
                    while len(mp.active_children()) > 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
            send(conn, obj)
            if state["die"]:
                os._exit(5)  # right after reporting its third epoch

        monkeypatch.setattr(shard._ShardRuntime, "_local_loads", counting_loads)
        monkeypatch.setattr(Connection, "send", send_then_die)
        with pytest.raises(
            RuntimeError, match=r"shard worker 1 died mid-run \(exit code 5\)"
        ):
            run_population_sharded(
                shard_config(), mixed_spec(60), shards=2, seed=9,
                grid_seed=5, warm=3600.0,
            )
        assert mp.active_children() == []

    def test_grid_seed_must_be_int(self):
        with pytest.raises(TypeError, match="integer grid_seed"):
            run_population_sharded(
                shard_config(),
                mixed_spec(30),
                shards=2,
                seed=9,
                grid_seed=np.random.default_rng(0),
                warm=3600.0,
            )
