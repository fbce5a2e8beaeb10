"""The simulator starts and runs without importing scipy.

Importing scipy.stats dominates the package's start-up time and about
half of a population day's peak memory, yet no grid, population day,
sharded day or chaos campaign calls it.  Only the closed-form stack
(parametric families, MLE fitting, trace calibration) does, and it
imports scipy on first use.  Each check runs in a fresh interpreter,
because this test session has long since imported scipy itself; the
child inherits the environment, so the engine-matrix variables
(``REPRO_SITE_ENGINE``, ``REPRO_WMS_ENGINE``) pick the corner it runs
on.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_SCIPY_LOADED = """
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(body: str) -> None:
    """Run ``body`` in a new interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    script = "import sys\n" + _SCIPY_LOADED + textwrap.dedent(body)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_simulator_runs_without_scipy():
    run_fresh(
        """
        import dataclasses

        import repro
        import repro.cli
        import repro.gridsim
        import repro.population
        from repro.core.strategies import (
            DelayedResubmission,
            MultipleSubmission,
            SingleResubmission,
        )
        from repro.gridsim import FaultModel, GridConfig, SiteConfig
        from repro.gridsim.chaos import (
            chaos_grid_config,
            run_chaos,
            standard_schedules,
        )
        from repro.gridsim.grid import warmed_grid
        from repro.population import (
            FleetSpec,
            PopulationSpec,
            run_population,
            run_population_sharded,
        )

        assert scipy_loaded() == [], scipy_loaded()

        shares = (("biomed", 0.5), ("atlas", 0.5))
        sites = tuple(
            SiteConfig(
                name=f"s{i:02d}",
                n_cores=48,
                utilization=0.7,
                runtime_median=1500.0,
                vo_shares=shares,
            )
            for i in range(4)
        )

        def spec(n):
            return PopulationSpec(
                fleets=(
                    FleetSpec("biomed", SingleResubmission(t_inf=4000.0), n),
                    FleetSpec("atlas", MultipleSubmission(b=2, t_inf=4000.0), n),
                    FleetSpec(
                        "biomed",
                        DelayedResubmission(t0=3500.0, t_inf=6000.0),
                        n,
                    ),
                ),
                window=3600.0,
            )

        day = spec(70)
        config = GridConfig(sites=sites, faults=FaultModel(p_lost=0.01))
        result = run_population(warmed_grid(config, 5, 3600.0), day, seed=9)
        assert result.total_finished + result.total_gave_up == day.total_tasks
        assert result.total_finished > 0

        small = spec(20)
        sharded = run_population_sharded(
            dataclasses.replace(config, faults=FaultModel(), wms_engine="batched"),
            small,
            shards=2,
            seed=9,
            grid_seed=5,
            warm=3600.0,
        )
        assert sharded.total_finished + sharded.total_gave_up == small.total_tasks

        name, cfg = standard_schedules(chaos_grid_config())[0]
        out = run_chaos(
            dataclasses.replace(cfg, tracing=True),
            n_tasks=12,
            warm=2 * 3600.0,
            horizon=6 * 3600.0,
        )
        assert out.ok, (name, out.report.violations)
        assert out.events

        assert scipy_loaded() == [], scipy_loaded()
        """
    )


@pytest.mark.parametrize(
    "call",
    [
        "d = LogNormal(mu=5.0, sigma=0.5)\n"
        "assert abs(d.median() - np.exp(5.0)) < 1e-9 * np.exp(5.0)",
        "r = fit_distribution(x, 'weibull')\n"
        "assert r.family == 'weibull' and 0.0 <= r.ks_pvalue <= 1.0",
        "ranked = select_model(x)\n"
        "assert ranked[0].family == 'lognormal'",
        "c = calibrate_lognormal(400.0, 300.0, timeout=10_000.0)\n"
        "assert c.relative_error < 1e-3",
    ],
    ids=["lognormal", "fit_distribution", "select_model", "calibration"],
)
def test_closed_form_paths_load_scipy_on_demand(call):
    prelude = textwrap.dedent(
        """
        import numpy as np

        from repro import fit_distribution, select_model
        from repro.distributions import LogNormal
        from repro.traces import calibrate_lognormal

        x = np.random.default_rng(3).lognormal(5.0, 0.8, size=2000)
        assert scipy_loaded() == [], scipy_loaded()
        """
    )
    run_fresh(prelude + call + "\nassert scipy_loaded(), 'scipy never loaded'\n")
