"""Block-resolved fair-share commits against the per-start oracles.

:class:`~repro.gridsim.fairshare.FairShareVectorComputingElement`
resolves background-only runs as fused blocks (``block_commits=True``).
The contract: every float it commits — decayed usage, charge, decision
instant, winner — is **bit-identical** to the per-start
:class:`~repro.gridsim.fairshare.FairShareState`-method loop
(``block_commits=False``), which in turn matches the event-driven
:class:`~repro.gridsim.fairshare.FairShareComputingElement` wherever the
RNG streams align.  This suite drives identical operation scripts
through both commit paths (hand-built boundary scenarios plus seeded
random interleavings), runs grid-level probe traces over the full
engine × WMS matrix, and pins the wake predictor's purity and its
scratch-fork reuse.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.strategies import MultipleSubmission, SingleResubmission
from repro.gridsim import (
    FairShareVectorComputingElement,
    FaultModel,
    GridConfig,
    GridSimulator,
    Job,
    JobState,
    ProbeExperiment,
    SiteConfig,
    Simulator,
)
from repro.gridsim.fairshare import _PerJobBatchOps

SHARES3 = (("biomed", 0.5), ("atlas", 0.3), ("cms", 0.2))
HALFLIVES = [86_400.0, 3600.0, math.inf]
HL_IDS = ["day", "hour", "inf"]


def make_site(halflife: float, n_cores: int = 2, block: bool = True):
    sim = Simulator()
    site = FairShareVectorComputingElement(
        "fs", n_cores, sim, vo_shares=SHARES3, fairshare_halflife=halflife
    )
    site.block_commits = block
    return sim, site


def site_state(sim: Simulator, site: FairShareVectorComputingElement) -> tuple:
    """Exact observable + fair-share state (floats compared bitwise)."""
    site._advance()
    fs = site.fairshare
    return (
        sim.now,
        site.jobs_started,
        site.jobs_completed,
        site.jobs_failed_bh,
        site.busy_cores,
        site.queue_length,
        tuple(site._bgc),
        tuple(fs._usage),
        fs._last,
        tuple(sorted(site._core_free)),
    )


def job_trace(jobs: list[Job]) -> list[tuple]:
    return [(j.state.value, j.start_time, j.end_time) for j in jobs]


def apply_script(sim: Simulator, site, script) -> list[Job]:
    """Replay one operation script; returns the client jobs it created."""
    jobs: list[Job] = []
    for op in script:
        kind = op[0]
        if kind == "run":
            sim.run_until(op[1])
        elif kind == "feed":
            _, times, runtimes, vos = op
            site.feed_background(list(times), list(runtimes), list(vos))
        elif kind == "client":
            _, t, vo, runtime = op
            sim.run_until(t)
            job = Job(runtime=runtime, vo=vo)
            site.enqueue(job)
            jobs.append(job)
        elif kind == "cancel":
            _, t, idx = op
            sim.run_until(t)
            site.cancel(jobs[idx])
        elif kind == "hole":
            _, t, flag = op
            sim.run_until(t)
            if flag:
                site.begin_black_hole()
            else:
                site.end_black_hole()
        else:  # pragma: no cover - script typo guard
            raise AssertionError(kind)
    return jobs


def assert_paths_agree(script, halflife: float, n_cores: int = 2) -> None:
    states, traces = [], []
    for block in (True, False):
        sim, site = make_site(halflife, n_cores=n_cores, block=block)
        jobs = apply_script(sim, site, script)
        states.append(site_state(sim, site))
        traces.append(job_trace(jobs))
    assert states[0] == states[1]
    assert traces[0] == traces[1]


class TestBlockVsScalarScripts:
    """Hand-built boundary scenarios, identical on both commit paths."""

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_mixed_interleaving(self, halflife):
        script = [
            ("feed", [1.0, 2.0, 4.0, 6.0], [30.0, 25.0, 40.0, 10.0], [0, 1, 2, 0]),
            ("client", 3.0, "atlas", 15.0),
            ("run", 10.0),
            ("feed", [12.0, 13.0], [20.0, 20.0], [1, 0]),
            ("client", 14.0, "cms", 5.0),
            ("client", 14.0, "biomed", 7.0),
            ("run", 200.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_exact_tie_background_beats_client(self, halflife):
        """A background head and a client share the exact arrival float."""
        script = [
            ("feed", [5.0, 5.0], [50.0, 50.0], [0, 1]),
            ("client", 5.0, "biomed", 10.0),
            ("run", 300.0),
        ]
        assert_paths_agree(script, halflife, n_cores=1)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_cancel_mid_block(self, halflife):
        """A queued client cancelled between commits leaves a husk the
        block resolver must skip without perturbing the float ladder."""
        script = [
            ("feed", [1.0, 2.0, 3.0, 8.0, 9.0], [40.0] * 5, [0, 1, 2, 0, 1]),
            ("client", 4.0, "cms", 20.0),
            ("client", 4.5, "biomed", 20.0),
            ("cancel", 5.0, 0),
            ("run", 6.0),
            ("cancel", 6.5, 1),
            ("run", 400.0),
        ]
        assert_paths_agree(script, halflife, n_cores=1)

    @pytest.mark.parametrize("block", [True, False], ids=["block", "scalar"])
    def test_cancel_lands_inside_own_enqueue_prewalk(self, block):
        """A sibling settle cancels the very job being enqueued.

        ``enqueue`` stamps state/site/queue_time *before* its pre-walk,
        so a start committed by that walk can settle a sibling copy and
        cancel the mid-enqueue job — which is then appended to its VO
        FIFO already CANCELLED, right after the walk re-synced the head
        cache.  The husk must never be installed as the cached client
        head (it would misprice the next decision instant) and must be
        skipped at pop time (it must never *start*).
        """
        sim, site = make_site(86_400.0, n_cores=1, block=block)
        site._defer_wake = lambda: None  # force fully lazy commits
        j0 = Job(runtime=50.0, vo="biomed")
        site.enqueue(j0)  # takes the only core, 0 -> 50
        j1 = Job(runtime=30.0, vo="biomed")
        site.enqueue(j1)  # queued behind j0, starts at 50
        j2 = Job(runtime=20.0, vo="biomed")
        cancelled: list[bool] = []

        def settle(job: Job) -> None:
            if job is j1 and not cancelled:
                cancelled.append(site.cancel(j2))

        site.on_start = settle
        sim.run_until(60.0)
        site.enqueue(j2)  # pre-walk commits j1 -> settle cancels j2
        assert cancelled == [True]
        assert j2.state is JobState.CANCELLED
        sim.run_until(85.0)
        j3 = Job(runtime=5.0, vo="biomed")
        site.enqueue(j3)  # must start past the leading husk
        assert j1.start_time == 50.0
        assert math.isnan(j2.start_time)  # the husk never started
        assert j3.start_time == 85.0
        assert site._vo_husks == [0, 0, 0]
        assert site._live_clients == 0
        assert site.queue_length == 0

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_black_hole_racing_block_boundary(self, halflife):
        """The hole flips exactly at a pending head's arrival instant."""
        script = [
            ("feed", [1.0, 5.0, 10.0, 30.0, 35.0], [60.0] * 5, [0, 1, 0, 2, 1]),
            ("client", 2.0, "atlas", 25.0),
            ("hole", 10.0, True),
            ("client", 15.0, "biomed", 10.0),
            ("hole", 30.0, False),
            ("feed", [40.0, 41.0], [15.0, 15.0], [2, 0]),
            ("client", 42.0, "cms", 5.0),
            ("run", 500.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("seed", [3, 11, 29, 47])
    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_random_interleavings(self, seed, halflife):
        """Seeded random scripts: feeds, clients, cancels, mixed order."""
        rng = np.random.default_rng(seed)
        script, t = [], 0.0
        n_clients = 0
        for _ in range(12):
            t += float(rng.uniform(1.0, 40.0))
            kind = rng.integers(0, 3)
            if kind == 0:
                k = int(rng.integers(1, 6))
                times = np.sort(t + rng.uniform(0.0, 60.0, k)).tolist()
                runtimes = rng.uniform(5.0, 80.0, k).tolist()
                vos = rng.integers(0, 3, k).tolist()
                script.append(("feed", times, runtimes, vos))
            elif kind == 1:
                vo = ("biomed", "atlas", "cms")[int(rng.integers(0, 3))]
                script.append(("client", t, vo, float(rng.uniform(5.0, 50.0))))
                n_clients += 1
            elif n_clients:
                script.append(("cancel", t, int(rng.integers(0, n_clients))))
        script.append(("run", t + 600.0))
        assert_paths_agree(script, halflife)


def multi_vo_config(site_engine: str, **kw) -> GridConfig:
    defaults = dict(
        sites=(
            SiteConfig(
                "a", 8, utilization=0.9, runtime_median=600.0, vo_shares=SHARES3
            ),
            SiteConfig(
                "b",
                16,
                utilization=0.95,
                runtime_median=900.0,
                vo_shares=SHARES3[:2],
            ),
        ),
        matchmaking_median=30.0,
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
        site_engine=site_engine,
    )
    defaults.update(kw)
    return GridConfig(**defaults)


def grid_fingerprint(grid: GridSimulator) -> tuple:
    return (
        grid.now,
        tuple(s.queue_length for s in grid.sites),
        tuple(s.busy_cores for s in grid.sites),
        tuple(s.jobs_started for s in grid.sites),
        tuple(s.jobs_completed for s in grid.sites),
        tuple(
            tuple(s.fairshare._usage)
            for s in grid.sites
            if hasattr(s, "fairshare")
        ),
    )


def set_block_commits(grid: GridSimulator, flag: bool) -> None:
    for site in grid.sites:
        if isinstance(site, FairShareVectorComputingElement):
            site.block_commits = flag


class TestGridLevelEquivalence:
    """Full-grid probe traces across the engine × WMS matrix."""

    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    @pytest.mark.parametrize("seed", [17, 59])
    def test_three_way_probe_traces(self, wms_engine, seed):
        """block == scalar == event oracle, bit for bit."""
        traces, fps = [], []
        for flavour in ("block", "scalar", "event"):
            engine = "event" if flavour == "event" else "vector"
            cfg = multi_vo_config(engine, wms_engine=wms_engine)
            grid = GridSimulator(cfg, seed=seed)
            if flavour == "scalar":
                set_block_commits(grid, False)
            grid.warm_up(3600.0)
            traces.append(
                ProbeExperiment(grid, n_slots=6, timeout=4000.0).run(40_000.0)
            )
            fps.append(grid_fingerprint(grid))
        for other in (1, 2):
            np.testing.assert_array_equal(
                traces[0].submit_times, traces[other].submit_times
            )
            np.testing.assert_array_equal(
                traces[0].latencies, traces[other].latencies
            )
        # usage vectors only exist on the vector flavours
        assert fps[0] == fps[1]

    @pytest.mark.parametrize("halflife", [3600.0, math.inf], ids=["hour", "inf"])
    def test_halflife_extremes_block_vs_scalar(self, halflife):
        outs = []
        for flag in (True, False):
            cfg = multi_vo_config("vector", fairshare_halflife=halflife)
            grid = GridSimulator(cfg, seed=31)
            set_block_commits(grid, flag)
            grid.warm_up(6 * 3600.0)
            out = ProbeExperiment(grid, n_slots=4, timeout=3000.0).run(30_000.0)
            outs.append((grid_fingerprint(grid), out.latencies.tolist()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    def test_burst_strategies_block_vs_scalar(self, wms_engine):
        """Sibling bursts cancel mid-block on every start; traces must
        stay bit-identical with block commits on and off."""
        from repro.gridsim import run_strategy_on_grid

        outs = []
        for flag in (True, False):
            cfg = multi_vo_config("vector", wms_engine=wms_engine)
            grid = GridSimulator(cfg, seed=43)
            set_block_commits(grid, flag)
            grid.warm_up(3600.0)
            outs.append(
                run_strategy_on_grid(
                    grid,
                    MultipleSubmission(b=3, t_inf=2500.0),
                    30,
                    task_interval=250.0,
                    runtime=90.0,
                )
            )
        a, b = outs
        np.testing.assert_array_equal(a.j, b.j)
        np.testing.assert_array_equal(a.jobs_submitted, b.jobs_submitted)
        assert a.gave_up == b.gave_up

    def test_snapshot_restore_preserves_equivalence(self):
        """Fork a warmed block-commit grid; the fork must keep matching
        a scalar twin forked from the same pickled state."""
        cfg = multi_vo_config("vector")
        grid = GridSimulator(cfg, seed=61)
        grid.warm_up(7200.0)
        snap = grid.snapshot()
        a, b = snap.restore(), snap.restore()
        set_block_commits(b, False)
        ta = ProbeExperiment(a, n_slots=4, timeout=3000.0).run(20_000.0)
        tb = ProbeExperiment(b, n_slots=4, timeout=3000.0).run(20_000.0)
        np.testing.assert_array_equal(ta.latencies, tb.latencies)
        assert grid_fingerprint(a) == grid_fingerprint(b)


class TestWakePredictor:
    """Purity and scratch reuse of `_predict_next_client_start`."""

    def scenario(self):
        sim, site = make_site(86_400.0, n_cores=1)
        site.feed_background([0.5, 1.0, 2.0], [30.0, 25.0, 40.0], [0, 1, 2])
        sim.run_until(3.0)
        job = Job(runtime=10.0, vo="atlas")
        site.enqueue(job)
        return sim, site, job

    def test_prediction_is_pure(self):
        sim, site, job = self.scenario()
        fs = site.fairshare
        usage_before = list(fs._usage)
        last_before = fs._last
        bgc_before = list(site._bgc)
        predicted = site._predict_next_client_start()
        assert list(fs._usage) == usage_before
        assert fs._last == last_before
        assert list(site._bgc) == bgc_before
        # and the prediction is exact: the client starts at that instant
        sim.run_until(500.0)
        assert job.start_time == predicted

    def test_prediction_matches_across_commit_paths(self):
        preds = []
        for block in (True, False):
            sim, site = make_site(3600.0, n_cores=1, block=block)
            site.feed_background([0.5, 1.0], [30.0, 25.0], [0, 1])
            sim.run_until(2.0)
            site.enqueue(Job(runtime=5.0, vo="cms"))
            preds.append(site._predict_next_client_start())
        assert preds[0] == preds[1]

    def test_scratch_fork_is_reused(self):
        sim, site, job = self.scenario()
        assert site._pred_scratch is None or isinstance(
            site._pred_scratch, type(site.fairshare)
        )
        p1 = site._predict_next_client_start()
        scratch = site._pred_scratch
        assert scratch is not None
        p2 = site._predict_next_client_start()
        assert site._pred_scratch is scratch  # reset in place, not reallocated
        assert p1 == p2

    def test_scratch_survives_population_of_predictions(self):
        sim, site = make_site(86_400.0, n_cores=2)
        site.feed_background(
            list(np.sort(np.random.default_rng(7).uniform(0, 50, 20))),
            [20.0] * 20,
            list(np.random.default_rng(8).integers(0, 3, 20)),
        )
        scratch = None
        for k in range(5):
            sim.run_until(10.0 * k + 5.0)
            site.enqueue(Job(runtime=5.0, vo="biomed"))
            site._predict_next_client_start()
            if scratch is None:
                scratch = site._pred_scratch
            else:
                assert site._pred_scratch is scratch


class TestPopulationParity:
    """The population driver sees identical results on both paths."""

    def test_small_population_block_vs_scalar(self):
        from repro.gridsim import warmed_snapshot
        from repro.population import FleetSpec, PopulationSpec, run_population

        sites = tuple(
            SiteConfig(
                f"p{i}",
                16,
                utilization=0.85,
                runtime_median=900.0,
                vo_shares=SHARES3,
            )
            for i in range(2)
        )
        cfg = GridConfig(sites=sites)
        snap = warmed_snapshot(cfg, seed=23, duration=3600.0)
        spec = PopulationSpec(
            fleets=(
                FleetSpec("biomed", SingleResubmission(t_inf=4000.0), 60),
                FleetSpec(
                    "atlas",
                    MultipleSubmission(b=3, t_inf=4000.0),
                    40,
                    runtime=120.0,
                ),
            ),
            window=20_000.0,
        )
        outs = []
        for flag in (True, False):
            grid = snap.restore()
            set_block_commits(grid, flag)
            outs.append(run_population(grid, spec, seed=23))
        a, b = outs
        for fa, fb in zip(a.fleets, b.fleets):
            np.testing.assert_array_equal(fa.j, fb.j)
            np.testing.assert_array_equal(fa.jobs_submitted, fb.jobs_submitted)
        assert a.site_usage_shares == b.site_usage_shares
        assert a.duration == b.duration


# -- batched enqueue_many against the per-job loop -------------------------

#: the per-job ``enqueue`` loop the batched ``enqueue_many`` must replay
per_job_enqueue_many = _PerJobBatchOps.enqueue_many

VO_NAMES = ("biomed", "atlas", "cms")


def raw_state(sim: Simulator, site: FairShareVectorComputingElement) -> tuple:
    """Site + kernel state *without* reconciling (floats compared bitwise)."""
    fs = site.fairshare
    w = site._wake
    heads_valid = site._heads_mut == site._mut
    return (
        sim.now,
        site._next_due,
        site._started,
        site._killed,
        site._live_clients,
        tuple(site._vo_husks),
        tuple(len(q) for q in site._clq),
        tuple(site._bgc),
        tuple(fs._usage),
        fs._last,
        tuple(sorted(site._core_free)),
        None if w is None or w.cancelled else w.time,
        heads_valid,
        (tuple(site._heads), tuple(site._cheads)) if heads_valid else None,
        site.black_hole,
        site.dispatch_enabled,
        site.jobs_failed_bh,
        sorted((t, s) for t, s, ev in sim._heap if not ev.cancelled),
    )


def full_trace(jobs: list[Job]) -> list[tuple]:
    return [
        (j.state.value, j.queue_time, j.start_time, j.end_time, j.site)
        for j in jobs
    ]


def run_batch_scenario(sc: dict, batched: bool):
    """One scenario on a fresh site; the batch goes through ``enqueue_many``
    (``batched``) or through the per-job loop.

    ``sc`` holds: ``n_cores``, ``halflife``, a background ``feed``, the
    ``pre`` clients ``(t, vo, runtime, group)`` queued before the batch
    instant ``tb``, the ``cancel_at_batch`` indices of pre clients
    cancelled just before the batch (which leaves the head rows stale),
    the ``batch`` entries ``(vo, runtime, group)`` — members of one group
    > 0 are sibling copies that a start cancels — and a ``trigger``
    (``"hole"``/``"outage"``) opened by the ``trigger_at``-th start.

    The batch runs from the first event scheduled, as a WMS bucket
    resolve does: it precedes a wake due at the same instant, and due
    completions are still undrained when it starts.
    """
    sim, site = make_site(sc["halflife"], n_cores=sc["n_cores"])
    groups: dict[int, list[Job]] = {}
    group_of: dict[int, int] = {}
    n_starts = [0]
    walks = [0]
    commit_block = site._commit_block

    def counted(t):
        walks[0] += 1
        commit_block(t)

    site._commit_block = counted

    def make_job(vo: int, runtime: float, group: int) -> Job:
        job = Job(runtime=runtime, vo=VO_NAMES[vo])
        if group:
            groups.setdefault(group, []).append(job)
            group_of[id(job)] = group
        return job

    def on_start(job: Job) -> None:
        g = group_of.get(id(job), 0)
        for sib in groups.get(g, ()) if g else ():
            if sib is job:
                continue
            if sib.state in (JobState.MATCHING, JobState.CREATED):
                sib.state = JobState.CANCELLED  # what cancel_matching does
            elif sib.state in (JobState.QUEUED, JobState.RUNNING):
                site.cancel(sib)
        n_starts[0] += 1
        if sc["trigger"] and n_starts[0] == sc["trigger_at"]:
            if sc["trigger"] == "hole":
                site.begin_black_hole()
            else:
                site.begin_outage(np.random.default_rng(5), 0.5)

    pre: list[Job] = []
    batch: list[Job] = []
    at_batch: list = []

    def resolve() -> None:
        for idx in sc["cancel_at_batch"]:
            if pre:
                site.cancel(pre[idx % len(pre)])
        for vo, runtime, group in sc["batch"]:
            job = make_job(vo, runtime, group)
            job.state = JobState.MATCHING
            batch.append(job)
        walks[0] = 0
        if batched:
            n = site.enqueue_many(batch)
        else:
            n = per_job_enqueue_many(site, batch)
        at_batch.extend(
            (n, walks[0], raw_state(sim, site), full_trace(pre + batch))
        )

    sim.schedule_at(sc["tb"], resolve)
    site.on_start = on_start
    times, runtimes, vos = sc["feed"]
    if times:
        site.feed_background(list(times), list(runtimes), list(vos))
    for t, vo, runtime, group in sc["pre"]:
        sim.run_until(t)
        job = make_job(vo, runtime, group)
        site.enqueue(job)
        pre.append(job)
    sim.run_until(sc["tb"] + 400.0)
    after = (site_state(sim, site), full_trace(pre + batch))
    n, batch_walks, state, trace = at_batch
    return (n, state, trace), after, batch_walks


def assert_batch_matches_loop(sc: dict) -> tuple[int, int]:
    """Bit-for-bit agreement; returns the (batched, loop) walk counts."""
    a_at, a_after, a_walks = run_batch_scenario(sc, batched=True)
    b_at, b_after, b_walks = run_batch_scenario(sc, batched=False)
    assert a_at == b_at
    assert a_after == b_after
    return a_walks, b_walks


def batch_scenario(**kw) -> dict:
    sc = dict(
        n_cores=3,
        halflife=86_400.0,
        feed=((), (), ()),
        pre=(),
        cancel_at_batch=(),
        tb=10.0,
        batch=(),
        trigger=None,
        trigger_at=1,
    )
    sc.update(kw)
    return sc


class TestBatchedEnqueue:
    """``FairShareVectorComputingElement.enqueue_many`` replays the
    per-job ``enqueue`` loop: same starts, floats, wake and husks."""

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_free_cores_flip_to_busy_mid_batch(self, halflife):
        sc = batch_scenario(
            halflife=halflife,
            feed=([1.0, 2.0], [30.0, 50.0], [1, 2]),
            batch=[(0, 20.0, 0), (1, 15.0, 0), (0, 25.0, 0), (2, 5.0, 0),
                   (1, 40.0, 0)],
        )
        batched, loop = assert_batch_matches_loop(sc)
        # the lone-candidate start commits without a walk
        assert batched < loop

    def test_every_core_busy_appends_without_walking(self):
        sc = batch_scenario(
            n_cores=1,
            feed=([0.0], [100.0], [0]),
            batch=[(v % 3, 10.0 + v, 0) for v in range(6)],
        )
        # the one pre-walk commits the background start; the six joins
        # then only append
        assert assert_batch_matches_loop(sc) == (1, 1)

    def test_sibling_cancels_fired_mid_batch(self):
        """A start settles its task: queued, running and still-matching
        copies of the same group die while the batch is in flight."""
        sc = batch_scenario(
            n_cores=2,
            pre=[(2.0, 1, 300.0, 2)],
            batch=[(0, 20.0, 1), (1, 20.0, 2), (0, 20.0, 1), (2, 20.0, 2),
                   (2, 30.0, 1), (1, 10.0, 0)],
        )
        assert_batch_matches_loop(sc)

    def test_completion_due_before_the_batch_settles_first(self):
        """A client that ended before the batch (no reconciliation since)
        is completed before the lone newcomer starts."""
        sc = batch_scenario(
            n_cores=2, pre=[(0.0, 0, 5.0, 0)], batch=[(1, 20.0, 0)]
        )
        assert_batch_matches_loop(sc)
        (_, _, trace), _, walks = run_batch_scenario(sc, batched=True)
        assert trace[0][0] == JobState.COMPLETED.value
        assert walks == 0

    def test_husk_left_by_the_prewalk_ahead_of_a_lone_newcomer(self):
        """The batch's first job is cancelled inside its own pre-walk (a
        sibling starts at the same instant) and joins as a husk behind
        valid head rows; the next job of that VO starts alone and must
        drop the husk ahead of it, as the walk does."""
        sc = batch_scenario(
            n_cores=3,
            tb=40.0,
            pre=[(0.0, 2, 40.0, 0), (0.0, 1, 100.0, 0), (0.0, 2, 40.0, 0),
                 (1.0, 0, 5.0, 1)],
            batch=[(0, 20.0, 1), (0, 10.0, 0)],
        )
        assert_batch_matches_loop(sc)
        (n, state, trace), _, _ = run_batch_scenario(sc, batched=True)
        assert n == 2
        assert trace[4][0] == JobState.CANCELLED.value
        assert trace[5][2] == 40.0  # started alone, at the batch instant
        assert state[5] == (0, 0, 0)  # _vo_husks: the husk was dropped

    def test_stale_head_rows_take_the_per_job_path(self):
        sc = batch_scenario(
            n_cores=2,
            feed=([1.0], [200.0], [2]),
            pre=[(2.0, 0, 300.0, 0), (3.0, 1, 30.0, 0)],
            cancel_at_batch=[1],
            batch=[(1, 20.0, 0), (2, 20.0, 0), (0, 20.0, 0)],
        )
        assert_batch_matches_loop(sc)

    @pytest.mark.parametrize("trigger_at", [2, 3])
    @pytest.mark.parametrize("trigger", ["hole", "outage"])
    def test_fault_opens_during_the_batch(self, trigger, trigger_at):
        """Opened by a lone start mid-batch (2) or by the last one (3)."""
        sc = batch_scenario(
            n_cores=3,
            batch=[(0, 20.0, 0), (1, 15.0, 0), (2, 25.0, 0), (0, 5.0, 0)],
            trigger=trigger,
            trigger_at=trigger_at,
        )
        assert_batch_matches_loop(sc)

    def test_competing_head_at_the_batch_instant(self):
        """A background arrival lands exactly at the batch instant."""
        sc = batch_scenario(
            n_cores=2,
            feed=([10.0, 10.0], [40.0, 60.0], [0, 1]),
            batch=[(0, 20.0, 0), (2, 15.0, 0)],
        )
        assert_batch_matches_loop(sc)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_drawn_batches(self, data):
        half = st.integers(0, 160).map(lambda x: x / 2.0)
        runtime = st.integers(2, 160).map(lambda x: x / 2.0)
        k = data.draw(st.integers(0, 8))
        feed = (
            sorted(data.draw(st.lists(half, min_size=k, max_size=k))),
            data.draw(st.lists(runtime, min_size=k, max_size=k)),
            data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)),
        )
        tb = data.draw(st.integers(40, 120).map(lambda x: x / 2.0))
        pre = sorted(
            data.draw(
                st.lists(
                    st.tuples(
                        st.integers(0, int(2 * tb) - 1).map(lambda x: x / 2.0),
                        st.integers(0, 2),
                        runtime,
                        st.integers(0, 3),
                    ),
                    max_size=4,
                )
            )
        )
        sc = batch_scenario(
            n_cores=data.draw(st.integers(1, 4)),
            halflife=data.draw(st.sampled_from(HALFLIVES)),
            feed=feed,
            pre=pre,
            cancel_at_batch=data.draw(st.lists(st.integers(0, 3), max_size=2)),
            tb=tb,
            batch=data.draw(
                st.lists(
                    st.tuples(st.integers(0, 2), runtime, st.integers(0, 3)),
                    min_size=1,
                    max_size=8,
                )
            ),
            trigger=data.draw(st.sampled_from([None, None, "hole", "outage"])),
            trigger_at=data.draw(st.integers(1, 4)),
        )
        assert_batch_matches_loop(sc)
