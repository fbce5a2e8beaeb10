"""The kernel's sorted-schedule walker against the chained-event walker.

:meth:`~repro.gridsim.events.Simulator.fire_schedule` fires a sorted
launch schedule inline for as long as no queued event, run horizon or
pending ``stop()`` comes first.  Its reference is the walker it replaced:
one self-rechaining event per launch instant, equal instants fired back
to back.  Both must interleave the launches with every other event in
the same order and at the same clock; only the number of dispatched
events may differ.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gridsim.events import Simulator


def chained(sim: Simulator, times: list, items: list, fire) -> None:
    """The hand-written chained walker ``fire_schedule`` replaced."""
    cursor = [0]
    n = len(times)

    def step() -> None:
        i = cursor[0]
        t = times[i]
        fire(items[i])
        i += 1
        while i < n and times[i] == t:
            fire(items[i])
            i += 1
        cursor[0] = i
        if i < n:
            sim.schedule_at(times[i], step)

    sim.schedule_at(times[0], step)


def walked(sim: Simulator, times: list, items: list, fire) -> None:
    cursor = [0]

    def step() -> None:
        cursor[0] = sim.fire_schedule(times, items, cursor[0], fire, step)

    sim.schedule_at(times[0], step)


def logged_fire(sim: Simulator, log: list):
    def fire(item) -> None:
        log.append((item, sim.now))

    return fire


class TestFireSchedule:
    def test_launch_tied_with_heap_top_does_not_drain(self):
        """A queued event at the next launch instant goes first."""
        sim = Simulator()
        log: list = []
        sim.schedule_at(5.0, lambda: log.append(("ev", sim.now)))
        walked(sim, [1.0, 5.0, 5.0, 7.0], ["a", "b", "c", "d"],
               logged_fire(sim, log))
        sim.run_until(10.0)
        assert log == [("a", 1.0), ("ev", 5.0), ("b", 5.0), ("c", 5.0),
                       ("d", 7.0)]
        # a; ev; b, c and then d inline (nothing queued before 7)
        assert sim.events_processed == 3

    def test_walk_stops_at_the_run_horizon(self):
        sim = Simulator()
        log: list = []
        walked(sim, [1.0, 2.0, 3.0, 10.0, 11.0], list("abcde"),
               logged_fire(sim, log))
        sim.run_until(5.0)
        assert log == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert sim.now == 5.0
        assert sim.events_processed == 1
        assert sim.pending == 1  # the walk resumes at 10
        sim.run_until(20.0)
        assert log[3:] == [("d", 10.0), ("e", 11.0)]
        assert sim.events_processed == 2

    def test_stop_mid_walk(self):
        """Equal instants still fire; later ones wait for the next run."""
        sim = Simulator()
        log: list = []

        def fire(item) -> None:
            log.append((item, sim.now))
            if item == "b":
                sim.stop()

        walked(sim, [1.0, 2.0, 2.0, 3.0, 4.0], list("abcde"), fire)
        sim.run_until(10.0)
        assert log == [("a", 1.0), ("b", 2.0), ("c", 2.0)]
        assert sim.now == 2.0
        sim.run_until(10.0)
        assert log[3:] == [("d", 3.0), ("e", 4.0)]

    def test_cancelled_husk_at_heap_top_is_dropped(self):
        sim = Simulator()
        log: list = []
        husk = sim.schedule_at(2.0, lambda: log.append(("husk", sim.now)))
        husk.cancel()
        assert sim.cancelled_pending == 1
        walked(sim, [1.0, 3.0], ["a", "b"], logged_fire(sim, log))
        sim.run_until(10.0)
        assert log == [("a", 1.0), ("b", 3.0)]
        assert sim.events_processed == 1
        assert sim.cancelled_pending == 0
        assert sim.pending == 0

    def test_events_a_launch_schedules_are_seen(self):
        """An event scheduled by a launch, earlier than the next launch,
        interrupts the walk."""
        sim = Simulator()
        log: list = []

        def fire(item) -> None:
            log.append((item, sim.now))
            if item == "a":
                sim.schedule(1.0, lambda: log.append(("ev", sim.now)))

        walked(sim, [1.0, 3.0], ["a", "b"], fire)
        sim.run_until(10.0)
        assert log == [("a", 1.0), ("ev", 2.0), ("b", 3.0)]

    def test_walk_resumes_across_sharded_epochs(self):
        """Lockstep epochs (the shard worker loop) with messages applied
        between them: the walk yields at each epoch end and resumes in
        the next, exactly where the chained walker would."""
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0.0, 100.0, 60)).tolist()
        logs, dispatched = [], []
        for walker in (chained, walked):
            sim = Simulator()
            log: list = []
            walker(sim, times, list(range(len(times))), logged_fire(sim, log))
            for e in range(10):
                t_end = 10.0 * (e + 1)
                # an inbox batch lands at the start of the next epoch
                sim.schedule_at(t_end + 3.0, lambda: log.append(("msg", sim.now)))
                sim.run_until(t_end)
                log.append(("epoch", sim.now))
            logs.append(log)
            dispatched.append(sim.events_processed)
        assert logs[0] == logs[1]
        assert [t for item, t in logs[1] if type(item) is int] == times
        assert dispatched[1] < dispatched[0]

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_drawn_schedules_match_the_chained_walker(self, data):
        tick = st.integers(0, 40).map(lambda x: x / 2.0)
        times = sorted(data.draw(st.lists(tick, min_size=1, max_size=25)))
        # other events: (instant, cancelled?, follow-up delay or None)
        others = data.draw(
            st.lists(
                st.tuples(tick, st.booleans(), st.none() | tick),
                max_size=10,
            )
        )
        # launches that schedule an event of their own
        spawns = data.draw(st.dictionaries(st.integers(0, 24), tick, max_size=5))
        stop_at = data.draw(st.none() | st.integers(0, 24))
        horizons = sorted(data.draw(st.lists(tick, min_size=1, max_size=4)))
        logs = []
        for walker in (chained, walked):
            sim = Simulator()
            log: list = []

            def fire(item, sim=sim, log=log) -> None:
                log.append((item, sim.now))
                if item in spawns:
                    sim.schedule(spawns[item], lambda: log.append(("sp", sim.now)))
                if item == stop_at:
                    sim.stop()

            for k, (t, dead, follow) in enumerate(others):
                def other(k=k, follow=follow, sim=sim, log=log) -> None:
                    log.append((f"o{k}", sim.now))
                    if follow is not None:
                        sim.schedule(follow, lambda: log.append(("f", sim.now)))

                ev = sim.schedule_at(t, other)
                if dead:
                    ev.cancel()
            walker(sim, times, list(range(len(times))), fire)
            for h in horizons + [100.0]:
                if h >= sim.now:
                    sim.run_until(h)
                log.append(("ret", sim.now))
            sim.run_until(100.0)
            logs.append(log)
        assert logs[0] == logs[1]
