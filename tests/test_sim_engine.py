"""The discrete-event engine: ordering, cancellation, determinism."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import Process, Timer


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == list("abcde")

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_max_events_bound(self):
        sim = Simulator()
        for _ in range(100):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=10)
        assert sim.events_processed == 10


class TestDeterminism:
    def test_rng_streams_independent_and_stable(self):
        sim1, sim2 = Simulator(seed=9), Simulator(seed=9)
        a1 = [sim1.rng("a").random() for _ in range(5)]
        # Interleave another stream in sim2; "a" must not be perturbed.
        sim2.rng("b").random()
        a2 = [sim2.rng("a").random() for _ in range(5)]
        assert a1 == a2

    def test_different_seeds_differ(self):
        assert Simulator(seed=1).rng("x").random() != \
            Simulator(seed=2).rng("x").random()


class TestTimer:
    def test_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 5.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run(until=20.0)
        assert fired == [5.0]

    def test_restart_postpones(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 5.0, lambda: fired.append(sim.now))
        timer.start()
        sim.schedule(3.0, timer.restart)
        sim.run(until=20.0)
        assert fired == [8.0]

    def test_double_start_raises(self):
        sim = Simulator()
        timer = Timer(sim, 1.0, lambda: None)
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()


class TestProcess:
    def test_periodic_ticks(self):
        sim = Simulator()
        ticks = []
        process = Process(sim, 10.0, lambda: ticks.append(sim.now))
        process.start()
        sim.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_stop_halts(self):
        sim = Simulator()
        ticks = []
        process = Process(sim, 10.0, lambda: ticks.append(sim.now))
        process.start()
        sim.schedule(25.0, process.stop)
        sim.run(until=100.0)
        assert ticks == [10.0, 20.0]

    def test_callable_interval(self):
        sim = Simulator()
        gaps = iter([1.0, 2.0, 4.0, 100.0])
        ticks = []
        process = Process(sim, lambda: next(gaps),
                          lambda: ticks.append(sim.now))
        process.start()
        sim.run(until=10.0)
        assert ticks == [1.0, 3.0, 7.0]


class TestQueueKernel:
    """The event-loop kernel: O(1) pending, lazy-cancel compaction,
    and step()'s parity with run()."""

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(10)]
        assert sim.pending == 10
        for event in events[:4]:
            event.cancel()
        assert sim.pending == 6

    def test_compaction_purges_dead_events(self):
        sim = Simulator()
        keep = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
        doomed = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(sim.COMPACT_MIN_QUEUE * 2)]
        for event in doomed:
            event.cancel()
        # Compaction fires whenever the dead majority is reached above
        # the size floor, so the queue must have shrunk far below the
        # total scheduled; the live events all survive.
        total = len(keep) + len(doomed)
        assert len(sim._queue) < total // 2
        assert sim.pending == len(keep)
        live = [e for _time, _seq, e in sim._queue if not e.cancelled]
        assert len(live) == len(keep)

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        for i in range(100):
            sim.schedule(float(i + 1), fired.append, i)
        doomed = [sim.schedule(0.5, lambda: None)
                  for _ in range(200)]
        for event in doomed:
            event.cancel()
        sim.run()
        assert fired == list(range(100))

    def test_cancel_after_fire_is_noop_for_accounting(self):
        sim = Simulator()
        grabbed = []
        event = sim.schedule(1.0, lambda: None)
        grabbed.append(event)
        sim.schedule(2.0, lambda: None)
        sim.run()
        # Cancelling an already-fired event must not corrupt the dead
        # counter (it is cleared from the queue at pop time).
        event.cancel()
        assert sim.pending == 0
        sim.schedule(3.0, lambda: None)
        assert sim.pending == 1

    def test_events_processed_counts_fired_only(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        cancelled = sim.schedule(0.5, lambda: None)
        cancelled.cancel()
        sim.run()
        assert sim.events_processed == 5

    def test_step_matches_run_instruments(self):
        from repro.obs.telemetry import Telemetry

        results = []
        for use_step in (False, True):
            sim = Simulator()
            telemetry = Telemetry(clock=lambda: sim.now)
            sim.attach_telemetry(telemetry, profile_callbacks=True)
            for i in range(6):
                sim.schedule(float(i + 1), lambda: None, label="tick")
            if use_step:
                while sim.step():
                    pass
            else:
                sim.run()
            results.append({
                "fired": telemetry.counter("sim.events.fired").bind().value,
                "processed": sim.events_processed,
                "profiled": telemetry.histogram(
                    "sim.callback.wall_time").bind(label="tick").count,
                "now": sim.now,
            })
        run_result, step_result = results
        assert step_result == run_result

    def test_step_returns_false_when_idle(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.now == 1.0
        assert sim.step() is False
