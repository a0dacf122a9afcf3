"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == pytest.approx(3.0)

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == pytest.approx(2.0)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(5.0)]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("keep"))
        victim = sim.schedule(2.0, lambda: fired.append("drop"))
        sim.schedule(3.0, lambda: fired.append("keep2"))
        victim.cancel()
        sim.run()
        assert fired == ["keep", "keep2"]

    def test_simulator_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        victim = sim.schedule(1.0, lambda: fired.append("drop"))
        sim.cancel(victim)
        sim.cancel(victim)  # double-cancel must not corrupt _dead
        sim.schedule(2.0, lambda: fired.append("keep"))
        sim.run()
        assert fired == ["keep"]

    def test_tombstones_do_not_grow_unbounded(self):
        """Cancel-heavy workloads must compact the heap, not hoard
        tombstones: after cancelling many pending events, the queue
        length tracks the live events, not the cancellation history."""
        sim = Simulator()
        live = sim.schedule(1e9, lambda: None)
        for _ in range(50):
            batch = [sim.schedule(1e6, lambda: None) for _ in range(1_000)]
            for event in batch:
                sim.cancel(event)
        assert sim.pending < 2_000  # 50k cancels, ~1 live event
        sim.cancel(live)

    def test_compaction_during_run_keeps_future_events(self):
        """Regression: a cancel-triggered compaction *inside a callback*
        used to rebind the queue list while ``run()`` kept draining a
        stale local alias, silently dropping every event scheduled after
        the compaction point."""
        sim = Simulator()
        fired = [0]
        victims = []

        def chain():
            fired[0] += 1
            if fired[0] < 5_000:
                sim.schedule(0.001, chain)
            # Pile up tombstones until a compaction fires mid-run.
            victims.append(sim.schedule(1e6, lambda: None))
            if len(victims) >= 2:
                sim.cancel(victims.pop(0))

        sim.schedule(0.001, chain)
        sim.run(until=10.0)
        assert fired[0] == 5_000


class TestBoundedRuns:
    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == pytest.approx(2.0)
        assert sim.pending == 1
        sim.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == pytest.approx(10.0)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_run_until_is_exact_with_boundary_event(self):
        """An event exactly at the horizon fires, and the clock lands on
        the horizon, never past it — the hybrid driver's segment loop
        depends on both."""
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.schedule(2.0 + 1e-9, lambda: fired.append(sim.now))
        sim.run_until(2.0)
        assert fired == [pytest.approx(2.0)]
        assert sim.now == 2.0

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)


class TestRecurring:
    def test_fires_on_the_grid_with_scheduled_time(self):
        sim = Simulator()
        fired = []
        sim.recurring(0.5, fired.append, horizon_s=2.0)
        sim.run()
        assert fired == [pytest.approx(t) for t in (0.5, 1.0, 1.5, 2.0)]

    def test_stop_halts_future_firings(self):
        sim = Simulator()
        fired = []
        handle = sim.recurring(1.0, fired.append, horizon_s=10.0)
        sim.schedule(2.5, handle.stop)
        sim.run()
        assert fired == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_short_horizon_never_fires(self):
        sim = Simulator()
        fired = []
        handle = sim.recurring(5.0, fired.append, horizon_s=1.0)
        sim.run()
        assert fired == [] and handle.stopped

    def test_interleaves_fifo_with_one_shot_events(self):
        """Ties against a recurring loop follow *reschedule-time* FIFO,
        exactly like the retired idiom of re-scheduling a one-shot from
        inside its own callback: the first tick keeps its install-time
        sequence, every later tick re-draws its sequence when the prior
        tick fires, so pre-scheduled one-shots win the later ties."""
        sim = Simulator()
        fired = []
        sim.recurring(1.0, lambda t: fired.append("tick"), horizon_s=3.0)
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: fired.append("shot"))
        sim.run()
        assert fired == ["tick", "shot", "shot", "tick", "shot", "tick"]


class TestEngineProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_fire_times_are_monotone(self, delays):
        sim = Simulator()
        fire_times = []
        for delay in delays:
            sim.schedule(delay, lambda: fire_times.append(sim.now))
        sim.run()
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(delays)

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=1,
            max_size=40,
        ),
        cancel_mask=st.lists(st.booleans(), min_size=40, max_size=40),
        tick_s=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_orderings_are_bit_identical_across_replays(
        self, delays, cancel_mask, tick_s
    ):
        """Same schedule → same firing order, to the last tie-break.

        Two independent simulators given an identical mix of one-shots
        (some cancelled), nested reschedules, and a recurring loop must
        produce byte-for-byte identical ``(time, tag)`` traces — the
        determinism contract everything downstream (result caching, the
        hybrid fidelity equivalence tests) leans on.
        """

        def trace():
            sim = Simulator()
            fired = []
            sim.recurring(
                tick_s, lambda t: fired.append((t, "tick")), horizon_s=10.0
            )
            for i, delay in enumerate(delays):
                event = sim.schedule(
                    delay,
                    lambda i=i: (
                        fired.append((sim.now, i)),
                        # odd events respawn once, exercising nesting
                        sim.schedule(0.25, lambda i=i: fired.append((sim.now, (i, "re"))))
                        if i % 2
                        else None,
                    ),
                )
                if cancel_mask[i]:
                    sim.cancel(event)
            sim.run()
            return fired, sim.events_processed

        first, first_count = trace()
        second, second_count = trace()
        assert first == second
        assert first_count == second_count
        expected_live = sum(
            1 for i in range(len(delays)) if not cancel_mask[i]
        )
        assert sum(1 for _, tag in first if isinstance(tag, int)) == expected_live
