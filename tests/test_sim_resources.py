"""Tests for FIFO resources on the event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import FifoResource, Simulator


class TestSingleServer:
    def test_serves_in_order_with_waiting(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        waits = []
        core.submit(2.0, waits.append)
        core.submit(1.0, waits.append)
        core.submit(1.0, waits.append)
        sim.run()
        assert waits == [pytest.approx(0.0), pytest.approx(2.0), pytest.approx(3.0)]
        assert sim.now == pytest.approx(4.0)
        assert core.jobs_served == 3

    def test_idle_resource_serves_immediately(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        waits = []
        core.submit(1.0, waits.append)
        sim.run()
        core.submit(1.0, waits.append)
        sim.run()
        assert waits == [pytest.approx(0.0), pytest.approx(0.0)]

    def test_queue_depth_tracked(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        for _ in range(5):
            core.submit(1.0, lambda w: None)
        assert core.queue_depth == 4
        assert core.busy == 1
        sim.run()
        assert core.max_queue_depth == 4
        assert core.queue_depth == 0

    def test_zero_service_time_allowed(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        done = []
        core.submit(0.0, lambda w: done.append(w))
        sim.run()
        assert done == [0.0]

    def test_negative_service_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FifoResource(sim, "core").submit(-1.0, lambda w: None)


class TestMultiServer:
    def test_utilization(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        core.submit(1.0, lambda w: None)
        core.submit(1.0, lambda w: None)
        sim.run()
        assert core.utilization(elapsed=2.0) == pytest.approx(1.0)
        assert core.utilization(elapsed=4.0) == pytest.approx(0.5)

    def test_utilization_requires_positive_elapsed(self):
        pool = FifoResource(Simulator(), "pool")
        with pytest.raises(SimulationError):
            pool.utilization(0.0)

    def test_mean_wait(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        core.submit(2.0, lambda w: None)
        core.submit(2.0, lambda w: None)
        sim.run()
        assert core.mean_wait == pytest.approx(1.0)
