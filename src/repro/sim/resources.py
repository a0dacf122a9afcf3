"""Queued resources for the discrete-event engine.

A :class:`FifoResource` models anything that serves one job at a time —
a core running Memcached, a memory port, a flash channel.  Jobs
are (service_time, completion_callback) pairs; waiting time is measured so
simulations can report queueing delay separately from service.

A waiting job is a plain ``(service_time, on_complete, enqueued_at)``
tuple, and the job in service completes through one bound method, so a
job costs no record object and no closure.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import SimulationError
from repro.sim.events import Simulator
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY


def ignore_completion(wait: float) -> None:
    """Completion callback of a job nothing waits on (background work)."""


class FifoResource:
    """A single-server FIFO queue attached to a simulator.

    With a live ``registry`` the resource streams its waiting times into
    a ``queue_wait_seconds{resource=...}`` histogram and mirrors its
    depth in a ``queue_depth{resource=...}`` gauge; the default
    :data:`~repro.telemetry.metrics.NULL_REGISTRY` records nothing.

    ``busy_observer(start_s, service_s)``, when set, is called as each
    job starts service — the hook the energy meter uses to charge
    active-core watts over exactly the intervals the server was busy.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        registry: MetricsRegistry = NULL_REGISTRY,
        busy_observer: Callable[[float, float], None] | None = None,
    ):
        self.sim = sim
        self.name = name
        self.busy_observer = busy_observer
        self._busy = 0
        #: Waiting jobs: ``(service_time, on_complete, enqueued_at)``.
        self._queue: deque[tuple[float, Callable[[float], None], float]] = deque()
        #: The job in service: its completion callback and its wait.
        self._on_complete: Callable[[float], None] = ignore_completion
        self._wait = 0.0
        self.jobs_served = 0
        self.total_wait = 0.0
        self.total_service = 0.0
        self.max_queue_depth = 0
        labels = {"resource": name}
        self._wait_histogram = registry.histogram("queue_wait_seconds", labels)
        self._depth_gauge = registry.gauge("queue_depth", labels)

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(self, service_time: float, on_complete: Callable[[float], None]) -> None:
        """Enqueue a job; ``on_complete(waiting_time)`` fires when served."""
        if service_time < 0:
            raise SimulationError("service time cannot be negative")
        if not self._busy:
            self._start(service_time, on_complete, self.sim.now)
        else:
            self._queue.append((service_time, on_complete, self.sim.now))
            self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
            self._depth_gauge.set(len(self._queue))

    def _start(
        self,
        service_time: float,
        on_complete: Callable[[float], None],
        enqueued_at: float,
    ) -> None:
        self._busy += 1
        now = self.sim.now
        wait = now - enqueued_at
        self._on_complete = on_complete
        self._wait = wait
        self.total_wait += wait
        self.total_service += service_time
        self._wait_histogram.record(wait)
        if self.busy_observer is not None:
            self.busy_observer(now, service_time)
        self.sim.schedule(service_time, self._finish)

    def _finish(self) -> None:
        """The job in service completes; the next waiting job starts."""
        self._busy -= 1
        self.jobs_served += 1
        self._on_complete(self._wait)
        if self._queue and not self._busy:
            self._start(*self._queue.popleft())
            self._depth_gauge.set(len(self._queue))

    # --- statistics ----------------------------------------------------------------

    @property
    def mean_wait(self) -> float:
        started = self.jobs_served + self._busy
        return self.total_wait / started if started else 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds spent busy."""
        if elapsed <= 0:
            raise SimulationError("elapsed time must be positive")
        return self.total_service / elapsed
