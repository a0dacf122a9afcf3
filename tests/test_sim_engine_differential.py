"""Differential tests: the event engine and the core queue against the
implementation they replaced.

The reference below is the earlier ``Simulator``, ``Event``,
``RecurringHandle`` (``repro/sim/events.py``) and ``FifoResource``
(``repro/sim/resources.py``), copied verbatim: its heap held ``Event``
objects ordered by a Python ``__lt__``, and each queued job was a
``_Job`` dataclass completed by a per-job closure.  Hypothesis scripts
drive both with the same operations and compare what a caller can see.

The one intended difference is tombstone accounting: the reference
counted a tombstone when an already-fired event was cancelled and none
when a recurring loop was stopped, so the two engines may compact their
heaps at different points.  ``pending`` is therefore compared on live
(uncancelled) entries only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import events as engine
from repro.sim import resources
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY

# --- reference: the earlier engine, verbatim ------------------------------------

#: Compaction of lazily-cancelled events only kicks in past this many
#: tombstones — tiny queues are cheaper to drain than to rebuild.
_COMPACT_MIN_DEAD = 64


class Event:
    """A scheduled callback.  Ordering: time, then insertion sequence."""

    __slots__ = ("time", "sequence", "callback", "cancelled")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None],
        cancelled: bool = False,
    ):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = cancelled

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.time == other.time and self.sequence == other.sequence

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, seq={self.sequence}{state})"

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it comes due.

        Prefer :meth:`Simulator.cancel`, which additionally maintains the
        tombstone accounting that triggers heap compaction.
        """
        self.cancelled = True


class RecurringHandle:
    """Handle for a :meth:`Simulator.recurring` loop; ``stop()`` ends it."""

    __slots__ = ("event", "stopped")

    def __init__(self, event: Event):
        self.event = event
        self.stopped = False

    def stop(self) -> None:
        """Stop the loop: the pending firing is cancelled, nothing reschedules."""
        self.stopped = True
        self.event.cancelled = True


class Simulator:
    """The event loop: schedule callbacks, run until quiescent or a bound."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._sequence = 0
        self._dead = 0
        self.now = 0.0
        self.events_processed = 0
        #: Optional hot-path profiler (duck-typed to
        #: :class:`repro.telemetry.profiler.SimProfiler`); None costs a
        #: single attribute check per event.
        self.profiler = None

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(self.now + delay, self._sequence, callback)
        self._sequence += 1
        heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        return self.schedule(time - self.now, callback)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (idempotent, lazy).

        The event object stays in the heap as a tombstone until it either
        comes due (and is skipped) or a compaction pass rebuilds the heap.
        Compaction runs when tracked tombstones outnumber live entries,
        bounding queue growth for cancel-heavy workloads.
        """
        if not event.cancelled:
            event.cancelled = True
            self._dead += 1
            if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._queue):
                self._compact()

    def _compact(self) -> None:
        """Drop all tombstones and rebuild the heap in place.

        Mutates the existing list (slice assignment) rather than
        rebinding ``self._queue``: ``run()``/``step()`` hold a local
        alias to the list across callbacks, and a cancel-triggered
        compaction inside a callback must not strand that alias on a
        stale snapshot while new events land in a replacement.
        """
        self._queue[:] = [e for e in self._queue if not e.cancelled]
        heapify(self._queue)
        self._dead = 0

    def recurring(
        self,
        interval_s: float,
        fn: Callable[[float], None],
        horizon_s: float,
        *,
        eps: float = 0.0,
    ) -> RecurringHandle:
        """Fire ``fn(t)`` every ``interval_s`` up to ``horizon_s``.

        The first firing lands at ``interval_s``; the last at the largest
        multiple satisfying ``t <= horizon_s + eps`` (``eps`` lets callers
        keep a float-slop boundary policy without hand-rolling the loop).
        ``fn`` receives the scheduled firing time — bit-identical to the
        retired pattern of threading ``nxt`` through a closure.

        One :class:`Event` object is reused across every firing; only the
        sequence number is re-drawn per firing, preserving the exact FIFO
        tie-break order the one-shot idiom produced.
        """
        if interval_s <= 0:
            raise SimulationError(f"recurring interval must be positive, got {interval_s}")
        if self.now != 0.0:
            raise SimulationError("recurring loops must be installed at t=0")
        first = interval_s
        if first > horizon_s + eps:
            # Horizon shorter than one interval: the loop never fires.
            dummy = Event(0.0, -1, lambda: None, cancelled=True)
            handle = RecurringHandle(dummy)
            handle.stopped = True
            return handle

        event = Event(first, self._sequence, lambda: None)
        self._sequence += 1
        handle = RecurringHandle(event)

        def fire() -> None:
            t = event.time
            fn(t)
            if handle.stopped:
                return
            nxt = t + interval_s
            if nxt <= horizon_s + eps:
                event.time = nxt
                event.sequence = self._sequence
                self._sequence += 1
                heappush(self._queue, event)

        fire.__qualname__ = getattr(fn, "__qualname__", repr(fn))
        event.callback = fire
        heappush(self._queue, event)
        return handle

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            event = heappop(queue)
            if event.cancelled:
                if self._dead:
                    self._dead -= 1
                continue
            if event.time < self.now:
                raise SimulationError("event queue went backwards in time")
            advance = event.time - self.now
            self.now = event.time
            profiler = self.profiler
            if profiler is None:
                event.callback()
            else:
                start = profiler.clock()
                event.callback()
                profiler.record_event(
                    event.callback, profiler.clock() - start, advance
                )
            self.events_processed += 1
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Drain the queue, optionally bounded by time.

        With ``until`` set, the clock is advanced to exactly ``until`` when
        the horizon is reached (later events stay queued).
        """
        queue = self._queue
        if self.profiler is None:
            # Hot path: inline the step loop, skipping the per-event
            # profiler check.
            while queue:
                event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    if self._dead:
                        self._dead -= 1
                    continue
                if until is not None and event.time > until:
                    self.now = until
                    return
                heappop(queue)
                if event.time < self.now:
                    raise SimulationError("event queue went backwards in time")
                self.now = event.time
                event.callback()
                self.events_processed += 1
            if until is not None and until > self.now:
                self.now = until
            return
        while queue:
            head = queue[0]
            if head.cancelled:
                heappop(queue)
                if self._dead:
                    self._dead -= 1
                continue
            if until is not None and head.time > until:
                self.now = until
                return
            self.step()
        if until is not None and until > self.now:
            self.now = until

    def run_until(self, time: float) -> None:
        """Advance the clock to exactly ``time``, firing everything due."""
        if time < self.now:
            raise SimulationError(f"cannot run until {time} < now {self.now}")
        self.run(until=time)


# --- reference: the earlier core queue, verbatim ---------------------------------


@dataclass
class _Job:
    service_time: float
    on_complete: Callable[[float], None]  # receives waiting time
    enqueued_at: float


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
        self._queue: deque[_Job] = deque()
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
        job = _Job(service_time, on_complete, self.sim.now)
        if not self._busy:
            self._start(job)
        else:
            self._queue.append(job)
            self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
            self._depth_gauge.set(len(self._queue))

    def _start(self, job: _Job) -> None:
        self._busy += 1
        wait = self.sim.now - job.enqueued_at
        self.total_wait += wait
        self.total_service += job.service_time
        self._wait_histogram.record(wait)
        if self.busy_observer is not None:
            self.busy_observer(self.sim.now, job.service_time)

        def finish() -> None:
            self._busy -= 1
            self.jobs_served += 1
            job.on_complete(wait)
            if self._queue and not self._busy:
                self._start(self._queue.popleft())
                self._depth_gauge.set(len(self._queue))

        self.sim.schedule(job.service_time, finish)

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


# --- engine scripts ---------------------------------------------------------------

DELAYS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
#: What a firing callback does next (drawn once, replayed on both engines).
CHILD_OPS = st.one_of(
    st.none(),
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=400)),
    st.tuples(st.just("stop"), st.integers(min_value=0, max_value=3)),
    # Enough cancels at once to push the tombstones past the compaction
    # threshold, from inside a callback as well as from the top level.
    st.tuples(st.just("burst"), st.integers(min_value=40, max_value=140)),
)
TOP_OPS = st.one_of(
    CHILD_OPS,
    st.tuples(st.just("schedule_at"), DELAYS),
    st.tuples(st.just("run_until"), st.floats(min_value=0.0, max_value=2.0)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run")),
)
LOOPS = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=5.0),
    ),
    max_size=3,
)


def _noop() -> None:
    pass


def _reference_live(sim: Simulator) -> int:
    return sum(1 for event in sim._queue if not event.cancelled)


def _live(sim: engine.Simulator) -> int:
    return sum(1 for _, _, event in sim._queue if not event.cancelled)


class _Script:
    """Replays one drawn script on one engine and records what it sees."""

    def __init__(self, sim, live, children):
        self.sim = sim
        self.live = live
        self.children = children
        self.firings = 0
        self.events = []
        self.loops = []
        self.seen = []

    def next_child(self) -> None:
        index = self.firings
        self.firings += 1
        if index < len(self.children):
            self.apply(self.children[index])

    def one_shot(self, label: int):
        def fire() -> None:
            self.seen.append(("fire", label, self.sim.now))
            self.next_child()

        return fire

    def loop_fn(self, label: int):
        def tick(t: float) -> None:
            self.seen.append(("tick", label, t, self.sim.now))
            self.next_child()

        return tick

    def apply(self, op) -> None:
        if op is None:
            return
        sim = self.sim
        kind = op[0]
        if kind == "schedule":
            self.events.append(sim.schedule(op[1], self.one_shot(len(self.events))))
        elif kind == "schedule_at":
            self.events.append(
                sim.schedule_at(sim.now + op[1], self.one_shot(len(self.events)))
            )
        elif kind == "cancel":
            if self.events:
                sim.cancel(self.events[op[1] % len(self.events)])
        elif kind == "stop":
            if self.loops:
                self.loops[op[1] % len(self.loops)].stop()
        elif kind == "burst":
            batch = [sim.schedule(1e6 + j, _noop) for j in range(op[1])]
            for event in batch:
                sim.cancel(event)
        elif kind == "run_until":
            sim.run(until=sim.now + op[1])
            self.checkpoint("run_until")
        elif kind == "step":
            self.seen.append(("step", sim.step()))
            self.checkpoint("step")
        else:
            sim.run()
            self.checkpoint("run")

    def checkpoint(self, label: str) -> None:
        sim = self.sim
        self.seen.append((label, sim.now, sim.events_processed, self.live(sim)))

    def play(self, loops, ops):
        for index, (interval, horizon) in enumerate(loops):
            self.loops.append(
                self.sim.recurring(interval, self.loop_fn(index), horizon)
            )
        for op in ops:
            self.apply(op)
        self.sim.run()
        self.checkpoint("end")
        return self.seen


def _tombstones(sim: engine.Simulator) -> int:
    return sum(1 for _, _, event in sim._queue if event.cancelled)


class TestEngineDifferential:
    @given(
        loops=LOOPS,
        ops=st.lists(TOP_OPS, max_size=40),
        children=st.lists(CHILD_OPS, max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_firings_clock_and_counts(self, loops, ops, children):
        reference = _Script(Simulator(), _reference_live, children).play(loops, ops)
        changed = _Script(engine.Simulator(), _live, children).play(loops, ops)
        assert changed == reference

    @given(
        loops=LOOPS,
        ops=st.lists(TOP_OPS, max_size=40),
        children=st.lists(CHILD_OPS, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_dead_counts_the_heap_tombstones(self, loops, ops, children):
        """After any mix of schedule, cancel, stop and run, ``_dead`` is
        the number of cancelled entries in the heap."""
        sim = engine.Simulator()
        script = _Script(sim, _live, children)
        checks = []
        original_apply = script.apply

        def apply_and_check(op):
            original_apply(op)
            checks.append((sim._dead, _tombstones(sim)))

        script.apply = apply_and_check
        script.play(loops, ops)
        assert all(dead == tombstones for dead, tombstones in checks)

    def test_compaction_in_a_callback_matches(self):
        ops = [("schedule", 0.5), ("schedule", 1.0), ("run",)]
        children = [("burst", 130), ("schedule", 0.0), ("cancel", 1)]
        reference = _Script(Simulator(), _reference_live, children).play([], ops)
        changed = _Script(engine.Simulator(), _live, children).play([], ops)
        assert changed == reference

    def test_cancel_after_fire_leaves_no_tombstone(self):
        """The reference counted a tombstone per cancel of a fired event:
        100 of them read 35 (one compaction at 65), with none in the heap."""
        for make, expected in ((Simulator, 35), (engine.Simulator, 0)):
            sim = make()
            events = [sim.schedule(float(i), _noop) for i in range(100)]
            sim.run()
            for event in events:
                sim.cancel(event)
            assert sim._dead == expected
        assert sim.pending == 0

    def test_stop_counts_its_tombstone(self):
        """The reference left ``stop()``'s tombstone uncounted."""
        for make, expected in ((Simulator, 1), (engine.Simulator, 2)):
            sim = make()
            handle = sim.recurring(1.0, lambda t: None, horizon_s=10.0)
            sim.cancel(sim.schedule(5.0, _noop))
            handle.stop()
            assert sim.pending == 2
            assert sim._dead == expected


# --- core-queue job streams ------------------------------------------------------


class _Spy:
    """Stands in for a gauge or a histogram and logs each update."""

    def __init__(self, log: list, kind: str):
        self.log = log
        self.kind = kind

    def set(self, value: float) -> None:
        self.log.append((self.kind, value))

    def record(self, value: float) -> None:
        self.log.append((self.kind, value))


JOBS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.1, 0.5]) | st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([0.0, 0.2]) | st.floats(min_value=0.0, max_value=1.0),
        # A follow-up job submitted from inside this job's completion.
        st.none() | st.floats(min_value=0.0, max_value=0.5),
    ),
    max_size=40,
)


def _serve(sim, resource_class, jobs):
    log = []
    resource = resource_class(
        sim,
        "core0",
        busy_observer=lambda start, service: log.append(("busy", start, service)),
    )
    resource._depth_gauge = _Spy(log, "depth")
    resource._wait_histogram = _Spy(log, "wait")

    def completion(tag, follow_up):
        def done(wait: float) -> None:
            log.append(("done", tag, wait, sim.now, resource.queue_depth))
            if follow_up is not None:
                resource.submit(follow_up, completion((tag, "next"), None))

        return done

    for tag, (arrival, service, follow_up) in enumerate(jobs):
        sim.schedule(
            arrival,
            lambda tag=tag, service=service, follow_up=follow_up: resource.submit(
                service, completion(tag, follow_up)
            ),
        )
    sim.run()
    return log, (
        resource.busy,
        resource.queue_depth,
        resource.max_queue_depth,
        resource.jobs_served,
        resource.total_wait,
        resource.total_service,
        resource.mean_wait,
        sim.now,
        sim.events_processed,
    )


class TestFifoResourceDifferential:
    @given(jobs=JOBS)
    @settings(max_examples=150, deadline=None)
    def test_same_completions_waits_and_counters(self, jobs):
        assert _serve(engine.Simulator(), resources.FifoResource, jobs) == _serve(
            Simulator(), FifoResource, jobs
        )

    def test_live_registry_records_the_same(self):
        jobs = [(0.0, 0.3, 0.1), (0.1, 0.2, None), (0.1, 0.0, None), (0.7, 0.1, None)]
        snapshots = []
        for sim, resource_class in (
            (Simulator(), FifoResource),
            (engine.Simulator(), resources.FifoResource),
        ):
            registry = MetricsRegistry()
            resource = resource_class(sim, "core0", registry=registry)
            for arrival, service, _ in jobs:
                sim.schedule(
                    arrival,
                    lambda service=service: resource.submit(service, lambda wait: None),
                )
            sim.run()
            labels = {"resource": "core0"}
            snapshots.append(
                (
                    registry.get("queue_depth", labels).value,
                    registry.get("queue_wait_seconds", labels).to_dict(),
                )
            )
        assert snapshots[0] == snapshots[1]

    def test_negative_service_rejected(self):
        resource = resources.FifoResource(engine.Simulator(), "core0")
        with pytest.raises(SimulationError):
            resource.submit(-1.0, resources.ignore_completion)
