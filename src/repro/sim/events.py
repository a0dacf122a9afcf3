"""A minimal, deterministic discrete-event engine.

Events fire in (time, insertion-order) order, so simultaneous events are
processed FIFO and every run is exactly reproducible.  The engine is
deliberately tiny — the paper's methodology only needs request lifecycles
and resource queues on top of it.

The public surface of :class:`Simulator` is deliberately small and stable:

``schedule(delay, cb)`` / ``schedule_at(time, cb)``
    One-shot callbacks; both return the :class:`Event` handle.
``cancel(event)``
    Lazy cancellation with tombstone accounting — the heap is compacted
    when dead entries outnumber live ones, so a workload that cancels
    most of what it schedules (hedges, linger timers) cannot grow the
    queue without bound.
``run(until=...)`` / ``run_until(time)`` / ``step()``
    Drain the queue, optionally up to a time horizon.
``recurring(interval_s, fn, horizon_s)``
    The one idiom every housekeeping loop (telemetry snapshots,
    anti-entropy sweeps, energy ticks) used to hand-roll: fire
    ``fn(t)`` every ``interval_s`` until ``horizon_s``.  The engine
    reuses a single :class:`Event` object across firings, so a
    million-tick loop allocates one event, not a million.

Performance notes: the heap holds ``(time, sequence, event)`` tuples, so
``heapq`` orders entries with C tuple comparisons and never calls back
into Python.  A heap sift makes many comparisons per push/pop, and a
Python comparator on :class:`Event` made ordering the hottest line in
``SimProfiler`` traces of the full-system model.  Sequences are unique,
so a comparison never reaches the event itself.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable

from repro.errors import SimulationError

#: Compaction of lazily-cancelled events only kicks in past this many
#: tombstones — tiny queues are cheaper to drain than to rebuild.
_COMPACT_MIN_DEAD = 64


class Event:
    """A scheduled callback: the handle :meth:`Simulator.schedule` returns.

    The heap orders the event by the ``time`` and ``sequence`` it was
    queued with; assigning either afterwards does not move it.
    """

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

    __slots__ = ("sim", "event", "stopped")

    def __init__(self, sim: "Simulator", event: Event):
        self.sim = sim
        self.event = event
        self.stopped = False

    def stop(self) -> None:
        """Stop the loop: the pending firing is cancelled, nothing reschedules."""
        self.stopped = True
        self.sim.cancel(self.event)


class Simulator:
    """The event loop: schedule callbacks, run until quiescent or a bound."""

    def __init__(self) -> None:
        #: Heap of ``(time, sequence, event)``; cancelled events stay in
        #: it as tombstones until popped or compacted away.
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = 0
        #: Cancelled entries in ``_queue``.
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
        time = self.now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, callback)
        heappush(self._queue, (time, sequence, event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        return self.schedule(time - self.now, callback)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (idempotent, lazy).

        The event stays in the heap as a tombstone until it either comes
        due (and is skipped) or a compaction pass rebuilds the heap.
        Compaction runs when tombstones outnumber live entries, bounding
        queue growth for cancel-heavy workloads.  Cancelling an event
        that already fired only marks it: no tombstone is left.
        """
        if event.cancelled:
            return
        event.cancelled = True
        if self._queued(event):
            self._dead += 1
            if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._queue):
                self._compact()

    def _queued(self, event: Event) -> bool:
        """Whether ``event`` is still in the heap.

        Entries leave the heap in ``(time, sequence)`` order, and every
        new entry sorts after the last one that left (its time is at
        least ``now`` and its sequence is the largest yet), so an event
        is queued exactly when it does not sort before the heap's head.
        """
        queue = self._queue
        if not queue:
            return False
        head_time, head_sequence, _ = queue[0]
        return event.time > head_time or (
            event.time == head_time and event.sequence >= head_sequence
        )

    def _compact(self) -> None:
        """Drop all tombstones and rebuild the heap in place.

        Mutates the existing list (slice assignment) rather than
        rebinding ``self._queue``: ``run()``/``step()`` hold a local
        alias to the list across callbacks, and a cancel-triggered
        compaction inside a callback must not strand that alias on a
        stale snapshot while new events land in a replacement.
        """
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
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
            handle = RecurringHandle(self, dummy)
            handle.stopped = True
            return handle

        event = Event(first, self._sequence, lambda: None)
        self._sequence += 1
        handle = RecurringHandle(self, event)

        def fire() -> None:
            t = event.time
            fn(t)
            # ``Simulator.cancel`` from inside ``fn`` ends the loop like
            # ``stop()``: the event is out of the heap, so re-queueing it
            # would leave an uncounted tombstone.
            if handle.stopped or event.cancelled:
                return
            nxt = t + interval_s
            if nxt <= horizon_s + eps:
                sequence = self._sequence
                self._sequence = sequence + 1
                event.time = nxt
                event.sequence = sequence
                heappush(self._queue, (nxt, sequence, event))

        fire.__qualname__ = getattr(fn, "__qualname__", repr(fn))
        event.callback = fire
        heappush(self._queue, (first, event.sequence, event))
        return handle

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _, event = heappop(queue)
            if event.cancelled:
                if self._dead:
                    self._dead -= 1
                continue
            if time < self.now:
                raise SimulationError("event queue went backwards in time")
            advance = time - self.now
            self.now = time
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
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    if self._dead:
                        self._dead -= 1
                    continue
                if until is not None and time > until:
                    self.now = until
                    return
                heappop(queue)
                if time < self.now:
                    raise SimulationError("event queue went backwards in time")
                self.now = time
                event.callback()
                self.events_processed += 1
            if until is not None and until > self.now:
                self.now = until
            return
        while queue:
            time, _, event = queue[0]
            if event.cancelled:
                heappop(queue)
                if self._dead:
                    self._dead -= 1
                continue
            if until is not None and time > until:
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
