"""DES hot-path profiler: where does ``run()`` spend real seconds?

The simulator's cost model charges *simulated* time; this profiler
measures the *wall-clock* cost of producing it, attributed per event
type — so before attempting a performance PR we can see whether the
real seconds go to arrivals, completions, hedges, anti-entropy sweeps,
or somewhere unexpected.  Attach it to a
:class:`~repro.sim.events.Simulator` and every event callback is timed
and binned by its (compressed) qualname; coarse phases outside the
event loop (setup, warmup) are timed with :meth:`SimProfiler.span`.

The profiler observes, it does not perturb: simulated outcomes are
identical with it attached or not (it adds wall-clock overhead only),
and a detached simulator pays a single ``is None`` check per event.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class EventStats:
    """Accumulated cost of one event type (or one named span)."""

    name: str
    calls: int = 0
    wall_s: float = 0.0
    sim_s: float = 0.0
    max_wall_s: float = 0.0

    def add(self, wall_s: float, sim_s: float) -> None:
        self.calls += 1
        self.wall_s += wall_s
        self.sim_s += sim_s
        if wall_s > self.max_wall_s:
            self.max_wall_s = wall_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "max_wall_s": self.max_wall_s,
        }


def _label(callback: Callable) -> str:
    """Compressed identity of an event callback: ``serve.complete``, not
    ``RequestPipeline.serve.<locals>.complete``."""
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = type(callback).__name__
    if "functools.partial" in name:  # pragma: no cover - defensive
        name = "partial"
    parts = [p for p in name.split(".") if p != "<locals>"]
    return ".".join(parts[-2:]) if len(parts) > 1 else parts[0]


class SimProfiler:
    """Per-event-type wall-clock and simulated-time attribution.

    ``clock`` is injectable for deterministic tests; the default is
    :func:`time.perf_counter`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.events: dict[str, EventStats] = {}
        self.spans: dict[str, EventStats] = {}
        self.total_events = 0
        self.total_wall_s = 0.0

    # --- simulator side ----------------------------------------------------------

    def attach(self, sim) -> None:
        """Hook into a :class:`~repro.sim.events.Simulator` (duck-typed:
        anything with a ``profiler`` attribute its step loop consults)."""
        sim.profiler = self

    def record_event(
        self, callback: Callable, wall_s: float, sim_advance_s: float
    ) -> None:
        """Called by the simulator's step loop around each callback."""
        label = _label(callback)
        stats = self.events.get(label)
        if stats is None:
            stats = self.events[label] = EventStats(label)
        stats.add(wall_s, sim_advance_s)
        self.total_events += 1
        self.total_wall_s += wall_s

    # --- host side ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Time a coarse wall-clock phase outside the event loop
        (setup, warmup, export)."""
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            stats = self.spans.get(name)
            if stats is None:
                stats = self.spans[name] = EventStats(name)
            stats.add(elapsed, 0.0)

    # --- reporting ---------------------------------------------------------------

    def top_events(self, n: int = 10) -> list[EventStats]:
        """Event types by wall-clock cost, heaviest first."""
        return sorted(
            self.events.values(), key=lambda s: (-s.wall_s, s.name)
        )[:n]

    def report(self, top_n: int = 10) -> str:
        """Terminal-friendly hot-path digest."""
        lines: list[str] = []
        if self.spans:
            lines.append("wall-clock by phase")
            for stats in sorted(
                self.spans.values(), key=lambda s: (-s.wall_s, s.name)
            ):
                lines.append(
                    f"  {stats.name:32s} {stats.wall_s * 1e3:10.1f} ms "
                    f"({stats.calls} spans)"
                )
        header = (
            f"event loop: {self.total_events} events, "
            f"{self.total_wall_s * 1e3:.1f} ms wall"
        )
        if self.total_events:
            header += (
                f", {self.total_wall_s / self.total_events * 1e6:.2f} us/event"
            )
        lines.append(header)
        if self.events:
            lines.append(
                f"  {'event type':32s} {'calls':>9s} {'wall ms':>9s} "
                f"{'%':>6s} {'us/call':>8s} {'sim s':>9s}"
            )
            for stats in self.top_events(top_n):
                share = (
                    stats.wall_s / self.total_wall_s if self.total_wall_s else 0.0
                )
                per_call = stats.wall_s / stats.calls * 1e6 if stats.calls else 0.0
                lines.append(
                    f"  {stats.name:32s} {stats.calls:>9d} "
                    f"{stats.wall_s * 1e3:>9.1f} {share:>6.1%} "
                    f"{per_call:>8.2f} {stats.sim_s:>9.4f}"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "total_events": self.total_events,
            "total_wall_s": self.total_wall_s,
            "events": [s.to_dict() for s in self.top_events(len(self.events))],
            "spans": [s.to_dict() for s in self.spans.values()],
        }
