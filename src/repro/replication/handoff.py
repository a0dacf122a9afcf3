"""Hinted handoff: writes for a down replica, parked for replay.

When a write's preferred list contains a down node, the coordinator
cannot deliver that copy — but it can remember it.  A :class:`Hint` is
the parked copy (key, version, and a transport-specific payload); the
:class:`HintQueue` holds them per destination node, newest version wins
per key, and :meth:`HintQueue.drain` hands them back in deterministic
(version, key) order when the node is readmitted.

The queue is transport-agnostic: the client-side coordinator parks the
actual ``(value, flags, expire_at)`` tuple (the absolute expiry, so a
replayed copy dies with its siblings), while the full-system DES parks
just the value size it needs to regenerate the functional write.  A
bounded queue models a real coordinator's hint buffer: beyond
``max_hints_per_node`` distinct keys, new hints for unseen keys are
dropped (and counted) rather than growing without bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY


@dataclass(frozen=True)
class Hint:
    """One parked write for a down replica.

    ``trace_id`` is the request id of the originating write's causal
    trace (``None`` when tracing is off): replaying the hint emits a
    follow-from span linked back to that trace.
    """

    node: str
    key: bytes
    version: int
    payload: object = None
    trace_id: int | None = None


class HintQueue:
    """Per-node parking lot for writes a down replica missed."""

    def __init__(
        self,
        max_hints_per_node: int = 100_000,
        registry: MetricsRegistry = NULL_REGISTRY,
    ):
        if max_hints_per_node < 1:
            raise ConfigurationError("hint queue bound must be positive")
        self.max_hints_per_node = max_hints_per_node
        self._hints: dict[str, dict[bytes, Hint]] = {}
        self.queued = 0
        self.replayed = 0
        self.dropped = 0
        self._queued_total = registry.counter("replication_hints_queued_total")
        self._replayed_total = registry.counter("replication_hints_replayed_total")
        self._dropped_total = registry.counter("replication_hints_dropped_total")
        self._depth_gauge = registry.gauge("replication_hint_queue_depth")

    def park(
        self,
        node: str,
        key: bytes,
        version: int,
        payload: object = None,
        trace_id: int | None = None,
    ) -> bool:
        """Park one missed write; returns False if it was dropped.

        Per key only the newest version is kept (replaying an old hint
        over a newer one would un-write it), so the queue depth is
        bounded by distinct keys, not write volume.
        """
        per_node = self._hints.setdefault(node, {})
        existing = per_node.get(key)
        if existing is None and len(per_node) >= self.max_hints_per_node:
            self.dropped += 1
            self._dropped_total.inc()
            return False
        if existing is not None and existing.version >= version:
            return False
        per_node[key] = Hint(
            node=node, key=key, version=version, payload=payload, trace_id=trace_id
        )
        self.queued += 1
        self._queued_total.inc()
        self._depth_gauge.set(len(self))
        return True

    def depth(self, node: str | None = None) -> int:
        """Hints currently parked (for one node, or in total)."""
        if node is not None:
            return len(self._hints.get(node, {}))
        return len(self)

    def __len__(self) -> int:
        return sum(len(per_node) for per_node in self._hints.values())

    @property
    def nodes(self) -> frozenset[str]:
        """Nodes with at least one parked hint."""
        return frozenset(n for n, h in self._hints.items() if h)

    def drain(self, node: str) -> tuple[Hint, ...]:
        """Remove and return the node's hints in (version, key) order —
        the deterministic replay sequence readmission applies."""
        per_node = self._hints.pop(node, {})
        hints = tuple(
            sorted(per_node.values(), key=lambda hint: (hint.version, hint.key))
        )
        self.replayed += len(hints)
        self._replayed_total.inc(len(hints))
        self._depth_gauge.set(len(self))
        return hints
