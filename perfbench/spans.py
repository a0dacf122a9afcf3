"""Per-layer host time from spans around the calls into each layer.

Every entry below names a public function of one layer, or a group of
them, and the places where callers look those names up.  While a
:class:`SpanRecorder` is installed, each call to a patched name is a
span; spans nest by call stack, and each entry aggregates in memory:

* ``calls``: spans entered (a call from inside the same entry, such as
  ``request_timing_tiered`` calling ``request_timing``, is part of the
  outer span, not a new one);
* ``self_s``: host seconds in the entry minus the time its traced
  children took;
* ``total_s``: host seconds in the entry, children included.

The harness runs the traced call under :meth:`SpanRecorder.root`; the
root's remainder is the host time outside every entry, so the entries'
self times plus the remainder add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

#: entry -> [(module, attribute path)] patched while tracing.  A name
#: bound by ``from ... import`` is patched in every module that binds it.
ENTRIES: dict[str, list[tuple[str, str]]] = {
    "sim.events.schedule": [("repro.sim.events", "Simulator.schedule")],
    # Self time includes the request-pipeline closures of full_system.
    "sim.events.run": [("repro.sim.events", "Simulator.run")],
    "sim.resources.submit": [("repro.sim.resources", "FifoResource.submit")],
    # Self time outside Simulator.run: warmup loop and fluid fold.
    "sim.full_system.run": [("repro.sim.full_system", "FullSystemStack.run")],
    "kvstore.server_loop.feed": [("repro.kvstore.server_loop", "Connection.feed")],
    "kvstore.protocol.parse_command": [
        ("repro.kvstore.server_loop", "parse_command"),
    ],
    "kvstore.store.get": [("repro.kvstore.store", "KVStore.get")],
    "kvstore.store.set": [("repro.kvstore.store", "KVStore.set")],
    "kvstore.hash_table.find": [("repro.kvstore.hash_table", "HashTable.find")],
    "kvstore.consistent_hash.node_for": [
        ("repro.kvstore.consistent_hash", "ConsistentHashRing.node_for"),
    ],
    "core.latency_model.request_timing": [
        ("repro.core.latency_model", "LatencyModel.request_timing"),
        ("repro.core.latency_model", "LatencyModel.request_timing_tiered"),
    ],
    "network.packets.request_wire_payloads": [
        ("repro.network.packets", "request_wire_payloads"),
        ("repro.core.latency_model", "request_wire_payloads"),
        ("repro.sim.full_system", "request_wire_payloads"),
    ],
    "workloads.generator.next": [
        ("repro.workloads.generator", "WorkloadGenerator.next_request"),
        ("repro.workloads.generator", "WorkloadGenerator.next_raw"),
    ],
    "telemetry.energy.charge": [
        ("repro.telemetry.energy", f"EnergyMeter.{name}")
        for name in (
            "charge_core_busy",
            "charge_core_busy_bulk",
            "charge_memory_bytes",
            "charge_memory_bytes_bulk",
            "charge_nic_bytes",
            "charge_nic_bytes_bulk",
            "charge_flash_reads",
            "charge_flash_programs",
            "charge_flash_erases",
            "charge_flash_bulk",
        )
    ],
    "telemetry.slo.record": [
        ("repro.telemetry.slo", "SloMonitor.record"),
        ("repro.telemetry.slo", "SloMonitor.record_bulk"),
    ],
    # The live tracer only; the no-op tracer overrides these methods.
    "telemetry.tracing": [
        ("repro.telemetry.tracing", "Tracer.begin"),
        ("repro.telemetry.tracing", "Tracer.commit"),
        ("repro.telemetry.tracing", "Tracer.follow_from"),
        ("repro.telemetry.tracing", "RequestTrace.add_span"),
    ],
    "replication.placement.replicas_for": [
        ("repro.replication.placement", "ReplicaPlacement.replicas_for"),
    ],
    "replication.antientropy.sweep": [
        ("repro.replication.antientropy", "AntiEntropySweeper.sweep"),
    ],
    "flashstore.put": [("repro.flashstore.compaction", "TieredFlashStore.put")],
    "flashstore.get": [("repro.flashstore.compaction", "TieredFlashStore.get")],
}

_ROOT = "root"


class SpanRecorder:
    """Aggregates per-entry spans in memory while installed."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(ENTRIES, 0)
        self.self_s = dict.fromkeys(ENTRIES, 0.0)
        self.total_s = dict.fromkeys(ENTRIES, 0.0)
        # Open spans, innermost last: [entry, seconds in traced children].
        self._stack: list[list] = []

    def _wrap(self, entry: str, fn):
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] is entry:
                return fn(*args, **kwargs)
            frame = [entry, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[entry] += 1
                self_s[entry] += elapsed - frame[1]
                total_s[entry] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return span

    @contextmanager
    def installed(self):
        """Patch every entry's names for the duration of the block."""
        undo = []
        try:
            for entry, targets in ENTRIES.items():
                for module_name, path in targets:
                    owner = importlib.import_module(module_name)
                    *parents, name = path.split(".")
                    for parent in parents:
                        owner = getattr(owner, parent)
                    original = owner.__dict__[name]  # KeyError: target moved
                    setattr(owner, name, self._wrap(entry, original))
                    undo.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def root(self, fn):
        """Call ``fn()`` as the root span.

        Returns ``(result, start, end, remainder_s)``: perf-counter
        stamps around the call and the host seconds it spent outside
        every entry.
        """
        frame = [_ROOT, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
        return result, start, end, (end - start) - frame[1]
