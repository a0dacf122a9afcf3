"""Declarative, seed-reproducible fault schedules.

The density argument of the paper (§4: 96 Mercury stacks in 1.5U) only
holds operationally if a rack of wimpy stacks *degrades gracefully*: one
dead stack among hundreds must cost its share of the cache and nothing
more.  A :class:`FaultSchedule` describes what goes wrong and when —
node crashes and restarts, NIC packet-loss or corruption bursts, DRAM
port degradation, flash-channel wear-out — as plain data, so the same
scenario can be replayed bit-identically against the full-system DES
(:mod:`repro.sim.full_system`), the cluster (:mod:`repro.kvstore.cluster`),
or the client (:class:`repro.kvstore.client.ResilientClient`).

Schedules are pure descriptions: nothing here draws random numbers or
touches a simulator.  The :class:`~repro.faults.injector.FaultInjector`
turns a schedule into simulator events and per-request decisions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.codec import Serialisable, inf_as_null
from repro.errors import ConfigurationError

#: Fault kinds understood by the injector.  ``node`` faults target one
#: named node (a cluster node name, or ``core<i>`` in the full-system
#: DES); ``link`` faults apply to every request on the wire; ``memory``
#: faults scale the service time of the named memory kind.
KINDS = (
    "node_crash",
    "node_restart",
    "packet_loss",
    "packet_corruption",
    "dram_degradation",
    "flash_wearout",
)

_NODE_KINDS = frozenset({"node_crash", "node_restart"})
_WINDOW_KINDS = frozenset(
    {"packet_loss", "packet_corruption", "dram_degradation", "flash_wearout"}
)


@dataclass(frozen=True)
class FaultEvent(Serialisable):
    """One scheduled fault.

    ``at_s`` is when the fault takes effect.  Window faults (loss,
    corruption, degradation, wear-out) additionally carry ``until_s``
    (``inf`` = for the rest of the run) and an intensity: a probability
    for link faults, a service-time multiplier for memory faults.
    """

    kind: str
    at_s: float
    node: str = ""
    until_s: float = inf_as_null()
    probability: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if self.at_s < 0:
            raise ConfigurationError("faults cannot be scheduled before t=0")
        if self.kind in _NODE_KINDS and not self.node:
            raise ConfigurationError(f"{self.kind} needs a target node")
        if self.kind in _WINDOW_KINDS and self.until_s <= self.at_s:
            raise ConfigurationError("fault window must end after it starts")
        if self.kind in ("packet_loss", "packet_corruption"):
            if not 0.0 <= self.probability <= 1.0:
                raise ConfigurationError("probability must be in [0, 1]")
        if self.kind in ("dram_degradation", "flash_wearout") and self.factor < 1.0:
            raise ConfigurationError("degradation factor must be >= 1")

    @property
    def memory_kind(self) -> str:
        """Which memory technology a degradation fault applies to."""
        return "flash" if self.kind == "flash_wearout" else "dram"


@dataclass(frozen=True)
class FaultSchedule(Serialisable):
    """An ordered collection of fault events for one run."""

    name: str
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a schedule needs a name")
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.at_s))
        )
        self._check_crash_restart_pairing()

    def _check_crash_restart_pairing(self) -> None:
        """A restart must follow a crash of the same node."""
        down: set[str] = set()
        for event in self.events:
            if event.kind == "node_crash":
                if event.node in down:
                    raise ConfigurationError(
                        f"node {event.node!r} crashed twice without a restart"
                    )
                down.add(event.node)
            elif event.kind == "node_restart":
                if event.node not in down:
                    raise ConfigurationError(
                        f"restart of {event.node!r} without a preceding crash"
                    )
                down.discard(event.node)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def nodes(self) -> frozenset[str]:
        """Every node named by a node fault."""
        return frozenset(e.node for e in self.events if e.node)

    def events_between(self, t0_s: float, t1_s: float) -> tuple[FaultEvent, ...]:
        """Events taking effect in ``(t0_s, t1_s]`` (for stepped drivers
        like the cluster tests, which advance logical time in chunks)."""
        return tuple(e for e in self.events if t0_s < e.at_s <= t1_s)

    # --- (de)serialisation ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"bad schedule JSON: {error}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "FaultSchedule":
        return cls.from_json(Path(path).read_text())


# --- convenience builders -------------------------------------------------------------


def crash_restart(
    node: str, crash_at_s: float, restart_at_s: float, name: str = "crash-restart"
) -> FaultSchedule:
    """A node dies at ``crash_at_s`` and comes back cold at ``restart_at_s``."""
    return FaultSchedule(
        name=name,
        events=(
            FaultEvent(kind="node_crash", at_s=crash_at_s, node=node),
            FaultEvent(kind="node_restart", at_s=restart_at_s, node=node),
        ),
    )


def lossy_link(
    probability: float,
    start_s: float = 0.0,
    until_s: float = float("inf"),
    name: str = "lossy-link",
) -> FaultSchedule:
    """Uniform packet loss at ``probability`` over a window."""
    return FaultSchedule(
        name=name,
        events=(
            FaultEvent(
                kind="packet_loss",
                at_s=start_s,
                until_s=until_s,
                probability=probability,
            ),
        ),
    )


def acceptance_schedule(node: str = "core0") -> FaultSchedule:
    """The PR's acceptance scenario: crash at t=1s, restart at t=3s,
    1 % packet loss throughout."""
    return FaultSchedule(
        name="crash-restart-lossy",
        events=(
            FaultEvent(kind="node_crash", at_s=1.0, node=node),
            FaultEvent(kind="node_restart", at_s=3.0, node=node),
            FaultEvent(kind="packet_loss", at_s=0.0, probability=0.01),
        ),
    )


def _preset_degraded_dram() -> FaultSchedule:
    return FaultSchedule(
        name="degraded-dram",
        events=(
            FaultEvent(
                kind="dram_degradation", at_s=1.0, until_s=3.0, factor=8.0
            ),
        ),
    )


def _preset_flash_wearout() -> FaultSchedule:
    return FaultSchedule(
        name="flash-wearout",
        events=(
            FaultEvent(kind="flash_wearout", at_s=1.0, factor=4.0),
        ),
    )


def _preset_corruption_burst() -> FaultSchedule:
    return FaultSchedule(
        name="corruption-burst",
        events=(
            FaultEvent(
                kind="packet_corruption", at_s=1.0, until_s=2.0, probability=0.05
            ),
        ),
    )


#: Named schedules the CLI and benchmarks can run by name.
PRESETS: dict[str, FaultSchedule] = {
    "crash-restart": crash_restart("core0", 1.0, 3.0),
    "crash-restart-lossy": acceptance_schedule(),
    "lossy-link": lossy_link(0.01),
    "corruption-burst": _preset_corruption_burst(),
    "degraded-dram": _preset_degraded_dram(),
    "flash-wearout": _preset_flash_wearout(),
}
