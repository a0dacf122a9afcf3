"""Hybrid DES/fluid fidelity policy and segment planning.

The discrete-event simulator executes every request; that is the right
tool around *interesting* intervals — fault injections, SLO burns,
replication churn, thermal throttles — and three orders of magnitude too
expensive for the steady-state stretches between them.  "When to use 3D
Die-Stacked Memory for Bandwidth-Constrained Big Data Workloads" makes
the matching observation for analytic models: steady-state questions do
not need event-level replay.

:class:`FidelityPolicy` configures when the full-system model may
*fast-forward*: requests in a fluid window are still drawn one by one
from the same RNG stream and executed functionally against the same
stores (so hit/miss outcomes, store contents, and the RNG state at the
next DES window are bit-identical to a pure-DES run), but the per-request
event machinery — connection byte parsing, FIFO core queues, histogram
updates, tracing — is replaced by calibrated aggregates folded into the
same accounting (:class:`~repro.sim.full_system.FullSystemResults`,
``WindowedSeries`` timelines, the ``EnergyMeter`` ledger).

Modes
-----
``full``
    Pure DES; the policy is inert.  Bit-identical to runs that never
    mention fidelity.
``hybrid``
    DES inside guard-banded fault windows and an initial calibration
    segment; fluid fast-forward through the quiescent complement, with
    runtime tripwires (SLO alert, thermal derate, drops or saturation
    observed in calibration) dropping a window back to DES.
``fluid``
    Like ``hybrid`` but without the runtime tripwires — maximum speed
    for workloads the caller already knows are quiescent.  Fault windows
    and calibration still run as DES.

Guard bands and validity
------------------------
Fluid folding assumes the per-core queues are in steady state.  That
fails (a) around fault transitions, so each DES island is widened by
``guard_band_s`` on both sides; and (b) when queues are saturated, so a
window entry is refused when calibrated utilisation exceeds
``max_utilization`` or the calibration segment observed MAC drops.
Structural features whose event-level interleaving *is* the phenomenon
under study (replication quorums, batching, the tiered flashstore,
request hedging, causal tracing) disable fast-forward for the whole run
— the run silently degrades to ``full`` and records why.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Serialisable
from repro.errors import ConfigurationError
from repro.faults.schedule import FaultSchedule
from repro.telemetry.metrics import describe_metric

#: Accepted fidelity modes.
MODES = ("full", "fluid", "hybrid")

describe_metric(
    "sim_fidelity_fluid_windows_total",
    "Fluid fast-forward windows entered by the hybrid simulation core",
)
describe_metric(
    "sim_fidelity_fluid_seconds_total",
    "Simulated seconds covered by fluid fast-forward instead of DES",
)
describe_metric(
    "sim_fidelity_des_seconds_total",
    "Simulated seconds executed at full DES fidelity",
)
describe_metric(
    "sim_fidelity_fluid_requests_total",
    "Requests executed functionally inside fluid fast-forward windows",
)
describe_metric(
    "sim_fidelity_fluid_active",
    "1 while the run is inside a fluid fast-forward window, else 0",
)

@dataclass(frozen=True)
class FidelityPolicy(Serialisable):
    """When and how aggressively a run may fast-forward.

    ``guard_band_s`` widens every fault-derived DES island on both
    sides; ``calibration_s`` is the DES prefix used to calibrate the
    latency surrogate and per-core load split; fluid candidates shorter
    than ``min_fluid_window_s`` stay DES (not worth the mode switch);
    fluid windows advance in steps of at most ``max_fluid_step_s`` so
    housekeeping ticks (timeseries, SLO, energy, faults) observe fresh
    aggregates at their own cadence; ``max_utilization`` is the
    calibrated per-core load above which steady-state folding is
    refused.
    """

    mode: str = "hybrid"
    guard_band_s: float = 0.05
    calibration_s: float = 0.05
    min_fluid_window_s: float = 0.05
    max_fluid_step_s: float = 0.1
    max_utilization: float = 0.9

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"fidelity mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.guard_band_s < 0:
            raise ConfigurationError("guard_band_s cannot be negative")
        if self.calibration_s <= 0:
            raise ConfigurationError("calibration_s must be positive")
        if self.min_fluid_window_s <= 0:
            raise ConfigurationError("min_fluid_window_s must be positive")
        if self.max_fluid_step_s <= 0:
            raise ConfigurationError("max_fluid_step_s must be positive")
        if not 0.0 < self.max_utilization < 1.0:
            raise ConfigurationError("max_utilization must be in (0, 1)")


def plan_segments(
    policy: FidelityPolicy,
    faults: FaultSchedule | None,
    duration_s: float,
) -> list[tuple[float, float, str]]:
    """Split ``[0, duration_s]`` into ordered ``(start, end, kind)`` segments.

    ``kind`` is ``"des"`` or ``"fluid"``.  DES islands are the initial
    calibration prefix plus every fault-schedule interval widened by the
    guard band; the complement becomes fluid wherever it is at least
    ``min_fluid_window_s`` long.  In ``full`` mode the whole run is one
    DES segment.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if policy.mode == "full":
        return [(0.0, duration_s, "des")]

    islands: list[tuple[float, float]] = [(0.0, min(policy.calibration_s, duration_s))]
    if policy.guard_band_s > 0:
        # The run end is a boundary too: requests arriving within the
        # last guard band may or may not complete before the clock runs
        # out, and only DES can decide which — a trailing island keeps
        # the completed count exact instead of threshold-approximated.
        islands.append((max(0.0, duration_s - policy.guard_band_s), duration_s))
    if faults is not None:
        for start, end in fault_intervals(faults):
            islands.append(
                (
                    max(0.0, start - policy.guard_band_s),
                    min(duration_s, end + policy.guard_band_s),
                )
            )
    islands.sort()
    merged: list[list[float]] = []
    for start, end in islands:
        if start >= duration_s or end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, min(end, duration_s)])

    segments: list[tuple[float, float, str]] = []
    cursor = 0.0
    for start, end in merged:
        if start > cursor:
            segments.append((cursor, start, "fluid"))
        segments.append((start, end, "des"))
        cursor = end
    if cursor < duration_s:
        segments.append((cursor, duration_s, "fluid"))

    # Short fluid slivers are not worth the mode switch: merge them into
    # their neighbouring DES segments.
    cleaned: list[tuple[float, float, str]] = []
    for start, end, kind in segments:
        if kind == "fluid" and end - start < policy.min_fluid_window_s:
            kind = "des"
        if cleaned and cleaned[-1][2] == kind:
            cleaned[-1] = (cleaned[-1][0], end, kind)
        else:
            cleaned.append((start, end, kind))
    return cleaned


def allocate_proportional(weights: list[int], n: int) -> dict[int, int]:
    """Split ``n`` items across indexes proportionally to ``weights``.

    Largest-remainder (Hamilton) apportionment: every index gets the
    floor of its exact share, then the leftover items go to the largest
    fractional remainders (ties broken by lower index), so the result is
    deterministic, sums to exactly ``n``, and tracks the weight
    distribution as closely as integers allow.  This is how a fluid
    window folds a batch of completions into the calibration segment's
    latency-bucket distribution.
    """
    if n < 0:
        raise ConfigurationError("cannot allocate a negative count")
    total = sum(weights)
    if n == 0 or total <= 0:
        return {}
    scale = n / total
    alloc: dict[int, int] = {}
    remainders: list[tuple[float, int]] = []
    assigned = 0
    for index, weight in enumerate(weights):
        if weight <= 0:
            continue
        exact = weight * scale
        base = int(exact)
        if base:
            alloc[index] = base
            assigned += base
        remainders.append((exact - base, index))
    leftover = n - assigned
    if leftover:
        remainders.sort(key=lambda pair: (-pair[0], pair[1]))
        for _, index in remainders[:leftover]:
            alloc[index] = alloc.get(index, 0) + 1
    return alloc


def fault_intervals(faults: FaultSchedule) -> list[tuple[float, float]]:
    """The time spans during which a fault schedule perturbs the system.

    Crash/restart pairs span crash→restart (an unmatched crash extends
    to infinity); window faults (loss, corruption, degradation,
    wear-out) span ``at_s``→``until_s``.
    """
    spans: list[tuple[float, float]] = []
    open_crashes: dict[str, float] = {}
    for event in faults.events:  # already sorted by at_s
        if event.kind == "node_crash":
            open_crashes[event.node] = event.at_s
        elif event.kind == "node_restart":
            start = open_crashes.pop(event.node, event.at_s)
            spans.append((start, event.at_s))
        else:
            spans.append((event.at_s, event.until_s))
    # Unmatched crashes keep their node down for the rest of the run.
    for start in open_crashes.values():
        spans.append((start, float("inf")))
    return spans
