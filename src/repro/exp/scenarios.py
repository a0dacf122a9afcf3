"""Named scenarios: the preset configurations behind the demo CLIs.

Before this module, each CLI command re-assembled its own demo workload
and fault wiring inline ("telemetry-demo", "faults-demo", ...), so the
same scenario existed as three slightly different copies.  A
:class:`Scenario` names that configuration once — which fault preset to
inject, whether the store is pre-fillable, whether the client runs the
default resilience policy — and every front-end (``repro telemetry``,
``repro faults``, ``repro sweep``) resolves the name through
:data:`SCENARIOS`.

A scenario is deliberately *partial*: it fixes the workload shape and
fault plan but not the design point or load, which stay per-command
knobs.  :meth:`Scenario.to_spec` closes over those to produce a
cacheable :class:`~repro.exp.spec.ExperimentSpec`.

Feature knobs travel as **overrides**: a mapping in the
:meth:`~repro.sim.run_options.RunOptions.to_dict` vocabulary
(``batching``, ``flashstore``, ``energy_summary``, ``diurnal``,
``fidelity``, ``trace_digest``, ...) that :meth:`Scenario.run_options`
applies on top of the base options via
:meth:`~repro.sim.run_options.RunOptions.from_dict`.  Every override
therefore lands on the serialised options — and the experiment cache
keys on the serialised options — so a scenario cannot grow a knob that
the cache silently ignores.  Unknown keys and refused feature pairs are
rejected eagerly at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.exp.spec import ExperimentSpec, StackSpec
from repro.faults.schedule import PRESETS, FaultSchedule
from repro.flashstore.compaction import TieredStoreConfig
from repro.kvstore.batching import BatchPolicy
from repro.sim.run_options import RunOptions
from repro.workloads.distributions import fixed_size
from repro.workloads.diurnal import DiurnalSchedule
from repro.workloads.generator import WorkloadSpec

#: Override keys that name the per-command design point: scenarios are
#: deliberately partial, so these stay CLI knobs and cannot be baked in.
_DESIGN_POINT_KEYS = ("offered_rate_hz", "duration_s")


@dataclass(frozen=True)
class Scenario:
    """A named preset: fault plan + demo-workload shape + overrides.

    ``faults`` names a :data:`repro.faults.schedule.PRESETS` entry (or
    None for a fault-free baseline).  ``fill_on_miss`` mirrors the CLI
    behaviour of pre-filling under faults so hit rate measures fault
    impact, not cold-start misses.

    ``overrides`` carries every other feature knob as a mapping in the
    ``RunOptions.to_dict`` vocabulary, e.g.::

        Scenario(name="batched", description="...",
                 overrides={"batching": {"batch_max": 16,
                                         "linger_s": 100e-6}})

    :meth:`run_options` applies the mapping onto the base options with
    ``RunOptions.from_dict``, so unknown keys raise
    :class:`~repro.errors.ConfigurationError` (eagerly, at scenario
    construction) and every override is covered by experiment cache
    keys by construction.  The design point (``offered_rate_hz``,
    ``duration_s``) is refused — that stays a per-command knob.
    """

    name: str
    description: str
    faults: str | None = None
    fill_on_miss: bool = False
    resilience: bool = False
    get_fraction: float = 0.9
    key_population: int = 20_000
    overrides: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.faults is not None and self.faults not in PRESETS:
            raise ConfigurationError(
                f"scenario {self.name!r} names unknown fault preset "
                f"{self.faults!r} (want one of {sorted(PRESETS)})"
            )
        merged = dict(self.overrides or {})
        baked = [key for key in _DESIGN_POINT_KEYS if key in merged]
        if baked:
            raise ConfigurationError(
                f"scenario {self.name!r} overrides cannot set the design "
                f"point {baked} — rate and duration stay per-command knobs"
            )
        object.__setattr__(self, "overrides", merged)
        # Validate the whole mapping eagerly through the same parser that
        # will apply it: unknown keys, malformed sub-configs and refused
        # feature pairs fail at construction, not first use.  Keep the
        # parsed probe for the derived accessors.
        parsed = RunOptions.from_dict(
            {"offered_rate_hz": 1.0, "duration_s": 1.0, **merged}
        )
        object.__setattr__(self, "_parsed", parsed)

    # --- derived feature views ---------------------------------------------

    def batch_policy(self) -> BatchPolicy | None:
        return self._parsed.batching

    def flashstore_config(self) -> TieredStoreConfig | None:
        return self._parsed.flashstore

    def diurnal_schedule(self) -> DiurnalSchedule | None:
        return self._parsed.diurnal

    def fault_schedule(self) -> FaultSchedule | None:
        return PRESETS[self.faults] if self.faults else None

    def workload(self, value_bytes: int = 64) -> WorkloadSpec:
        return WorkloadSpec(
            name=f"{self.name}-demo",
            get_fraction=self.get_fraction,
            key_population=self.key_population,
            value_sizes=fixed_size(value_bytes),
        )

    def run_options(
        self,
        offered_rate_hz: float,
        duration_s: float,
        *,
        warmup_requests: int = 10_000,
        window_s: float | None = None,
    ) -> RunOptions:
        from repro.faults import DEFAULT_RESILIENCE

        base = RunOptions(
            offered_rate_hz=offered_rate_hz,
            duration_s=duration_s,
            warmup_requests=warmup_requests,
            window_s=window_s,
            fill_on_miss=self.fill_on_miss,
            faults=self.fault_schedule(),
            resilience=DEFAULT_RESILIENCE if self.resilience else None,
        )
        if not self.overrides:
            return base
        payload = base.to_dict()
        payload.update(self.overrides)
        return RunOptions.from_dict(payload)

    def to_spec(
        self,
        stack: StackSpec,
        offered_rate_hz: float,
        duration_s: float,
        *,
        seed: int = 0,
        value_bytes: int = 64,
        warmup_requests: int = 10_000,
        window_s: float | None = None,
        label: str = "",
    ) -> ExperimentSpec:
        """This scenario at a concrete design point and load."""
        return ExperimentSpec(
            kind="full_system",
            stack=stack,
            seed=seed,
            workload=self.workload(value_bytes),
            options=self.run_options(
                offered_rate_hz,
                duration_s,
                warmup_requests=warmup_requests,
                window_s=window_s,
            ),
            label=label or f"{self.name}@{offered_rate_hz:.0f}Hz",
        )


def _build_registry() -> dict[str, Scenario]:
    scenarios = {
        "baseline": Scenario(
            name="baseline",
            description="fault-free demo workload (90% GETs, zipf keys)",
        ),
    }
    scenarios["batched"] = Scenario(
        name="batched",
        description="fault-free workload over the coalesced request path "
        "(batch_max=16, 100us linger)",
        get_fraction=0.95,
        overrides={"batching": {"batch_max": 16, "linger_s": 100e-6}},
    )
    scenarios["batched-64"] = Scenario(
        name="batched-64",
        description="deep batching for peak-density TPS "
        "(batch_max=64, 200us linger)",
        get_fraction=0.95,
        overrides={"batching": {"batch_max": 64, "linger_s": 200e-6}},
    )
    scenarios["iridium-tiered"] = Scenario(
        name="iridium-tiered",
        description="fault-free workload over the SILT-style tiered "
        "flash store (log/hash/sorted tiers; Iridium stacks only)",
        overrides={"flashstore": {"log_segment_pages": 256}},
    )
    scenarios["iridium-tiered-writeheavy"] = Scenario(
        name="iridium-tiered-writeheavy",
        description="write-heavy (50% PUT) workload over the tiered "
        "flash store — the regime where log packing beats the page-per-"
        "item FTL (Iridium stacks only)",
        get_fraction=0.5,
        overrides={"flashstore": {"log_segment_pages": 256}},
    )
    scenarios["energy-diurnal"] = Scenario(
        name="energy-diurnal",
        description="energy-metered workload through one compressed "
        "day of load (peak -> 30% trough -> peak) so the power timeline "
        "shows energy proportionality",
        overrides={
            "energy_summary": True,
            "diurnal": {"day_length_s": 1.0, "trough_fraction": 0.3},
        },
    )
    for preset in sorted(PRESETS):
        scenarios[preset] = Scenario(
            name=preset,
            description=f"demo workload under the {preset!r} fault preset",
            faults=preset,
            fill_on_miss=True,
        )
    return scenarios


#: Every named scenario: ``baseline``, the two batched presets, the two
#: tiered-flashstore presets, the energy-metered diurnal preset, plus
#: one per fault preset.
SCENARIOS: dict[str, Scenario] = _build_registry()


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r} (want one of {sorted(SCENARIOS)})"
        ) from None


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)
