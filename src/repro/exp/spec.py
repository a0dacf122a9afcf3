"""Declarative experiment specifications.

The paper's whole evaluation is a grid of (design point x workload x
rate) simulations; an :class:`ExperimentSpec` names one cell of such a
grid as plain data.  Everything in a spec is JSON-round-trippable —
which is exactly what makes it shippable to a worker process as a job
and hashable as a content-addressed cache key (:mod:`repro.exp.cache`).

Three job kinds cover the repo's experiments:

* ``full_system`` — one :class:`~repro.sim.full_system.FullSystemStack`
  run: a :class:`StackSpec` design point, a
  :class:`~repro.workloads.generator.WorkloadSpec`, and
  :class:`~repro.sim.run_options.RunOptions`.  Each job carries its own
  seed and builds its own simulator, so a grid's results are identical
  whether the jobs run serially or fanned across processes.
* ``design_point`` — one analytical
  :func:`~repro.core.metrics.evaluate_server` evaluation (the Fig. 7/8
  and Table 3/4 cells).
* ``headline`` — the abstract's headline ratios under a perturbed
  calibration (the sensitivity ablation's unit of work).

``calibration_scale`` scales named calibration constants (dotted paths
as in :mod:`repro.analysis.sensitivity`) before evaluation, so ablation
grids are first-class specs too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec import Serialisable
from repro.core.stack import StackConfig, iridium_stack, mercury_stack
from repro.cpu.core_model import CORTEX_A7, CORTEX_A15_1GHZ, CORTEX_A15_1_5GHZ
from repro.errors import ConfigurationError
from repro.sim.run_options import RunOptions
from repro.workloads.generator import WorkloadSpec

#: Job kinds the engine understands.
KINDS = ("full_system", "design_point", "headline")

#: Core models addressable by name in a serialised spec.
CORE_MODELS = {
    core.name: core for core in (CORTEX_A7, CORTEX_A15_1GHZ, CORTEX_A15_1_5GHZ)
}

_FAMILIES = ("mercury", "iridium")


@dataclass(frozen=True)
class StackSpec(Serialisable):
    """A 3D-stack design point, by name rather than by object.

    ``family``/``cores``/``core``/``has_l2`` pick the
    :class:`~repro.core.stack.StackConfig`;
    ``memory_per_core_bytes``/``max_queue_per_core`` are the
    full-system simulator's knobs (ignored by analytical jobs).
    """

    family: str = "mercury"
    cores: int = 4
    core: str = CORTEX_A7.name
    has_l2: bool = True
    memory_per_core_bytes: int | None = None
    max_queue_per_core: int | None = 256

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ConfigurationError(
                f"unknown stack family {self.family!r} (want one of {_FAMILIES})"
            )
        if self.core not in CORE_MODELS:
            raise ConfigurationError(
                f"unknown core model {self.core!r} "
                f"(want one of {sorted(CORE_MODELS)})"
            )
        if self.cores < 1:
            raise ConfigurationError("a stack needs at least one core")

    def build(self) -> StackConfig:
        builder = mercury_stack if self.family == "mercury" else iridium_stack
        return builder(
            cores=self.cores, core=CORE_MODELS[self.core], has_l2=self.has_l2
        )


@dataclass(frozen=True)
class ExperimentSpec(Serialisable):
    """One experiment job, fully described by data.

    ``label`` is display-only (progress lines, tables) and excluded from
    identity — two specs differing only in label are the same experiment
    and share a cache entry.
    """

    kind: str
    stack: StackSpec = field(default_factory=StackSpec)
    seed: int = 0
    workload: WorkloadSpec | None = None
    options: RunOptions | None = None
    verb: str = "GET"
    value_bytes: int = 64
    calibration_scale: tuple[tuple[str, float], ...] = ()
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown experiment kind {self.kind!r} (want one of {KINDS})"
            )
        if self.kind == "full_system":
            if self.workload is None or self.options is None:
                raise ConfigurationError(
                    "a full_system spec needs a workload and RunOptions"
                )
            if self.options.has_instruments:
                raise ConfigurationError(
                    "experiment specs must be serialisable: detach "
                    "instruments (telemetry/timeseries/slo/profiler) "
                    "with RunOptions.without_instruments()"
                )
        if self.verb not in ("GET", "PUT"):
            raise ConfigurationError(f"unknown verb {self.verb!r}")
        if self.value_bytes <= 0:
            raise ConfigurationError("value_bytes must be positive")
        # Normalise so dict-built and directly-built specs compare equal.
        object.__setattr__(
            self,
            "calibration_scale",
            tuple(
                (str(name), float(factor))
                for name, factor in self.calibration_scale
            ),
        )

    # --- execution ----------------------------------------------------------

    def _calibration(self):
        """The (possibly perturbed) calibration this spec evaluates under."""
        from repro.analysis.sensitivity import perturb
        from repro.core.calibration import DEFAULT_CALIBRATION

        calibration = DEFAULT_CALIBRATION
        for name, factor in self.calibration_scale:
            calibration = perturb(calibration, name, factor)
        return calibration

    def execute(self) -> dict:
        """Run this experiment to completion and return its result dict.

        Pure by construction: the result is a function of the spec (plus
        the model constants baked into the repo), with no dependence on
        process, ordering, or wall-clock — the property the parallel
        runner and the result cache both rely on.
        """
        if self.kind == "full_system":
            return self._execute_full_system()
        if self.kind == "design_point":
            return self._execute_design_point()
        return self._execute_headline()

    def _execute_full_system(self) -> dict:
        from repro.sim.full_system import FullSystemStack

        system = FullSystemStack(
            stack=self.stack.build(),
            memory_per_core_bytes=self.stack.memory_per_core_bytes,
            max_queue_per_core=self.stack.max_queue_per_core,
            seed=self.seed,
        )
        results = system.run(self.workload, self.options)
        payload = results.to_dict()
        payload["kind"] = "full_system"
        payload["stack_name"] = system.stack.name
        return payload

    def _execute_design_point(self) -> dict:
        from dataclasses import replace

        from repro.core.metrics import OperatingPoint, evaluate_server
        from repro.core.server import ServerDesign

        stack = self.stack.build()
        if self.calibration_scale:
            stack = replace(stack, calibration=self._calibration())
        point = OperatingPoint(verb=self.verb, value_bytes=self.value_bytes)
        metrics = evaluate_server(ServerDesign(stack=stack), point)
        return {
            "kind": "design_point",
            "name": metrics.name,
            "stacks": metrics.stacks,
            "cores": metrics.cores,
            "density_bytes": metrics.density_bytes,
            "density_gb": metrics.density_gb,
            "power_w": metrics.power_w,
            "tps": metrics.tps,
            "bandwidth_bytes_s": metrics.bandwidth_bytes_s,
            "ktps_per_watt": metrics.ktps_per_watt,
            "ktps_per_gb": metrics.ktps_per_gb,
        }

    def _execute_headline(self) -> dict:
        from repro.analysis.sensitivity import headline_under
        from repro.core.metrics import OperatingPoint

        point = OperatingPoint(verb=self.verb, value_bytes=self.value_bytes)
        ratios = headline_under(self._calibration(), point)
        return {"kind": "headline", **ratios}
