"""The parallel experiment engine.

The paper's evaluation is a grid of independent experiments — design
points x workloads x rates.  This package makes that grid a first-class
object:

* :mod:`repro.exp.spec` — declarative, JSON-round-trippable job specs;
* :mod:`repro.exp.grid` — base spec x axes -> deterministic job lists;
* :mod:`repro.exp.runner` — serial or multi-process execution with
  results merged in spec order (bit-identical either way);
* :mod:`repro.exp.cache` — content-addressed on-disk result cache;
* :mod:`repro.exp.scenarios` — named presets shared by the CLIs.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.exp.cache": (
        "DEFAULT_CACHE_DIR",
        "ResultCache",
        "cache_key",
        "canonical_json",
        "constants_fingerprint",
    ),
    "repro.exp.grid": ("GridSpec", "design_point_grid"),
    "repro.exp.runner": ("ExperimentReport", "run_experiments"),
    "repro.exp.scenarios": ("SCENARIOS", "Scenario", "get_scenario", "scenario_names"),
    "repro.exp.spec": ("CORE_MODELS", "KINDS", "ExperimentSpec", "StackSpec"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
