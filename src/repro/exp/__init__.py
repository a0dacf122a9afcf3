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

from repro.exp.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    cache_key,
    canonical_json,
    constants_fingerprint,
)
from repro.exp.grid import GridSpec, design_point_grid
from repro.exp.runner import ExperimentReport, run_experiments
from repro.exp.scenarios import SCENARIOS, Scenario, get_scenario, scenario_names
from repro.exp.spec import (
    CORE_MODELS,
    KINDS,
    ExperimentSpec,
    StackSpec,
)

__all__ = [
    "CORE_MODELS",
    "DEFAULT_CACHE_DIR",
    "ExperimentReport",
    "ExperimentSpec",
    "GridSpec",
    "KINDS",
    "ResultCache",
    "SCENARIOS",
    "Scenario",
    "StackSpec",
    "cache_key",
    "canonical_json",
    "constants_fingerprint",
    "design_point_grid",
    "get_scenario",
    "run_experiments",
    "scenario_names",
]
