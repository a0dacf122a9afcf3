"""The paper's contribution: Mercury/Iridium stacks, servers, and models."""

from repro._lazy import lazy_exports

# Bound eagerly: the function shares its module's name, and importing
# that module would otherwise set ``repro.core.design_space`` to it.
from repro.core.design_space import design_space

_EXPORTS = {
    "repro.core.components": ("COMPONENT_CATALOG", "Component", "component_by_name"),
    "repro.core.calibration": ("CalibrationConstants", "DEFAULT_CALIBRATION"),
    "repro.core.latency_model": (
        "LatencyModel",
        "MemorySpec",
        "RequestTiming",
        "dram_spec",
        "flash_spec",
    ),
    "repro.core.stack": ("StackConfig", "mercury_stack", "iridium_stack"),
    "repro.core.server": ("ServerDesign", "ServerConstraints", "DEFAULT_CONSTRAINTS"),
    "repro.core.metrics": ("OperatingPoint", "ServerMetrics", "evaluate_server"),
    "repro.core.design_space": (
        "CORES_PER_STACK_SWEEP",
        "EVALUATED_CORES",
        "design_space",
        "best_config",
    ),
    "repro.core.thermal": ("ThermalReport", "thermal_report"),
    "repro.core.hybrid": ("HybridStack", "hybrid_sweep"),
    "repro.core.provisioning": (
        "Demand",
        "ProvisioningPlan",
        "ServerCandidate",
        "candidate_from_baseline",
        "candidate_from_design",
        "cheapest_plan",
        "plan_fleet",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
