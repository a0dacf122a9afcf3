"""Power modelling: component, stack, and server budget arithmetic,
plus the dynamic (activity-priced) model behind the energy meter."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.power.model": (
        "PowerBudget",
        "DEFAULT_BUDGET",
        "stack_power_w",
        "server_power_w",
    ),
    "repro.power.dynamic": ("CORE_IDLE_FRACTION", "DynamicPowerModel"),
    "repro.power.tco": ("CostModel", "DEFAULT_COSTS", "FleetCost"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
