"""CPU substrate: core timing/power models and a cache simulator."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.cpu.core_model": (
        "CoreModel",
        "CORTEX_A7",
        "CORTEX_A15_1GHZ",
        "CORTEX_A15_1_5GHZ",
        "XEON_CORE",
        "ATOM_CORE",
        "CORE_CATALOG",
        "core_by_name",
    ),
    "repro.cpu.cache": ("Cache", "CacheStats", "estimate_miss_rate"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
