"""Memory substrate: 3D-stacked DRAM, conventional DRAM, NAND flash, FTL."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.memory.dram3d": ("StackedDram", "TEZZARON_4GB"),
    "repro.memory.dram_dimm": ("MemoryTech", "MEMORY_TECH_CATALOG", "memory_tech_by_name"),
    "repro.memory.flash": ("FlashDevice", "FlashTiming", "PBICS_19GB"),
    "repro.memory.ftl": ("FlashTranslationLayer",),
    "repro.memory.controller": ("PortAllocator", "QueuedChannel"),
    "repro.memory.endurance": (
        "EnduranceReport",
        "endurance_report",
        "max_put_rate_for_lifetime",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
