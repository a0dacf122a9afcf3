"""Workload generation: key/value distributions, request streams, traffic."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.workloads.distributions": (
        "ZipfKeys",
        "ValueSizeDistribution",
        "ETC_VALUE_SIZES",
        "FIXED_64B",
    ),
    "repro.workloads.generator": ("Request", "WorkloadGenerator", "WorkloadSpec"),
    "repro.workloads.diurnal": ("DiurnalTraffic", "NETFLIX_LIKE"),
    "repro.workloads.sweep": ("REQUEST_SIZE_SWEEP", "sweep_sizes"),
    "repro.workloads.traces": (
        "ReplayStats",
        "read_trace",
        "record_workload",
        "replay",
        "write_trace",
    ),
    # The analytic Che and warm-up models are the only numpy users.
    "repro.workloads.che": (
        "cache_items_for_hit_rate",
        "lru_hit_rate",
        "zipf_lru_hit_rate",
        "zipf_popularities",
    ),
    "repro.workloads.warmup": (
        "expected_unique",
        "requests_to_hit_rate",
        "transient_hit_rate",
        "warmup_trajectory",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
