"""repro — a reproduction of *Integrated 3D-Stacked Server Designs for
Increasing Physical Density of Key-Value Stores* (Gutierrez et al.,
ASPLOS 2014).

The package models the paper's two proposed architectures — **Mercury**
(ARM Cortex-A7 cores 3D-stacked with 4 GB of DRAM and a NIC) and
**Iridium** (the same stack with 19.8 GB of NAND flash) — along with every
substrate the evaluation needs: a functional Memcached engine, a TCP/IP
cost model, 3D DRAM/flash device models, an FTL, a discrete-event
simulator, workload generators, and the commodity/TSSP baselines.

Quick start::

    from repro import mercury_stack, ServerDesign, evaluate_server

    server = ServerDesign(stack=mercury_stack(cores=32))
    metrics = evaluate_server(server)          # 64 B GETs by default
    print(metrics.tps / 1e6, "MTPS", metrics.ktps_per_watt, "KTPS/W")
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.core": (
        "CalibrationConstants",
        "DEFAULT_CALIBRATION",
        "LatencyModel",
        "MemorySpec",
        "OperatingPoint",
        "RequestTiming",
        "ServerConstraints",
        "ServerDesign",
        "ServerMetrics",
        "StackConfig",
        "best_config",
        "design_space",
        "dram_spec",
        "evaluate_server",
        "flash_spec",
        "iridium_stack",
        "mercury_stack",
        "thermal_report",
        "Demand",
        "cheapest_plan",
        "plan_fleet",
    ),
    "repro.baselines": (
        "COMMODITY_BASELINES",
        "MEMCACHED_14",
        "MEMCACHED_16",
        "MEMCACHED_BAGS",
        "TSSP",
    ),
    "repro.cpu": ("CORTEX_A7", "CORTEX_A15_1GHZ", "CORTEX_A15_1_5GHZ"),
    "repro.kvstore": (
        "KVStore",
        "MemcachedClient",
        "MemcachedCluster",
        "MemcachedServer",
    ),
    "repro.sim": ("FullSystemStack", "RunOptions"),
    "repro.exp": (
        "ExperimentSpec",
        "GridSpec",
        "ResultCache",
        "Scenario",
        "StackSpec",
        "run_experiments",
    ),
    "repro.telemetry": (
        "MetricsRegistry",
        "StreamingHistogram",
        "TelemetrySession",
        "EnergyMeter",
    ),
    "repro.workloads": ("REQUEST_SIZE_SWEEP",),
    "repro.replication": (
        "QuorumConfig",
        "ReplicationConfig",
        "ReplicationCoordinator",
        "ReplicaPlacement",
        "HintQueue",
        "AntiEntropySweeper",
    ),
    "repro.power": ("DynamicPowerModel",),
    "repro.workloads.diurnal": ("DiurnalSchedule",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
