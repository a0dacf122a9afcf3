"""Each entry point imports only the modules it uses.

Package ``__init__``s re-export lazily, so a fresh interpreter that
imports the full-system simulator and the scenario registry, then runs a
DES, a hybrid, a quorum and a tiered cell, must never load numpy (only
the analytic Che and warm-up helpers use it), the paper's table and
figure code, the baselines, the network-facing clients and servers, the
experiment runner, or the telemetry exporters.

The paper's artefacts are analytic, so building Figs. 7 and 8, the
sensitivity sweep and the whole report must load neither the experiment
engine nor the simulator, and no process pool.
"""

from __future__ import annotations

import json
import subprocess
import sys

SCRIPT = r"""
import json
import sys

import repro.exp.scenarios
import repro.sim.full_system
from repro.core import iridium_stack, mercury_stack
from repro.faults import DEFAULT_RESILIENCE
from repro.faults.schedule import crash_restart
from repro.flashstore import TieredStoreConfig
from repro.replication import ReplicationConfig
from repro.sim import FidelityPolicy, FullSystemStack, RunOptions
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.distributions import fixed_size

workload = WorkloadSpec(
    name="closure", get_fraction=0.5, key_population=2_000,
    value_sizes=fixed_size(64),
)
base = dict(offered_rate_hz=10_000.0, duration_s=0.1, warmup_requests=500)
cells = [
    (mercury_stack(4), RunOptions(**base)),
    (mercury_stack(4), RunOptions(
        **base, fidelity=FidelityPolicy(calibration_s=0.02, guard_band_s=0.01),
    )),
    (mercury_stack(4), RunOptions(
        **base,
        replication=ReplicationConfig(
            n=3, r=2, w=2, anti_entropy_interval_s=0.03
        ),
        faults=crash_restart("core1", 0.03, 0.06),
        resilience=DEFAULT_RESILIENCE,
        trace_digest=True,
    )),
    (iridium_stack(4), RunOptions(
        **base, flashstore=TieredStoreConfig(log_segment_pages=8),
    )),
]
for stack, options in cells:
    results = FullSystemStack(stack, memory_per_core_bytes=MB, seed=1).run(
        workload, options
    )
    assert results.completed > 0
print(json.dumps(sorted(sys.modules)))
"""

#: Modules a simulator run must not load, by exact name.
NOT_LOADED = {
    "repro.kvstore.client",
    "repro.kvstore.binary_protocol",
    "repro.kvstore.udp_server",
    "repro.workloads.che",
    "repro.workloads.warmup",
    "repro.exp.runner",
    "repro.telemetry.exporters",
}
#: ... and by package: the package itself and everything under it.
NOT_LOADED_PACKAGES = ("numpy", "repro.analysis", "repro.baselines")


ARTEFACT_SCRIPT = r"""
import json
import sys
import tempfile

from repro.analysis.figures import figure7_density_vs_tps, figure8_power_vs_tps
from repro.analysis.report_builder import build_report
from repro.analysis.sensitivity import sensitivity_sweep

figure7_density_vs_tps()
figure8_power_vs_tps()
sensitivity_sweep()
with tempfile.TemporaryDirectory() as tmp:
    build_report(tmp)
print(json.dumps(sorted(sys.modules)))
"""

#: Packages an artefact build must not load.
ARTEFACT_NOT_LOADED_PACKAGES = (
    "repro.exp",
    "repro.sim",
    "concurrent.futures",
    "multiprocessing",
)


def _unwanted(script: str, names=frozenset(), packages=()) -> list[str]:
    """Modules ``script`` loaded in a fresh interpreter that are in
    ``names`` or under one of ``packages``."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return [
        name
        for name in loaded
        if name in names
        or any(
            name == package or name.startswith(package + ".")
            for package in packages
        )
    ]


def test_simulator_run_loads_only_its_import_closure():
    assert _unwanted(SCRIPT, NOT_LOADED, NOT_LOADED_PACKAGES) == []


def test_artefact_build_loads_no_engine_or_simulator():
    assert _unwanted(ARTEFACT_SCRIPT, packages=ARTEFACT_NOT_LOADED_PACKAGES) == []
