"""A simulator run imports only the modules it uses.

Package ``__init__``s re-export lazily, so a fresh interpreter that
imports the full-system simulator and the scenario registry, then runs a
DES, a hybrid, a quorum and a tiered cell, must never load numpy (only
the analytic Che and warm-up helpers use it), the paper's table and
figure code, the baselines, the network-facing clients and servers, the
experiment runner, or the telemetry exporters.
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


def test_simulator_run_loads_only_its_import_closure():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    unwanted = [
        name
        for name in loaded
        if name in NOT_LOADED
        or any(
            name == package or name.startswith(package + ".")
            for package in NOT_LOADED_PACKAGES
        )
    ]
    assert unwanted == []
