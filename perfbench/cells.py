"""The benchmark's four workload cells, built through the public API.

Each cell function returns fresh ``(stack, workload, options)`` for one
``FullSystemStack(...).run(workload, options)`` call.  The simulated
duration of each cell is fixed, so a seed pins the simulated outputs;
``duration_s`` shortens a cell for the benchmark's own tests only.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

# The program under test is the source tree next to the benchmark.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import iridium_stack, mercury_stack  # noqa: E402
from repro.exp.scenarios import get_scenario  # noqa: E402
from repro.faults import DEFAULT_RESILIENCE  # noqa: E402
from repro.flashstore.compaction import TieredStoreConfig  # noqa: E402
from repro.replication.config import ReplicationConfig  # noqa: E402
from repro.sim.fidelity import FidelityPolicy  # noqa: E402
from repro.sim.full_system import FullSystemStack  # noqa: E402
from repro.sim.run_options import RunOptions  # noqa: E402
from repro.telemetry.slo import SloMonitor, SloObjective  # noqa: E402
from repro.units import MB  # noqa: E402
from repro.workloads import WorkloadSpec  # noqa: E402
from repro.workloads.distributions import fixed_size  # noqa: E402

#: The enclosure cell of ``benchmarks/bench_fidelity.py``: one Mercury
#: stack's share of the 96-stack enclosure load.  The workload name
#: seeds the request stream, so it stays the fidelity benchmark's.
ENCLOSURE_WORKLOAD = WorkloadSpec(
    name="fidelity-bench",
    get_fraction=0.9,
    key_population=50_000,
    key_skew=0.5,
    value_sizes=fixed_size(64),
)
ENCLOSURE_RATE_HZ = 100_000.0
DES_BASELINE_S = 0.5
HYBRID_ENCLOSURE_S = 2.0
HYBRID_POLICY = FidelityPolicy(
    mode="hybrid", calibration_s=0.03, guard_band_s=0.02
)

#: 200k keys of 64 B against 1 MiB per core: the slab allocator evicts.
QUORUM_WORKLOAD = WorkloadSpec(
    name="quorum-crash",
    get_fraction=0.5,
    key_population=200_000,
    key_skew=0.5,
    value_sizes=fixed_size(64),
)
QUORUM_RATE_HZ = 5_000.0
QUORUM_S = 4.0  # core0 is down from 1.0 s to 3.0 s

FLASH_RATE_HZ = 40_000.0
FLASH_S = 1.0
#: 8-page log segments (as in ``benchmarks/bench_flashstore.py``) so
#: conversions and compactions repeat within one run; a 256-page
#: segment holds ~11k items per core and never seals in a run this size.
FLASH_STORE = TieredStoreConfig(log_segment_pages=8)


def _enclosure_slo() -> SloMonitor:
    return SloMonitor(
        objectives=[
            SloObjective(name="rtt-p99", target=0.99, deadline_s=0.020),
            SloObjective(name="availability", target=0.999),
        ],
    )


def _enclosure(seed, duration_s, fidelity):
    stack = FullSystemStack(
        stack=mercury_stack(16), memory_per_core_bytes=8 * MB, seed=seed
    )
    options = RunOptions(
        offered_rate_hz=ENCLOSURE_RATE_HZ,
        duration_s=duration_s,
        warmup_requests=8_000,
        energy_summary=True,
        slo=_enclosure_slo(),
        fidelity=fidelity,
    )
    return stack, ENCLOSURE_WORKLOAD, options


def des_baseline(seed, duration_s=None):
    return _enclosure(seed, duration_s or DES_BASELINE_S, None)


def hybrid_enclosure(seed, duration_s=None):
    return _enclosure(seed, duration_s or HYBRID_ENCLOSURE_S, HYBRID_POLICY)


def quorum_crash(seed, duration_s=None):
    stack = FullSystemStack(
        stack=mercury_stack(8), memory_per_core_bytes=1 * MB, seed=seed
    )
    options = replace(
        get_scenario("crash-restart").run_options(
            QUORUM_RATE_HZ, duration_s or QUORUM_S
        ),
        replication=ReplicationConfig(n=3, r=2, w=2),
        resilience=DEFAULT_RESILIENCE,
        trace_digest=True,
    )
    return stack, QUORUM_WORKLOAD, options


def flash_writeheavy(seed, duration_s=None):
    scenario = get_scenario("iridium-tiered-writeheavy")
    stack = FullSystemStack(
        stack=iridium_stack(16), memory_per_core_bytes=8 * MB, seed=seed
    )
    options = replace(
        scenario.run_options(FLASH_RATE_HZ, duration_s or FLASH_S),
        flashstore=FLASH_STORE,
    )
    return stack, scenario.workload(), options


#: Workload name -> cell function ``(seed, duration_s) -> (stack,
#: workload, options)``.
WORKLOADS = {
    "des-baseline": des_baseline,
    "hybrid-enclosure": hybrid_enclosure,
    "quorum-crash": quorum_crash,
    "flash-writeheavy": flash_writeheavy,
}


def build(workload: str, seed: int, *, duration_s=None, full_des=False):
    """Fresh ``(stack, workload spec, run options)`` for one run.

    ``full_des`` drops fluid fast-forwarding: the same cell and seed in
    pure DES, the reference the hybrid cell is checked against.
    """
    stack, spec, options = WORKLOADS[workload](seed, duration_s)
    if full_des:
        options = replace(options, fidelity=None)
    return stack, spec, options
