"""Golden digests of the full-system request pipeline, one per feature cell.

Each cell runs one small ``FullSystemStack.run`` and pins two SHA-256
digests: the canonical JSON of ``FullSystemResults.to_dict()`` and the
sorted lines of ``prometheus_text`` over the run's registry.  Sorting the
exposition lines lets a metric be registered at another point of the
run, but none may be added, dropped or changed.  The cells cover every
path through the pipeline: plain DES, a hybrid run with fluid windows,
client resilience through a crash, a quorum through a crash, hedged
GETs under a live tracer, whole-batch loss with serial retry, the
tiered flash store, and the energy/diurnal/SLO/time-series observers in
DES and hybrid.

To bless an intentional change::

    pytest tests/test_golden_full_system.py --regen-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import iridium_stack, mercury_stack
from repro.faults import DEFAULT_RESILIENCE, ResiliencePolicy
from repro.faults.schedule import crash_restart, lossy_link
from repro.flashstore.compaction import TieredStoreConfig
from repro.kvstore.batching import BatchPolicy
from repro.replication.config import ReplicationConfig
from repro.sim.fidelity import FidelityPolicy
from repro.sim.full_system import FullSystemStack
from repro.sim.run_options import RunOptions
from repro.telemetry import (
    NULL_TRACER,
    MetricsRegistry,
    SloMonitor,
    TelemetrySession,
    TimeSeriesRecorder,
    default_burn_rules,
    paper_sla_objectives,
    prometheus_text,
)
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.diurnal import DiurnalSchedule
from repro.workloads.distributions import fixed_size

GOLDEN_PATH = Path(__file__).parent / "golden" / "full_system_digests.json"

WORKLOAD = WorkloadSpec(
    name="golden-pipeline",
    get_fraction=0.9,
    key_population=5_000,
    value_sizes=fixed_size(64),
)
WRITE_HEAVY = WorkloadSpec(
    name="golden-pipeline-writeheavy",
    get_fraction=0.5,
    key_population=5_000,
    value_sizes=fixed_size(64),
)


def _registry_only() -> TelemetrySession:
    """A live registry without a tracer, so hybrid cells may still fold."""
    return TelemetrySession(registry=MetricsRegistry(), tracer=NULL_TRACER)


def _observers(session: TelemetrySession) -> dict:
    objectives = paper_sla_objectives()
    return {
        "slo": SloMonitor(
            objectives,
            default_burn_rules(
                objectives, short_window_s=0.02, long_window_s=0.06,
                threshold=5.0,
            ),
            resolution_s=0.01,
            registry=session.registry,
        ),
        "timeseries": TimeSeriesRecorder(session.registry, interval_s=0.05),
    }


def _plain_des():
    session = _registry_only()
    return 4, WORKLOAD, RunOptions(
        offered_rate_hz=20_000.0, duration_s=0.2, warmup_requests=4_000,
        telemetry=session,
    ), session


def _hybrid():
    session = _registry_only()
    return 4, WORKLOAD, RunOptions(
        offered_rate_hz=20_000.0, duration_s=0.3, warmup_requests=4_000,
        fidelity=FidelityPolicy(calibration_s=0.05, guard_band_s=0.02),
        telemetry=session,
    ), session


def _crash_resilient():
    session = _registry_only()
    return 4, WORKLOAD, RunOptions(
        offered_rate_hz=20_000.0, duration_s=0.3, warmup_requests=4_000,
        window_s=0.05, fill_on_miss=True,
        faults=crash_restart("core0", 0.1, 0.2),
        resilience=DEFAULT_RESILIENCE,
        telemetry=session,
    ), session


def _quorum_crash():
    session = TelemetrySession(max_traces=2_000)
    return 4, WRITE_HEAVY, RunOptions(
        offered_rate_hz=6_000.0, duration_s=0.3, warmup_requests=4_000,
        fill_on_miss=True,
        faults=crash_restart("core1", 0.1, 0.2),
        # No failover, so reads reach the restarted core and repair it.
        resilience=ResiliencePolicy(failover_after=None),
        replication=ReplicationConfig(
            n=3, r=2, w=2, hinted_handoff=True, anti_entropy_interval_s=0.08
        ),
        trace_digest=True,
        telemetry=session,
    ), session


def _hedged():
    session = TelemetrySession(max_traces=2_000)
    return 2, WORKLOAD, RunOptions(
        offered_rate_hz=10_000.0, duration_s=0.2, warmup_requests=4_000,
        resilience=ResiliencePolicy(hedge_after_s=120e-6),
        telemetry=session,
    ), session


def _batched_lossy():
    session = _registry_only()
    return 4, WORKLOAD, RunOptions(
        offered_rate_hz=30_000.0, duration_s=0.2, warmup_requests=4_000,
        faults=lossy_link(0.05),
        resilience=DEFAULT_RESILIENCE,
        batching=BatchPolicy(batch_max=16, linger_s=100e-6),
        telemetry=session,
    ), session


def _tiered():
    session = _registry_only()
    return 2, WRITE_HEAVY, RunOptions(
        offered_rate_hz=8_000.0, duration_s=0.3, warmup_requests=2_000,
        fill_on_miss=True,
        flashstore=TieredStoreConfig(log_segment_pages=8),
        energy_summary=True,
        telemetry=session,
    ), session


def _observed(fidelity):
    def cell():
        session = _registry_only()
        options = RunOptions(
            offered_rate_hz=20_000.0, duration_s=0.3, warmup_requests=4_000,
            energy_summary=True,
            diurnal=DiurnalSchedule(day_length_s=0.3, trough_fraction=0.3),
            fidelity=fidelity,
            telemetry=session,
            **_observers(session),
        )
        return 4, WORKLOAD, options, session

    return cell


#: Cell name -> (function building its options, stack family, a check
#: that the cell reached the path it exists to pin).
CELLS = {
    "plain-des": (_plain_des, "mercury", lambda r: r.completed > 0),
    "hybrid": (
        _hybrid, "mercury",
        lambda r: r.fidelity["sim_fidelity_fluid_windows_total"] >= 1,
    ),
    "crash-resilient": (
        _crash_resilient, "mercury", lambda r: r.retries > 0 and r.failovers > 0
    ),
    "quorum-crash": (
        _quorum_crash, "mercury",
        lambda r: r.hints_replayed > 0 and r.antientropy_repairs > 0
        and r.read_repairs > 0 and r.verify_reads > 0 and r.retries > 0
        and r.trace_digest is not None,
    ),
    "hedged": (_hedged, "mercury", lambda r: r.hedges > 0),
    "batched-lossy": (
        _batched_lossy, "mercury", lambda r: r.batches > 0 and r.retries > 0
    ),
    "tiered": (
        _tiered, "iridium",
        lambda r: r.flashstore["conversions"] > 0 and r.energy is not None,
    ),
    "observed-des": (_observed(None), "mercury", lambda r: r.energy is not None),
    "observed-hybrid": (
        _observed(FidelityPolicy(calibration_s=0.05, guard_band_s=0.02)),
        "mercury",
        lambda r: r.fidelity["sim_fidelity_fluid_windows_total"] >= 1,
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(name: str) -> dict:
    build, family, reached = CELLS[name]
    cores, workload, options, session = build()
    stack = (mercury_stack if family == "mercury" else iridium_stack)(cores)
    system = FullSystemStack(stack=stack, memory_per_core_bytes=4 * MB, seed=42)
    results = system.run(workload, options)
    assert reached(results), f"cell {name!r} missed the path it pins"
    lines = sorted(prometheus_text(session.registry).splitlines())
    return {
        "results": _sha256(
            json.dumps(results.to_dict(), sort_keys=True, separators=(",", ":"))
        ),
        "metrics": _sha256("\n".join(lines)),
    }


@pytest.fixture(scope="module")
def golden(pytestconfig):
    if pytestconfig.getoption("--regen-golden"):
        payload = {name: _digests(name) for name in CELLS}
        GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return payload
    if not GOLDEN_PATH.exists():
        pytest.fail(f"missing golden fixture {GOLDEN_PATH}; use --regen-golden")
    return json.loads(GOLDEN_PATH.read_text())


def test_every_cell_is_pinned(golden):
    assert set(golden) == set(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_golden(golden, name):
    assert _digests(name) == golden[name]
