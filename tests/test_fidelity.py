"""Hybrid DES/fluid fidelity: policy, planning, and DES-equivalence.

Three layers of guarantees, tested bottom-up.  The :class:`FidelityPolicy`
value object must validate and round-trip exactly (it is part of the
experiment cache key).  The segment planner must tile ``[0, duration]``
with guard-banded DES islands and fluid windows that are contiguous,
deterministic, and conservative around faults.  And the headline
contract: a hybrid run draws the same RNG stream and executes the same
store operations as pure DES, so everything RNG-determined (completions,
hits, misses, puts, response bytes) is *bit-identical*, while folded
timing aggregates (TPS, p99, p99.9) stay within 5 %.
"""

import dataclasses

import pytest

from repro.core import iridium_stack, mercury_stack
from repro.errors import ConfigurationError
from repro.exp.scenarios import get_scenario
from repro.faults import ResiliencePolicy
from repro.faults.schedule import (
    FaultEvent,
    FaultSchedule,
    crash_restart,
    lossy_link,
)
from repro.flashstore.compaction import TieredStoreConfig
from repro.kvstore.batching import BatchPolicy
from repro.replication.config import ReplicationConfig
from repro.sim.fidelity import (
    FidelityPolicy,
    allocate_proportional,
    fault_intervals,
    plan_segments,
)
from repro.sim.full_system import FullSystemStack
from repro.sim.run_options import RunOptions
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.diurnal import DiurnalSchedule
from repro.workloads.distributions import fixed_size

CORES = 4
RATE_HZ = 20_000.0
DURATION_S = 1.0

WORKLOAD = WorkloadSpec(
    name="fidelity-equivalence",
    get_fraction=0.9,
    key_population=20_000,
    value_sizes=fixed_size(64),
)


def _run(
    seed=1,
    fidelity=None,
    faults=None,
    fill_on_miss=False,
    energy=False,
    diurnal=None,
    rate_hz=RATE_HZ,
    duration_s=DURATION_S,
    cores=CORES,
    workload=WORKLOAD,
):
    options = RunOptions(
        offered_rate_hz=rate_hz,
        duration_s=duration_s,
        warmup_requests=10_000,
        fill_on_miss=fill_on_miss,
        faults=faults,
        energy_summary=energy,
        diurnal=diurnal,
        fidelity=fidelity,
    )
    stack = FullSystemStack(
        stack=mercury_stack(cores), memory_per_core_bytes=8 * MB, seed=seed
    )
    return stack.run(workload, options)


def _signature(results):
    """Everything determined by the RNG stream and store contents alone."""
    return (
        results.completed,
        results.get_hits,
        results.get_misses,
        results.puts,
        results.response_bytes,
    )


def _within(a, b, tol):
    ref = max(abs(a), abs(b))
    return ref == 0.0 or abs(a - b) <= tol * ref


def _assert_equivalent(des, hybrid):
    """The acceptance contract: exact functional outputs, 5 % timing."""
    assert _signature(hybrid) == _signature(des)
    assert _within(hybrid.throughput_hz, des.throughput_hz, 0.05)
    assert _within(hybrid.rtt_percentile(0.99), des.rtt_percentile(0.99), 0.05)
    assert _within(
        hybrid.rtt_percentile(0.999), des.rtt_percentile(0.999), 0.05
    )


class TestFidelityPolicy:
    def test_defaults(self):
        policy = FidelityPolicy()
        assert policy.mode == "hybrid"
        assert policy.guard_band_s == 0.05
        assert policy.calibration_s == 0.05
        assert policy.min_fluid_window_s == 0.05
        assert policy.max_fluid_step_s == 0.1
        assert policy.max_utilization == 0.9

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FidelityPolicy().mode = "fluid"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "turbo"},
            {"guard_band_s": -0.01},
            {"calibration_s": 0.0},
            {"min_fluid_window_s": 0.0},
            {"max_fluid_step_s": -1.0},
            {"max_utilization": 0.0},
            {"max_utilization": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FidelityPolicy(**kwargs)

    def test_round_trip(self):
        policy = FidelityPolicy(
            mode="fluid", guard_band_s=0.02, calibration_s=0.3
        )
        assert FidelityPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            FidelityPolicy.from_dict({"mode": "hybrid", "warp_factor": 9})

    def test_travels_through_run_options(self):
        options = RunOptions(
            offered_rate_hz=1000.0,
            duration_s=1.0,
            fidelity=FidelityPolicy(mode="hybrid", calibration_s=0.2),
        )
        rebuilt = RunOptions.from_dict(options.to_dict())
        assert rebuilt.fidelity == options.fidelity
        # Fidelity-free options must keep their historical cache keys.
        plain = RunOptions(offered_rate_hz=1000.0, duration_s=1.0)
        assert "fidelity" not in plain.to_dict()


class TestPlanSegments:
    def test_full_mode_is_one_des_segment(self):
        plan = plan_segments(FidelityPolicy(mode="full"), None, 4.0)
        assert plan == [(0.0, 4.0, "des")]

    def test_fault_free_hybrid_shape(self):
        plan = plan_segments(FidelityPolicy(), None, 1.0)
        assert plan == [
            (0.0, 0.05, "des"),
            (0.05, 0.95, "fluid"),
            (0.95, 1.0, "des"),
        ]

    def test_fault_island_is_guard_banded(self):
        plan = plan_segments(
            FidelityPolicy(), crash_restart("core0", 0.4, 0.5), 1.0
        )
        expected = [
            (0.0, 0.05, "des"),
            (0.05, 0.35, "fluid"),
            (0.35, 0.55, "des"),
            (0.55, 0.95, "fluid"),
            (0.95, 1.0, "des"),
        ]
        assert [kind for _, _, kind in plan] == [k for _, _, k in expected]
        for (start, end, _), (want_start, want_end, _) in zip(plan, expected):
            assert start == pytest.approx(want_start)
            assert end == pytest.approx(want_end)

    def test_overlapping_islands_merge(self):
        plan = plan_segments(
            FidelityPolicy(), crash_restart("core0", 0.08, 0.12), 1.0
        )
        # The guarded crash island [0.03, 0.17] overlaps the calibration
        # prefix, so the run opens with one fused DES segment.
        assert plan[0][2] == "des"
        assert plan[0][0] == 0.0
        assert plan[0][1] == pytest.approx(0.17)
        assert plan[1][2] == "fluid"

    def test_short_fluid_sliver_stays_des(self):
        plan = plan_segments(
            FidelityPolicy(), crash_restart("core0", 0.12, 0.3), 1.0
        )
        # The gap between calibration (ends 0.05) and the guarded island
        # (starts 0.07) is below min_fluid_window_s: not worth the mode
        # switch, so it folds into one DES segment.
        assert plan[0][2] == "des"
        assert plan[0][0] == 0.0
        assert plan[0][1] == pytest.approx(0.35)

    def test_unmatched_crash_pins_des_to_run_end(self):
        faults = FaultSchedule(
            name="no-restart",
            events=(FaultEvent(kind="node_crash", at_s=0.5, node="core0"),),
        )
        plan = plan_segments(FidelityPolicy(), faults, 1.0)
        assert plan[-1] == (0.45, 1.0, "des")

    def test_plans_tile_the_run_exactly(self):
        schedules = [
            None,
            crash_restart("core0", 0.4, 0.5),
            lossy_link(0.01, 0.2, 0.3),
            crash_restart("core0", 0.9, 2.0),
        ]
        for faults in schedules:
            plan = plan_segments(FidelityPolicy(), faults, 1.0)
            assert plan[0][0] == 0.0
            assert plan[-1][1] == 1.0
            for (_, end, kind), (start, _, next_kind) in zip(plan, plan[1:]):
                assert end == start
                assert kind != next_kind  # adjacent same-kind runs merge

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ConfigurationError):
            plan_segments(FidelityPolicy(), None, 0.0)


class TestAllocateProportional:
    def test_sums_to_n_and_tracks_weights(self):
        alloc = allocate_proportional([3, 1], 4)
        assert alloc == {0: 3, 1: 1}

    def test_largest_remainder_ties_break_by_lower_index(self):
        assert allocate_proportional([1, 1, 1], 2) == {0: 1, 1: 1}

    def test_zero_weight_gets_nothing(self):
        assert allocate_proportional([0, 4], 4) == {1: 4}

    def test_empty_cases(self):
        assert allocate_proportional([], 5) == {}
        assert allocate_proportional([1, 2], 0) == {}

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            allocate_proportional([1], -1)

    def test_exactness_over_many_shapes(self):
        for weights in ([7, 3, 5], [1, 0, 0, 99], [2, 2, 2, 2, 2]):
            for n in (1, 10, 97):
                alloc = allocate_proportional(weights, n)
                assert sum(alloc.values()) == n
                assert all(weights[i] > 0 for i in alloc)


class TestFaultIntervals:
    def test_crash_restart_pair_spans_the_outage(self):
        assert fault_intervals(crash_restart("core0", 1.0, 3.0)) == [
            (1.0, 3.0)
        ]

    def test_unmatched_crash_extends_forever(self):
        faults = FaultSchedule(
            name="down",
            events=(FaultEvent(kind="node_crash", at_s=2.0, node="core0"),),
        )
        assert fault_intervals(faults) == [(2.0, float("inf"))]

    def test_window_fault_spans_its_window(self):
        assert fault_intervals(lossy_link(0.01, 1.0, 2.5)) == [(1.0, 2.5)]


class TestHybridEquivalence:
    """DES vs hybrid on the tier-1 scenario shapes (4 cores, 20 kHz, 1 s)."""

    def test_baseline(self):
        des = _run(seed=1)
        hybrid = _run(seed=1, fidelity=FidelityPolicy(calibration_s=0.1))
        _assert_equivalent(des, hybrid)
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] >= 1
        assert "sim_fidelity_fallback_reason" not in hybrid.fidelity

    def test_crash_restart(self):
        faults = crash_restart("core0", 0.4, 0.6)
        des = _run(seed=42, faults=faults, fill_on_miss=True)
        hybrid = _run(
            seed=42,
            faults=faults,
            fill_on_miss=True,
            fidelity=FidelityPolicy(calibration_s=0.2),
        )
        _assert_equivalent(des, hybrid)
        # The guarded outage ran as a DES island, so fault-plane
        # outcomes match exactly too.
        assert hybrid.failed == des.failed
        assert hybrid.mac_drops == des.mac_drops
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] >= 1
        # Once the outage produces losses, the runtime tripwire keeps
        # the rest of the run at DES fidelity — and says why.
        assert (
            hybrid.fidelity["sim_fidelity_fallback_reason"]
            == "losses_observed"
        )

    def test_lossy_link_window(self):
        faults = lossy_link(0.01, 0.4, 0.6)
        des = _run(seed=1, faults=faults, fill_on_miss=True)
        hybrid = _run(
            seed=1,
            faults=faults,
            fill_on_miss=True,
            fidelity=FidelityPolicy(calibration_s=0.1),
        )
        _assert_equivalent(des, hybrid)
        assert hybrid.mac_drops == des.mac_drops
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] >= 1

    def test_energy_diurnal(self):
        diurnal = DiurnalSchedule(day_length_s=1.0, trough_fraction=0.3)
        des = _run(seed=7, energy=True, diurnal=diurnal)
        hybrid = _run(
            seed=7,
            energy=True,
            diurnal=diurnal,
            fidelity=FidelityPolicy(calibration_s=0.3),
        )
        _assert_equivalent(des, hybrid)
        assert _within(hybrid.energy["total_j"], des.energy["total_j"], 0.05)
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] >= 1

    def test_hybrid_is_deterministic(self):
        policy = FidelityPolicy(calibration_s=0.1)
        first = _run(seed=1, fidelity=policy)
        second = _run(seed=1, fidelity=policy)
        assert _signature(second) == _signature(first)
        assert second.rtt_histogram.count == first.rtt_histogram.count
        assert second.rtt_histogram.mean == first.rtt_histogram.mean
        assert second.fidelity == first.fidelity

    def test_fluid_mode_fast_forwards_too(self):
        des = _run(seed=1)
        fluid = _run(
            seed=1, fidelity=FidelityPolicy(mode="fluid", calibration_s=0.1)
        )
        _assert_equivalent(des, fluid)
        assert fluid.fidelity["sim_fidelity_mode"] == "fluid"
        assert fluid.fidelity["sim_fidelity_fluid_windows_total"] >= 1


#: Structural fallback case -> (expected reason, stack family, the
#: RunOptions fields that turn the features on).
STRUCTURAL_CASES = {
    "replication": (
        "replication", "mercury",
        {"replication": ReplicationConfig(n=2, r=1, w=1)},
    ),
    "batching": (
        "batching", "mercury",
        {"batching": BatchPolicy(batch_max=8, linger_s=100e-6)},
    ),
    "flashstore": (
        "flashstore", "iridium",
        {"flashstore": TieredStoreConfig(log_segment_pages=8)},
    ),
    "hedging": (
        "hedging", "mercury",
        {"resilience": ResiliencePolicy(hedge_after_s=200e-6)},
    ),
    "tracing": ("tracing", "mercury", {"trace_digest": True}),
    "keep_samples": ("keep_samples", "mercury", {"keep_samples": True}),
    # Two features at once: the earlier entry of the precedence order
    # is the one recorded.
    "hedging+keep_samples": (
        "hedging", "mercury",
        {
            "resilience": ResiliencePolicy(hedge_after_s=200e-6),
            "keep_samples": True,
        },
    ),
}


class TestFallbacks:
    @pytest.mark.parametrize("case", sorted(STRUCTURAL_CASES))
    def test_structural_feature_runs_pure_des(self, case):
        reason, family, features = STRUCTURAL_CASES[case]
        build = mercury_stack if family == "mercury" else iridium_stack
        rate_hz = 12_000.0 if family == "mercury" else 4_000.0

        def run(fidelity):
            options = RunOptions(
                offered_rate_hz=rate_hz,
                duration_s=0.2,
                warmup_requests=4_000,
                fidelity=fidelity,
                **features,
            )
            stack = FullSystemStack(
                stack=build(CORES), memory_per_core_bytes=8 * MB, seed=1
            )
            return stack.run(WORKLOAD, options)

        des = run(None).to_dict()
        hybrid = run(FidelityPolicy(calibration_s=0.05)).to_dict()
        fidelity = hybrid.pop("fidelity")
        assert fidelity["sim_fidelity_fallback_reason"] == reason
        assert fidelity["sim_fidelity_fluid_windows_total"] == 0
        assert hybrid == des

    def test_structural_batching_falls_back_to_pure_des(self):
        scenario = get_scenario("batched")
        base = scenario.run_options(RATE_HZ, DURATION_S, warmup_requests=8_000)
        hybrid_options = dataclasses.replace(
            base, fidelity=FidelityPolicy(mode="hybrid")
        )
        workload = scenario.workload(64)
        stack = FullSystemStack(
            stack=mercury_stack(CORES), memory_per_core_bytes=8 * MB, seed=1
        )
        des = stack.run(workload, base)
        stack = FullSystemStack(
            stack=mercury_stack(CORES), memory_per_core_bytes=8 * MB, seed=1
        )
        hybrid = stack.run(workload, hybrid_options)
        # Frame coalescing is event-level interleaving — the phenomenon
        # itself — so the run silently degrades to full DES and says so.
        assert hybrid.fidelity["sim_fidelity_fallback_reason"] == "batching"
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] == 0
        assert _signature(hybrid) == _signature(des)
        assert hybrid.rtt_histogram.mean == des.rtt_histogram.mean
        assert hybrid.batches == des.batches

    def test_saturated_calibration_refuses_to_fold(self):
        # One core at ~1.3x its service capacity: the calibrated
        # utilisation exceeds max_utilization, every fluid candidate is
        # refused, and the run stays exact DES end to end.
        des = _run(seed=1, cores=1, rate_hz=15_000.0, duration_s=0.5)
        hybrid = _run(
            seed=1,
            cores=1,
            rate_hz=15_000.0,
            duration_s=0.5,
            fidelity=FidelityPolicy(calibration_s=0.1),
        )
        assert hybrid.fidelity["sim_fidelity_fallback_reason"] == "saturated"
        assert hybrid.fidelity["sim_fidelity_fluid_seconds_total"] == 0.0
        assert _signature(hybrid) == _signature(des)
        assert hybrid.rtt_histogram.mean == des.rtt_histogram.mean

    def test_provenance_dict_accounts_for_the_whole_run(self):
        hybrid = _run(seed=1, fidelity=FidelityPolicy(calibration_s=0.1))
        prov = hybrid.fidelity
        assert prov["sim_fidelity_mode"] == "hybrid"
        assert prov["sim_fidelity_fluid_requests_total"] > 0
        total = (
            prov["sim_fidelity_fluid_seconds_total"]
            + prov["sim_fidelity_des_seconds_total"]
        )
        assert total == pytest.approx(DURATION_S)
