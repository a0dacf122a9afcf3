"""The scenario registry: names, fault wiring, spec construction."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.exp import SCENARIOS, Scenario, get_scenario, scenario_names
from repro.exp.cache import cache_key
from repro.exp.spec import StackSpec
from repro.faults import PRESETS
from repro.kvstore.batching import BatchPolicy


class TestRegistry:
    def test_baseline_batched_tiered_plus_every_fault_preset(self):
        assert set(scenario_names()) == (
            {
                "baseline",
                "batched",
                "batched-64",
                "iridium-tiered",
                "iridium-tiered-writeheavy",
                "energy-diurnal",
            }
            | set(PRESETS)
        )

    def test_names_are_self_consistent(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("chaos-monkey")

    def test_unknown_fault_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="fault preset"):
            Scenario(name="x", description="d", faults="volcano")


class TestBehaviour:
    def test_baseline_has_no_faults(self):
        baseline = get_scenario("baseline")
        assert baseline.fault_schedule() is None
        options = baseline.run_options(offered_rate_hz=1e4, duration_s=1.0)
        assert options.faults is None
        assert options.resilience is None

    def test_fault_scenarios_resolve_their_preset(self):
        for name in PRESETS:
            scenario = get_scenario(name)
            assert scenario.fault_schedule() == PRESETS[name]
            options = scenario.run_options(offered_rate_hz=1e4, duration_s=1.0)
            assert options.faults == PRESETS[name]
            assert options.fill_on_miss

    def test_workload_carries_scenario_name(self):
        workload = get_scenario("lossy-link").workload(value_bytes=128)
        assert workload.name == "lossy-link-demo"
        assert workload.value_sizes.mean == 128.0

    def test_to_spec_is_cacheable_and_labelled(self):
        scenario = get_scenario("crash-restart")
        spec = scenario.to_spec(
            StackSpec(cores=2, memory_per_core_bytes=1 << 22),
            offered_rate_hz=2e4,
            duration_s=0.5,
        )
        assert spec.kind == "full_system"
        assert spec.label == "crash-restart@20000Hz"
        assert spec.options.faults == PRESETS["crash-restart"]
        assert len(cache_key(spec)) == 64

    def test_to_spec_round_trips(self):
        import json

        from repro.exp import ExperimentSpec

        spec = get_scenario("degraded-dram").to_spec(
            StackSpec(cores=1, memory_per_core_bytes=1 << 22),
            offered_rate_hz=5e3,
            duration_s=0.2,
            seed=9,
        )
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec


class TestTieredScenarios:
    def test_registry_entries_route_through_the_flash_store(self):
        tiered = get_scenario("iridium-tiered")
        writeheavy = get_scenario("iridium-tiered-writeheavy")
        assert tiered.get_fraction == 0.9
        assert writeheavy.get_fraction == 0.5
        for scenario in (tiered, writeheavy):
            options = scenario.run_options(offered_rate_hz=1e4, duration_s=1.0)
            config = options.flashstore
            assert config is not None
            assert config == scenario.flashstore_config()
            assert config.log_segment_pages == 256

    def test_plain_scenarios_leave_flashstore_off(self):
        options = get_scenario("baseline").run_options(
            offered_rate_hz=1e4, duration_s=1.0
        )
        assert options.flashstore is None
        assert get_scenario("baseline").flashstore_config() is None

    def test_flashstore_and_batching_refuse_to_combine(self):
        options = get_scenario("iridium-tiered").run_options(
            offered_rate_hz=1e4, duration_s=1.0
        )
        with pytest.raises(ConfigurationError, match="batching"):
            dataclasses.replace(options, batching=BatchPolicy(batch_max=16))

    def test_flashstore_and_batching_refuse_to_combine_via_overrides(self):
        with pytest.raises(ConfigurationError, match="batching"):
            Scenario(
                name="x",
                description="d",
                overrides={
                    "flashstore": {"log_segment_pages": 256},
                    "batching": {"batch_max": 16},
                },
            )

    def test_segment_pages_validated_eagerly(self):
        with pytest.raises(ConfigurationError, match="log_segment_pages"):
            Scenario(
                name="x",
                description="d",
                overrides={"flashstore": {"log_segment_pages": 0}},
            )

    def test_tiered_spec_gets_its_own_cache_key(self):
        stack = StackSpec(cores=2, memory_per_core_bytes=1 << 22)
        plain = get_scenario("baseline").to_spec(
            stack, offered_rate_hz=1e4, duration_s=0.5
        )
        tiered = get_scenario("iridium-tiered").to_spec(
            stack, offered_rate_hz=1e4, duration_s=0.5
        )
        assert cache_key(plain) != cache_key(tiered)


class TestEnergyScenario:
    def test_registry_entry_turns_on_meter_and_diurnal(self):
        scenario = get_scenario("energy-diurnal")
        assert scenario.diurnal_schedule().day_length_s == 1.0
        options = scenario.run_options(offered_rate_hz=1e4, duration_s=1.0)
        assert options.energy_summary
        assert options.diurnal == scenario.diurnal_schedule()

    def test_energy_spec_gets_its_own_cache_key(self):
        stack = StackSpec(cores=2, memory_per_core_bytes=1 << 22)
        plain = get_scenario("baseline").to_spec(
            stack, offered_rate_hz=1e4, duration_s=0.5
        )
        metered = get_scenario("energy-diurnal").to_spec(
            stack, offered_rate_hz=1e4, duration_s=0.5
        )
        assert cache_key(plain) != cache_key(metered)

    def test_negative_diurnal_day_rejected(self):
        with pytest.raises(ConfigurationError, match="day length"):
            Scenario(
                name="x",
                description="d",
                overrides={"diurnal": {"day_length_s": -1.0}},
            )


class TestOverrides:
    """The overrides mapping: validation and cache-key coverage."""

    STACK = StackSpec(cores=2, memory_per_core_bytes=1 << 22)

    def test_unknown_override_key_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown RunOptions"):
            Scenario(name="x", description="d", overrides={"turbo": True})

    def test_malformed_sub_config_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="BatchPolicy"):
            Scenario(
                name="x",
                description="d",
                overrides={"batching": {"batch_maximum": 16}},
            )

    def test_design_point_keys_refused(self):
        for key in ("offered_rate_hz", "duration_s"):
            with pytest.raises(ConfigurationError, match="design"):
                Scenario(name="x", description="d", overrides={key: 1.0})

    def test_overrides_land_on_run_options(self):
        scenario = Scenario(
            name="x",
            description="d",
            overrides={
                "batching": {"batch_max": 8, "linger_s": 50e-6},
                "energy_summary": True,
                "trace_digest": True,
            },
        )
        options = scenario.run_options(offered_rate_hz=1e4, duration_s=1.0)
        assert options.batching is not None
        assert options.batching.batch_max == 8
        assert options.energy_summary
        assert options.trace_digest

    def test_every_override_changes_the_cache_key(self):
        """No override can hide from the experiment cache: each example
        must produce a different cache key than the un-overridden base."""
        examples = [
            {"batching": {"batch_max": 16, "linger_s": 1e-4}},
            {"flashstore": {"log_segment_pages": 128}},
            {"energy_summary": True},
            {"diurnal": {"day_length_s": 1.0, "trough_fraction": 0.4}},
            {"trace_digest": True},
            {"fidelity": {"mode": "hybrid"}},
            {"keep_samples": True},
            {"fill_on_miss": True},
            {"warmup_requests": 99},
        ]
        base = Scenario(name="x", description="d")
        base_key = cache_key(
            base.to_spec(self.STACK, offered_rate_hz=1e4, duration_s=0.5)
        )
        keys = {base_key}
        for overrides in examples:
            spec = Scenario(
                name="x", description="d", overrides=overrides
            ).to_spec(self.STACK, offered_rate_hz=1e4, duration_s=0.5)
            keys.add(cache_key(spec))
        assert len(keys) == len(examples) + 1
