"""RunOptions: validation, refused feature pairs, and round-tripping."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mercury_stack
from repro.errors import ConfigurationError
from repro.faults import DEFAULT_RESILIENCE, PRESETS
from repro.flashstore.compaction import TieredStoreConfig
from repro.kvstore.batching import BatchPolicy
from repro.replication import ReplicationConfig
from repro.sim.full_system import FullSystemStack
from repro.sim.run_options import RunOptions
from repro.telemetry import MetricsRegistry, TelemetrySession
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.distributions import fixed_size


def small_workload() -> WorkloadSpec:
    return WorkloadSpec(
        name="ro-test",
        get_fraction=0.9,
        key_population=2_000,
        value_sizes=fixed_size(64),
    )


def make_stack() -> FullSystemStack:
    return FullSystemStack(
        stack=mercury_stack(2), memory_per_core_bytes=4 * MB, seed=1
    )


class TestValidation:
    def test_positive_rate_and_duration_required(self):
        with pytest.raises(ConfigurationError):
            RunOptions(offered_rate_hz=0.0, duration_s=1.0)
        with pytest.raises(ConfigurationError):
            RunOptions(offered_rate_hz=1.0, duration_s=0.0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigurationError):
            RunOptions(1000.0, 1.0, warmup_requests=-1)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            RunOptions(1000.0, 1.0, window_s=0.0)

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown RunOptions"):
            RunOptions.from_dict(
                {"offered_rate_hz": 1.0, "duration_s": 1.0, "rate": 2.0}
            )

    def test_missing_required_dict_field_rejected(self):
        with pytest.raises(ConfigurationError, match="offered_rate_hz"):
            RunOptions.from_dict({"duration_s": 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["offered_rate_hz", "duration_s", "window_s"])
    def test_non_finite_value_rejected_when_built(self, name, value):
        fields = {"offered_rate_hz": 1000.0, "duration_s": 1.0, name: value}
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            RunOptions(**fields)
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            RunOptions.from_dict(fields)


#: The refused feature pairs, each as the RunOptions fields that turn
#: both features on.
REFUSED = {
    "batching-replication": {
        "batching": BatchPolicy(batch_max=16, linger_s=100e-6),
        "replication": ReplicationConfig(n=3, r=2, w=2),
    },
    "flashstore-replication": {
        "flashstore": TieredStoreConfig(),
        "replication": ReplicationConfig(n=2, r=1, w=2),
    },
    "flashstore-batching": {
        "flashstore": TieredStoreConfig(),
        "batching": BatchPolicy(batch_max=16, linger_s=100e-6),
    },
}


class TestRefusals:
    @pytest.mark.parametrize("pair", sorted(REFUSED))
    def test_refused_pair_raises_when_built(self, pair):
        features = REFUSED[pair]
        with pytest.raises(ConfigurationError, match="cannot be combined"):
            RunOptions(offered_rate_hz=1000.0, duration_s=1.0, **features)
        with pytest.raises(ConfigurationError, match="cannot be combined"):
            dataclasses.replace(RunOptions(1000.0, 1.0), **features)
        with pytest.raises(ConfigurationError, match="cannot be combined"):
            RunOptions.from_dict(
                {"offered_rate_hz": 1000.0, "duration_s": 1.0, **features}
            )

    def test_single_copy_replication_and_serial_batching_combine(self):
        # n=1 is the sharded path and batch_max=1 the serial path, so
        # neither turns its feature on.
        options = RunOptions(
            1000.0,
            1.0,
            batching=BatchPolicy(batch_max=1),
            replication=ReplicationConfig(n=1, r=1, w=1),
            flashstore=TieredStoreConfig(),
        )
        assert not options.uses("batching")
        assert not options.uses("replication")
        assert options.uses("flashstore")

    @pytest.mark.parametrize(
        "options",
        [
            RunOptions(5_000.0, 0.05, flashstore=TieredStoreConfig()),
            RunOptions(
                5_000.0, 0.05, replication=ReplicationConfig(n=3, r=2, w=2)
            ),
        ],
        ids=["flashstore-on-dram", "replicas-exceed-cores"],
    )
    def test_stack_refusals_leave_instruments_untouched(self, options):
        # make_stack() is a two-core Mercury (DRAM) stack.
        registry = MetricsRegistry()
        options = options.with_instruments(
            telemetry=TelemetrySession(registry=registry)
        )
        registered = len(registry)  # the session's own tracer counters
        with pytest.raises(ConfigurationError):
            make_stack().run(small_workload(), options)
        assert len(registry) == registered


class TestRoundTrip:
    @given(
        rate=st.floats(min_value=1.0, max_value=1e7),
        duration=st.floats(min_value=1e-3, max_value=1e3),
        warmup=st.integers(min_value=0, max_value=10**6),
        keep=st.booleans(),
        fill=st.booleans(),
        window=st.one_of(
            st.none(), st.floats(min_value=1e-3, max_value=10.0)
        ),
    )
    @settings(max_examples=50)
    def test_dict_round_trip_exact(self, rate, duration, warmup, keep, fill, window):
        options = RunOptions(
            offered_rate_hz=rate,
            duration_s=duration,
            warmup_requests=warmup,
            keep_samples=keep,
            fill_on_miss=fill,
            window_s=window,
        )
        assert RunOptions.from_dict(options.to_dict()) == options
        # and through actual JSON text (what the cache/worker path does)
        assert (
            RunOptions.from_dict(json.loads(json.dumps(options.to_dict())))
            == options
        )

    def test_round_trip_with_subsystems(self):
        options = RunOptions(
            offered_rate_hz=5e4,
            duration_s=2.0,
            faults=PRESETS["crash-restart"],
            resilience=DEFAULT_RESILIENCE,
            replication=ReplicationConfig(n=3, r=2, w=2),
        )
        rebuilt = RunOptions.from_dict(json.loads(json.dumps(options.to_dict())))
        assert rebuilt == options
        assert rebuilt.faults == PRESETS["crash-restart"]
        assert rebuilt.replication == ReplicationConfig(n=3, r=2, w=2)

    def test_instruments_excluded_from_identity_and_dict(self):
        bare = RunOptions(1000.0, 1.0)
        instrumented = bare.with_instruments(telemetry=TelemetrySession())
        assert instrumented == bare
        assert instrumented.to_dict() == bare.to_dict()
        assert instrumented.has_instruments
        assert not instrumented.without_instruments().has_instruments


class TestDeprecationShim:
    """The legacy-kwargs shim is gone; nothing warns any more."""

    def test_options_run_emits_no_warning(self, recwarn):
        make_stack().run(small_workload(), RunOptions(5_000.0, 0.05))
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
