"""ExperimentSpec / StackSpec / GridSpec: validation and round trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import OperatingPoint, evaluate_server
from repro.core.server import ServerDesign
from repro.core.stack import mercury_stack
from repro.errors import ConfigurationError
from repro.exp import CORE_MODELS, ExperimentSpec, GridSpec, StackSpec, design_point_grid
from repro.sim.run_options import RunOptions
from repro.telemetry import TelemetrySession
from repro.workloads import WorkloadSpec
from repro.workloads.distributions import ETC_VALUE_SIZES, fixed_size


def full_system_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        kind="full_system",
        stack=StackSpec(cores=2, memory_per_core_bytes=4 << 20),
        seed=7,
        workload=WorkloadSpec(
            name="spec-test",
            get_fraction=0.9,
            key_population=2_000,
            value_sizes=fixed_size(64),
        ),
        options=RunOptions(offered_rate_hz=5e3, duration_s=0.1),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestStackSpec:
    def test_build_matches_direct_construction(self):
        built = StackSpec(family="mercury", cores=8, core="A7@1GHz").build()
        direct = mercury_stack(8, core=CORE_MODELS["A7@1GHz"])
        # StackConfig holds a live NIC MAC object, so compare identity
        # by the fields that define the design point.
        assert built.name == direct.name
        assert built.cores == direct.cores
        assert built.core == direct.core
        assert built.capacity_bytes == direct.capacity_bytes
        assert built.has_l2 == direct.has_l2

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="family"):
            StackSpec(family="jupiter")

    def test_unknown_core_rejected(self):
        with pytest.raises(ConfigurationError, match="core model"):
            StackSpec(core="M1@3GHz")

    def test_round_trip(self):
        spec = StackSpec(family="iridium", cores=16, core="A15@1GHz",
                         has_l2=False, memory_per_core_bytes=1 << 22)
        assert StackSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestWorkloadSerialisation:
    def test_fixed_size_round_trip(self):
        workload = WorkloadSpec(
            name="w", get_fraction=0.8, key_population=500,
            value_sizes=fixed_size(128),
        )
        assert WorkloadSpec.from_dict(workload.to_dict()) == workload

    def test_etc_distribution_round_trip(self):
        workload = WorkloadSpec(name="etc", value_sizes=ETC_VALUE_SIZES)
        rebuilt = WorkloadSpec.from_dict(
            json.loads(json.dumps(workload.to_dict()))
        )
        assert rebuilt == workload
        assert rebuilt.value_sizes.points == ETC_VALUE_SIZES.points


class TestExperimentSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ExperimentSpec(kind="quantum")

    def test_full_system_requires_workload_and_options(self):
        with pytest.raises(ConfigurationError, match="workload"):
            ExperimentSpec(kind="full_system")

    def test_instrumented_options_rejected(self):
        options = RunOptions(5e3, 0.1).with_instruments(
            telemetry=TelemetrySession()
        )
        with pytest.raises(ConfigurationError, match="instruments"):
            full_system_spec(options=options)

    def test_label_excluded_from_identity(self):
        a = full_system_spec(label="first")
        b = full_system_spec(label="second")
        assert a == b

    def test_round_trip_through_json(self):
        spec = full_system_spec()
        rebuilt = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        cores=st.sampled_from((1, 2, 4, 8, 16, 32)),
        core=st.sampled_from(sorted(CORE_MODELS)),
        verb=st.sampled_from(("GET", "PUT")),
        value_bytes=st.sampled_from((64, 128, 4096)),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50)
    def test_design_point_round_trip_property(
        self, seed, cores, core, verb, value_bytes, scale
    ):
        spec = ExperimentSpec(
            kind="design_point",
            stack=StackSpec(cores=cores, core=core),
            seed=seed,
            verb=verb,
            value_bytes=value_bytes,
            calibration_scale=(("tcp.per_byte_instructions", scale),),
        )
        rebuilt = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec

    def test_design_point_execute_matches_evaluate_server(self):
        spec = ExperimentSpec(
            kind="design_point", stack=StackSpec(cores=32), verb="GET"
        )
        result = spec.execute()
        metrics = evaluate_server(
            ServerDesign(stack=mercury_stack(32)), OperatingPoint()
        )
        assert result["tps"] == metrics.tps
        assert result["density_gb"] == metrics.density_gb
        assert result["power_w"] == metrics.power_w

    def test_headline_execute_reports_ratios(self):
        result = ExperimentSpec(kind="headline").execute()
        assert result["kind"] == "headline"
        assert result["mercury_tps_x"] > 3.0

    def test_full_system_execute_is_deterministic(self):
        spec = full_system_spec()
        assert spec.execute() == spec.execute()


class TestGridSpec:
    def test_expansion_order_and_labels(self):
        grid = GridSpec(
            name="g",
            base=ExperimentSpec(kind="design_point"),
            axes=(
                ("stack.family", ("mercury", "iridium")),
                ("stack.cores", (4, 8)),
            ),
        )
        specs = grid.expand()
        assert len(grid) == len(specs) == 4
        assert [s.label for s in specs] == [
            "g[family=mercury,cores=4]",
            "g[family=mercury,cores=8]",
            "g[family=iridium,cores=4]",
            "g[family=iridium,cores=8]",
        ]

    def test_unknown_axis_path_rejected(self):
        grid = GridSpec(
            name="g",
            base=ExperimentSpec(kind="design_point"),
            axes=(("stack.wheels", (1, 2)),),
        )
        with pytest.raises(ConfigurationError, match="wheels"):
            grid.expand()

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            GridSpec(
                name="g",
                base=ExperimentSpec(kind="design_point"),
                axes=(("stack.cores", ()),),
            )

    def test_round_trip(self):
        grid = design_point_grid(cores_per_stack=(2, 4))
        rebuilt = GridSpec.from_dict(json.loads(json.dumps(grid.to_dict())))
        assert rebuilt == grid
        assert rebuilt.expand() == grid.expand()

    def test_fig7_grid_covers_design_space(self):
        from repro.core.design_space import CORES_PER_STACK_SWEEP, EVALUATED_CORES

        grid = design_point_grid()
        assert len(grid) == 2 * len(EVALUATED_CORES) * len(CORES_PER_STACK_SWEEP)
