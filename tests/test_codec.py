"""The one dict codec behind every configuration dataclass.

Every :class:`~repro.codec.Serialisable` class must round-trip through
JSON, reject unknown and missing fields with a
:class:`~repro.errors.ConfigurationError` naming the class, and — for
``RunOptions``, the configuration the experiment cache keys on — give
equal values equal cache keys and unequal values distinct ones.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import Serialisable
from repro.errors import ConfigurationError
from repro.exp import ExperimentSpec, GridSpec, StackSpec, cache_key, design_point_grid
from repro.faults.resilience import ResiliencePolicy
from repro.faults.schedule import PRESETS, FaultEvent, FaultSchedule
from repro.flashstore.compaction import TieredStoreConfig
from repro.kvstore.batching import BatchPolicy
from repro.replication.config import ReplicationConfig
from repro.sim.fidelity import MODES, FidelityPolicy
from repro.sim.run_options import RunOptions
from repro.telemetry import TelemetrySession
from repro.workloads.distributions import ETC_VALUE_SIZES, ValueSizeDistribution
from repro.workloads.diurnal import DiurnalSchedule
from repro.workloads.generator import GET_64B, WorkloadSpec

#: One valid value of every serialisable class.
SAMPLES: dict[type, Serialisable] = {
    RunOptions: RunOptions(offered_rate_hz=1e3, duration_s=1.0),
    ExperimentSpec: ExperimentSpec(kind="headline"),
    StackSpec: StackSpec(),
    GridSpec: design_point_grid(cores_per_stack=(4,)),
    FaultSchedule: PRESETS["crash-restart-lossy"],
    FaultEvent: FaultEvent(kind="packet_loss", at_s=0.5, until_s=1.0,
                           probability=0.1),
    BatchPolicy: BatchPolicy(batch_max=8),
    TieredStoreConfig: TieredStoreConfig(),
    DiurnalSchedule: DiurnalSchedule(day_length_s=1.0),
    FidelityPolicy: FidelityPolicy(),
    ResiliencePolicy: ResiliencePolicy(hedge_after_s=1e-3),
    ReplicationConfig: ReplicationConfig(),
    WorkloadSpec: GET_64B,
    ValueSizeDistribution: ETC_VALUE_SIZES,
}

_CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)

_REQUIRED = [
    (cls, f.name)
    for cls in _CLASSES
    for f in dataclasses.fields(cls)
    if f.default is dataclasses.MISSING
    and f.default_factory is dataclasses.MISSING
]


def _json_round_trip(value: Serialisable) -> Serialisable:
    return type(value).from_dict(json.loads(json.dumps(value.to_dict())))


class TestEveryClass:
    def test_samples_cover_every_serialisable_class(self):
        assert set(Serialisable.__subclasses__()) == set(SAMPLES)

    @pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
    def test_json_round_trip(self, cls):
        assert _json_round_trip(SAMPLES[cls]) == SAMPLES[cls]

    @pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
    def test_unknown_field_rejected(self, cls):
        payload = {**SAMPLES[cls].to_dict(), "bogus_field": 1}
        with pytest.raises(ConfigurationError, match=f"{cls.__name__}.*bogus_field"):
            cls.from_dict(payload)

    @pytest.mark.parametrize(
        "cls,name", _REQUIRED, ids=[f"{c.__name__}.{n}" for c, n in _REQUIRED]
    )
    def test_missing_required_field_rejected(self, cls, name):
        payload = SAMPLES[cls].to_dict()
        del payload[name]
        with pytest.raises(ConfigurationError, match=f"{cls.__name__}.*{name}"):
            cls.from_dict(payload)

    @pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
    def test_non_mapping_rejected(self, cls):
        with pytest.raises(ConfigurationError, match=cls.__name__):
            cls.from_dict([1, 2])


#: Malformed dicts one level down, which used to escape as ``TypeError``
#: or ``KeyError`` or to be silently ignored.
MALFORMED = {
    "schedule-misspelt-events": (
        FaultSchedule, {"name": "s", "evnts": []}, "evnts"),
    "diurnal-unknown-key": (
        DiurnalSchedule, {"day_length_s": 1.0, "trough": 0.5}, "trough"),
    "resilience-unknown-key": (
        RunOptions,
        {"offered_rate_hz": 1.0, "duration_s": 1.0,
         "resilience": {"timeout_s": 1.0}},
        "timeout_s",
    ),
    "replication-unknown-key": (
        RunOptions,
        {"offered_rate_hz": 1.0, "duration_s": 1.0,
         "replication": {"n": 3, "quorum": 2}},
        "quorum",
    ),
    "workload-without-name": (
        ExperimentSpec,
        {"kind": "full_system",
         "workload": {"get_fraction": 1.0},
         "options": {"offered_rate_hz": 1.0, "duration_s": 1.0}},
        "name",
    ),
    "spec-without-kind": (ExperimentSpec, {"seed": 3}, "kind"),
    "grid-axis-not-a-pair": (
        GridSpec,
        {"name": "g", "base": {"kind": "headline"},
         "axes": [["stack.cores", [4], "extra"]]},
        "axes",
    ),
    "size-points-not-a-list": (
        ValueSizeDistribution, {"name": "d", "points": 64}, "points"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_dict_raises_configuration_error(case):
    cls, payload, needle = MALFORMED[case]
    with pytest.raises(ConfigurationError, match=needle):
        cls.from_dict(payload)


class TestMarkers:
    def test_infinite_until_written_as_null(self):
        event = FaultEvent(kind="packet_loss", at_s=0.0, probability=0.5)
        assert event.to_dict()["until_s"] is None
        assert FaultEvent.from_dict(event.to_dict()).until_s == math.inf

    def test_later_run_option_fields_omitted_at_default(self):
        assert list(RunOptions(1.0, 1.0).to_dict()) == [
            "offered_rate_hz", "duration_s", "warmup_requests",
            "keep_samples", "window_s", "fill_on_miss", "faults",
            "resilience", "replication",
        ]

    def test_instruments_never_written_or_read(self):
        options = RunOptions(1.0, 1.0).with_instruments(
            telemetry=TelemetrySession()
        )
        assert options.has_instruments
        assert "telemetry" not in options.to_dict()
        assert not RunOptions.from_dict(options.to_dict()).has_instruments
        with pytest.raises(ConfigurationError, match="telemetry"):
            RunOptions.from_dict({**options.to_dict(), "telemetry": None})

    def test_built_values_accepted_in_place_of_dicts(self):
        schedule = PRESETS["crash-restart"]
        options = RunOptions.from_dict(
            {"offered_rate_hz": 1.0, "duration_s": 1.0, "faults": schedule}
        )
        assert options.faults is schedule


# --- generated RunOptions ------------------------------------------------------


def _floats(low: float, high: float):
    return st.floats(
        min_value=low, max_value=high, allow_nan=False, allow_infinity=False
    )


_positive = _floats(1e-6, 1e6)
_names = st.text(alphabet="abc-0", min_size=1, max_size=6)


@st.composite
def _fault_schedules(draw) -> FaultSchedule:
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(
            ("packet_loss", "packet_corruption", "dram_degradation",
             "flash_wearout")
        ))
        at_s = draw(_floats(0.0, 10.0))
        events.append(FaultEvent(
            kind=kind,
            at_s=at_s,
            until_s=draw(st.just(math.inf) | _floats(at_s + 1.0, 20.0)),
            probability=draw(_floats(0.0, 1.0)),
            factor=draw(_floats(1.0, 16.0)),
        ))
    nodes = draw(st.lists(_names, max_size=2, unique=True))
    for node in nodes:
        crash_s = draw(_floats(0.0, 10.0))
        events.append(FaultEvent(kind="node_crash", at_s=crash_s, node=node))
        if draw(st.booleans()):
            events.append(FaultEvent(
                kind="node_restart", at_s=crash_s + draw(_floats(0.5, 5.0)),
                node=node,
            ))
    return FaultSchedule(name=draw(_names), events=tuple(events))


_resilience = st.builds(
    ResiliencePolicy,
    request_timeout_s=_positive,
    max_retries=st.integers(min_value=0, max_value=8),
    backoff_base_s=_floats(0.0, 1.0),
    backoff_multiplier=_floats(1.0, 4.0),
    backoff_cap_s=_floats(0.0, 1.0),
    jitter_fraction=_floats(0.0, 1.0),
    failover_after=st.none() | st.integers(min_value=1, max_value=8),
    health_check_interval_s=_positive,
    hedge_after_s=st.none() | _positive,
)


@st.composite
def _replication(draw) -> ReplicationConfig:
    n = draw(st.integers(min_value=1, max_value=5))
    return ReplicationConfig(
        n=n,
        r=draw(st.integers(min_value=1, max_value=n)),
        w=draw(st.integers(min_value=1, max_value=n)),
        hinted_handoff=draw(st.booleans()),
        anti_entropy_interval_s=draw(st.none() | _positive),
        anti_entropy_buckets=draw(st.integers(min_value=1, max_value=256)),
        max_repairs_per_sweep=draw(st.integers(min_value=1, max_value=10**5)),
    )


_batching = st.builds(
    BatchPolicy,
    batch_max=st.integers(min_value=1, max_value=1024),
    linger_s=_floats(0.0, 1.0),
    dedup_gets=st.booleans(),
)

_flashstore = st.builds(
    TieredStoreConfig,
    log_segment_pages=st.integers(min_value=1, max_value=1024),
    max_hash_stores=st.integers(min_value=1, max_value=16),
    fingerprint_bits=st.integers(min_value=4, max_value=32),
    sorted_fingerprint_bits=st.integers(min_value=4, max_value=32),
    expected_item_bytes=st.integers(min_value=1, max_value=1 << 20),
)

_diurnal = st.builds(
    DiurnalSchedule,
    day_length_s=_positive,
    trough_fraction=_floats(0.0, 1.0),
)

_fidelity = st.builds(
    FidelityPolicy,
    mode=st.sampled_from(MODES),
    guard_band_s=_floats(0.0, 1.0),
    calibration_s=_positive,
    min_fluid_window_s=_positive,
    max_fluid_step_s=_positive,
    max_utilization=_floats(0.01, 0.99),
)

#: A strategy for every configuration field of RunOptions.
_FIELDS = {
    "offered_rate_hz": _positive,
    "duration_s": _positive,
    "warmup_requests": st.integers(min_value=0, max_value=10**6),
    "keep_samples": st.booleans(),
    "window_s": st.none() | _positive,
    "fill_on_miss": st.booleans(),
    "faults": st.none() | _fault_schedules(),
    "resilience": st.none() | _resilience,
    "replication": st.none() | _replication(),
    "trace_digest": st.booleans(),
    "batching": st.none() | _batching,
    "flashstore": st.none() | _flashstore,
    "energy_summary": st.booleans(),
    "diurnal": st.none() | _diurnal,
    "fidelity": st.none() | _fidelity,
}


def test_field_strategies_cover_every_config_field():
    config = [f.name for f in dataclasses.fields(RunOptions) if f.compare]
    assert list(_FIELDS) == config


@st.composite
def _run_options(draw) -> RunOptions:
    """Options with every field drawn, refused feature pairs dropped."""
    values = {name: draw(strategy) for name, strategy in _FIELDS.items()}
    replicated = values["replication"] is not None and values["replication"].n > 1
    if replicated:
        values["flashstore"] = None
    if values["batching"] is not None and (
        replicated or values["flashstore"] is not None
    ):
        values["batching"] = dataclasses.replace(values["batching"], batch_max=1)
    return RunOptions(**values)


def _key(options: RunOptions) -> str:
    return cache_key(
        ExperimentSpec(kind="full_system", workload=GET_64B, options=options)
    )


@given(options=_run_options())
@settings(max_examples=150, deadline=None)
def test_run_options_json_round_trip_keeps_value_and_key(options):
    rebuilt = _json_round_trip(options)
    assert rebuilt == options
    assert _key(rebuilt) == _key(options)


@given(first=_run_options(), second=_run_options())
@settings(max_examples=100, deadline=None)
def test_unequal_run_options_never_share_a_key(first, second):
    """``second`` and every one-field mix of the two: unequal values
    get distinct keys."""
    variants = [second]
    for name in _FIELDS:
        try:
            variants.append(
                dataclasses.replace(first, **{name: getattr(second, name)})
            )
        except ConfigurationError:  # the mix turns on a refused pair
            continue
    key = _key(first)
    for variant in variants:
        if variant != first:
            assert _key(variant) != key, variant
