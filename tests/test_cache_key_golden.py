"""Byte-level pins of experiment cache keys and canonical spec dicts.

The result cache addresses each experiment by the canonical JSON of its
spec (:func:`repro.exp.cache.cache_key`), so any drift in how a spec —
or a configuration nested in it — serialises silently orphans every
cached result.  This module pins, for a fixed corpus, both the cache key
and the canonical ``to_dict`` JSON of every spec, plus the JSON text of
every named fault schedule.  The corpus covers:

* every named scenario on Mercury and Iridium stacks of 4 and 16 cores,
  with and without a hit-rate window;
* both ``design_point_grid`` expansions the paper's figures use (GET
  64 B and PUT 4 KB);
* a ``headline`` spec under a perturbed calibration;
* ``full_system`` specs that between them set every ``RunOptions``
  field and every fault-event shape, with finite and infinite
  ``until_s``.

To bless an intentional change::

    pytest tests/test_cache_key_golden.py --regen-golden
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.exp import (
    ExperimentSpec,
    StackSpec,
    cache_key,
    canonical_json,
    design_point_grid,
    scenario_names,
)
from repro.exp.scenarios import get_scenario
from repro.faults.resilience import ResiliencePolicy
from repro.faults.schedule import KINDS as FAULT_KINDS
from repro.faults.schedule import PRESETS, FaultEvent, FaultSchedule
from repro.flashstore.compaction import TieredStoreConfig
from repro.kvstore.batching import BatchPolicy
from repro.replication.config import ReplicationConfig
from repro.sim.fidelity import FidelityPolicy
from repro.sim.run_options import RunOptions
from repro.workloads.distributions import ETC_VALUE_SIZES, fixed_size
from repro.workloads.diurnal import DiurnalSchedule
from repro.workloads.generator import WorkloadSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "cache_keys.json"

#: Every fault-event shape: each kind, window kinds with a finite and an
#: open-ended window, node kinds with and without an explicit ``until_s``.
EVERY_FAULT_SHAPE = FaultSchedule(
    name="every-shape",
    events=(
        FaultEvent(kind="node_crash", at_s=0.2, node="core0"),
        FaultEvent(kind="node_restart", at_s=0.6, node="core0"),
        FaultEvent(kind="node_crash", at_s=0.3, node="core1", until_s=0.9),
        FaultEvent(kind="packet_loss", at_s=0.0, until_s=0.5, probability=0.02),
        FaultEvent(kind="packet_loss", at_s=0.7, probability=0.001),
        FaultEvent(kind="packet_corruption", at_s=0.1, until_s=0.4,
                   probability=0.05),
        FaultEvent(kind="packet_corruption", at_s=0.8, probability=0.5),
        FaultEvent(kind="dram_degradation", at_s=0.25, until_s=0.75,
                   factor=8.0),
        FaultEvent(kind="dram_degradation", at_s=0.9, factor=1.5),
        FaultEvent(kind="flash_wearout", at_s=0.35, until_s=0.45, factor=2.0),
        FaultEvent(kind="flash_wearout", at_s=0.5, factor=4.0),
    ),
)

_WORKLOAD = WorkloadSpec(
    name="golden-mix",
    get_fraction=0.75,
    key_population=4_096,
    key_skew=0.8,
    value_sizes=ETC_VALUE_SIZES,
)


def _run_options() -> dict[str, RunOptions]:
    """Options that between them set every field to a non-default."""
    common = dict(
        offered_rate_hz=12_345.5,
        duration_s=1.25,
        warmup_requests=777,
        keep_samples=True,
        window_s=0.05,
        fill_on_miss=True,
        trace_digest=True,
        energy_summary=True,
        diurnal=DiurnalSchedule(day_length_s=0.5, trough_fraction=0.2),
    )
    return {
        # Single-copy replication and serial batching turn neither
        # feature on, so the tiered store combines with both.
        "every-field": RunOptions(
            **common,
            faults=EVERY_FAULT_SHAPE,
            resilience=ResiliencePolicy(
                request_timeout_s=3e-3,
                max_retries=2,
                failover_after=None,
                hedge_after_s=1e-3,
            ),
            replication=ReplicationConfig(n=1, r=1, w=1),
            batching=BatchPolicy(batch_max=1, linger_s=0.0, dedup_gets=False),
            flashstore=TieredStoreConfig(
                log_segment_pages=8, max_hash_stores=2, fingerprint_bits=16
            ),
            fidelity=FidelityPolicy(mode="fluid", guard_band_s=0.02),
        ),
        "quorum": RunOptions(
            **common,
            faults=PRESETS["crash-restart-lossy"],
            resilience=ResiliencePolicy(),
            replication=ReplicationConfig(
                n=3, r=2, w=2, hinted_handoff=False,
                anti_entropy_interval_s=None,
            ),
            fidelity=FidelityPolicy(),
        ),
        "batched": RunOptions(
            **common,
            faults=PRESETS["degraded-dram"],
            batching=BatchPolicy(batch_max=16, linger_s=100e-6),
            fidelity=FidelityPolicy(mode="full"),
        ),
        "bare": RunOptions(offered_rate_hz=5e3, duration_s=0.1),
    }


def _specs() -> dict[str, ExperimentSpec]:
    specs: dict[str, ExperimentSpec] = {}
    for family in ("mercury", "iridium"):
        for cores in (4, 16):
            stack = StackSpec(
                family=family, cores=cores, memory_per_core_bytes=8 << 20
            )
            for window_s in (None, 0.1):
                for name in scenario_names():
                    spec = get_scenario(name).to_spec(
                        stack,
                        offered_rate_hz=20_000.0,
                        duration_s=1.5,
                        seed=3,
                        window_s=window_s,
                    )
                    specs[f"scenario/{name}/{family}-{cores}/w={window_s}"] = spec
    for grid in (
        design_point_grid(name="fig7"),
        design_point_grid(name="fig8-put", verb="PUT", value_bytes=4096),
    ):
        for spec in grid.expand():
            specs[f"grid/{spec.label}"] = spec
    specs["headline/scaled"] = ExperimentSpec(
        kind="headline",
        calibration_scale=(
            ("tcp.per_byte_instructions", 1.2),
            ("memcached_get_instructions", 0.8),
        ),
        label="scaled",
    )
    for name, options in _run_options().items():
        specs[f"full_system/{name}"] = ExperimentSpec(
            kind="full_system",
            stack=StackSpec(family="iridium", cores=8, core="A15@1GHz",
                            has_l2=False, max_queue_per_core=None),
            seed=11,
            workload=_WORKLOAD,
            options=options,
            label=name,
        )
    specs["full_system/fixed-4k-put"] = ExperimentSpec(
        kind="full_system",
        workload=WorkloadSpec(name="put-4k", get_fraction=0.0,
                              value_sizes=fixed_size(4096)),
        options=RunOptions(offered_rate_hz=1e4, duration_s=0.5),
        verb="PUT",
        value_bytes=4096,
    )
    return specs


def _payload() -> dict:
    return {
        "specs": {
            name: {
                "cache_key": cache_key(spec),
                "dict": canonical_json(spec.to_dict()),
            }
            for name, spec in _specs().items()
        },
        "fault_presets": {
            name: schedule.to_json() for name, schedule in sorted(PRESETS.items())
        },
    }


def test_cache_keys_match_golden(regen_golden):
    payload = _payload()
    if regen_golden:
        GOLDEN_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return
    if not GOLDEN_PATH.exists():
        pytest.fail(f"missing golden fixture {GOLDEN_PATH}; use --regen-golden")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(payload["specs"]) == set(golden["specs"])
    drifted = sorted(
        name
        for name, entry in payload["specs"].items()
        if entry != golden["specs"][name]
    )
    assert not drifted, f"cache keys or spec dicts drifted: {drifted}"
    assert payload["fault_presets"] == golden["fault_presets"]


def test_corpus_sets_every_field_and_fault_shape():
    """Each configuration field is set away from its default somewhere,
    and the fault schedule carries every event kind."""
    defaults = RunOptions(offered_rate_hz=1.0, duration_s=1.0)
    config = {f.name for f in dataclasses.fields(RunOptions) if f.compare}
    varied = {
        name
        for options in _run_options().values()
        for name in config
        if getattr(options, name) != getattr(defaults, name)
    }
    assert varied == config
    assert {event.kind for event in EVERY_FAULT_SHAPE} == set(FAULT_KINDS)
