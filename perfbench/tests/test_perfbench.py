"""The benchmark's own tests: determinism, the seed argument and the gate.

    python3 -m pytest perfbench/tests

Cells are shortened (``SHORT``) so the suite takes about a minute; the
shapes, and so the layers each workload drives, are the benchmark's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import cells  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text())
SEED = PINS["seed"]
OTHER_SEED = 7
#: Simulated seconds per shortened cell: quorum-crash still reaches the
#: crash at 1.0 s, hybrid-enclosure still opens a fluid window.
SHORT = {
    "des-baseline": 0.05,
    "hybrid-enclosure": 0.3,
    "quorum-crash": 1.2,
    "flash-writeheavy": 0.2,
}
#: Entries each shortened workload must reach.
DRIVES = {
    "des-baseline": ["kvstore.server_loop.feed", "telemetry.energy.charge"],
    "hybrid-enclosure": ["kvstore.store.get", "telemetry.slo.record"],
    "quorum-crash": [
        "replication.placement.replicas_for",
        "replication.antientropy.sweep",
        "telemetry.tracing",
    ],
    "flash-writeheavy": ["flashstore.put", "flashstore.get"],
}


def test_pins_cover_every_workload():
    assert set(PINS["workloads"]) == set(cells.WORKLOADS) == set(SHORT)


def test_benchmark_json_declares_what_run_reports():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workloads = {workload["name"] for workload in declared["workloads"]}
    assert workloads == set(cells.WORKLOADS)
    for key, units in (
        ("end_to_end", run.END_TO_END_UNITS),
        ("per_layer", run.PER_LAYER_UNITS),
    ):
        assert {m["name"]: m["unit"] for m in declared[key]} == units


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_same_seed_repeats_outputs_and_calls(workload):
    first = worker.trace(workload, SEED, SHORT[workload])
    second = worker.trace(workload, SEED, SHORT[workload])
    digests = {
        trace[kind]["digest"]
        for trace in (first, second)
        for kind in ("untraced", "traced")
    }
    assert len(digests) == 1, "tracing or a rerun changed the outputs"
    assert first["calls"] == second["calls"]
    assert first["untraced"]["errors"] == []
    for entry in DRIVES[workload]:
        assert first["calls"][entry] > 0, entry
    accounted = sum(first["self_s"].values()) + first["remainder_s"]
    assert accounted == pytest.approx(first["traced_s"], rel=1e-9)


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_other_seed_changes_signature_and_keeps_invariants(workload):
    with worker.FirstEvent() as first:
        pinned = worker.run_once(workload, SEED, first, SHORT[workload])[1]
        other = worker.run_once(workload, OTHER_SEED, first, SHORT[workload])[1]
    assert other["signature"] != pinned["signature"]
    assert other["errors"] == []
    if other["fluid"]:
        reference = worker.reference(workload, OTHER_SEED, SHORT[workload])
        assert other["signature"] == reference["signature"]


def _run(signature, digest="d", errors=(), fluid=False):
    return {
        "digest": digest,
        "signature": signature,
        "errors": list(errors),
        "fluid": fluid,
        "mean_rtt_s": 1.0,
    }


def test_gate_refuses_wrong_outputs():
    pins = {
        "seed": 1,
        "workloads": {
            "w": {"digest": "d", "reference": _run([1, 2])},
            "h": {"reference": _run([1, 2])},
        },
    }
    assert run.gate("w", 1, [_run([1, 2])], pins, 0.0)[0] == []
    for runs in (
        [_run([1, 2], digest="x")],  # differs from the pin
        [_run([1, 2]), _run([1, 2], digest="x")],  # reps disagree
        [_run([1, 2], errors=["energy not conserved"])],
    ):
        assert run.gate("w", 1, runs, pins, 0.0)[0]
    # A hybrid cell must keep full DES's functional signature.
    assert run.gate("h", 1, [_run([1, 3], fluid=True)], pins, 0.0)[0]


def test_checkout_without_source_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des-baseline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
