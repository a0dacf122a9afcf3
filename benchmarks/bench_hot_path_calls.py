"""Exact per-request work: Python calls into ``repro`` per completed request.

Host throughput on a shared VM drifts by tens of percent between runs;
the number of Python function calls a simulated request costs does not.
This bench profiles ``RequestPipeline.drive`` with cProfile on two
cells and counts the calls to functions defined under ``src/repro/``,
divided by the requests the run completed:

* ``des-baseline``: the perfbench enclosure cell (16 Mercury cores,
  100k req/s, energy and SLO instruments) in full DES, cut to 0.05 s;
* ``quorum-crash``: the perfbench N=3 quorum cell with a core crash at
  1.0 s, resilience and trace digests, cut to 1.2 s so it still
  reaches the crash.

Each cell runs once unprofiled first, so lazy imports and the key
digest memo are warm, and warm-up PUTs stay outside the profile.  The
profile runs in a fresh interpreter, so nothing an earlier test loaded
or cached moves the count.  List, dict and set comprehensions are left
out: Python 3.12 inlines them into their enclosing function, and they
would count on 3.11 only.  The counts are exact (the same under
different ``PYTHONHASHSEED`` values and on 3.11 and 3.12), so the gate
does not depend on host speed.

    python benchmarks/bench_hot_path_calls.py   # prints the counts as JSON
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = str(SRC / "repro") + os.sep

SEED = 42
#: Calls into ``repro`` per completed request that each cell may cost.
#: Set at the measured value; lower it when a change removes calls.
BUDGETS = {"des-baseline": 83.64, "quorum-crash": 257.18}

_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def _des_baseline():
    from repro.core import mercury_stack
    from repro.sim.full_system import FullSystemStack
    from repro.sim.run_options import RunOptions
    from repro.telemetry.slo import SloMonitor, SloObjective
    from repro.units import MB
    from repro.workloads import WorkloadSpec
    from repro.workloads.distributions import fixed_size

    stack = FullSystemStack(
        stack=mercury_stack(16), memory_per_core_bytes=8 * MB, seed=SEED
    )
    workload = WorkloadSpec(
        name="fidelity-bench",
        get_fraction=0.9,
        key_population=50_000,
        key_skew=0.5,
        value_sizes=fixed_size(64),
    )
    options = RunOptions(
        offered_rate_hz=100_000.0,
        duration_s=0.05,
        warmup_requests=8_000,
        energy_summary=True,
        slo=SloMonitor(
            objectives=[
                SloObjective(name="rtt-p99", target=0.99, deadline_s=0.020),
                SloObjective(name="availability", target=0.999),
            ],
        ),
    )
    return stack, workload, options


def _quorum_crash():
    from dataclasses import replace

    from repro.core import mercury_stack
    from repro.exp.scenarios import get_scenario
    from repro.faults import DEFAULT_RESILIENCE
    from repro.replication.config import ReplicationConfig
    from repro.sim.full_system import FullSystemStack
    from repro.units import MB
    from repro.workloads import WorkloadSpec
    from repro.workloads.distributions import fixed_size

    stack = FullSystemStack(
        stack=mercury_stack(8), memory_per_core_bytes=1 * MB, seed=SEED
    )
    workload = WorkloadSpec(
        name="quorum-crash",
        get_fraction=0.5,
        key_population=200_000,
        key_skew=0.5,
        value_sizes=fixed_size(64),
    )
    options = replace(
        get_scenario("crash-restart").run_options(5_000.0, 1.2),
        replication=ReplicationConfig(n=3, r=2, w=2),
        resilience=DEFAULT_RESILIENCE,
        trace_digest=True,
    )
    return stack, workload, options


CELLS = {"des-baseline": _des_baseline, "quorum-crash": _quorum_crash}


def _run(cell: str, profile=None):
    from repro.sim.full_system import RequestPipeline

    stack, workload, options = CELLS[cell]()
    pipeline = RequestPipeline(stack, workload, options)
    pipeline.warm(options.warmup_requests)
    if profile is None:
        pipeline.drive()
    else:
        profile.runcall(pipeline.drive)
    return pipeline.finish()


def calls_per_request(cell: str) -> float:
    """Calls into ``repro`` per completed request in ``cell``'s drive."""
    import cProfile
    import pstats

    _run(cell)
    profile = cProfile.Profile()
    results = _run(cell, profile)
    calls = sum(
        row[1]
        for (filename, _line, name), row in pstats.Stats(profile).stats.items()
        if os.path.abspath(filename).startswith(PACKAGE)
        and name not in _COMPREHENSIONS
    )
    return calls / results.completed


def test_calls_per_request_within_budget():
    """Each cell costs at most its budgeted calls per completed request."""
    out = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        check=True,
    )
    counts = json.loads(out.stdout.splitlines()[-1])
    print(counts)
    for cell, budget in BUDGETS.items():
        assert counts[cell] <= budget, (
            f"{cell}: {counts[cell]} calls per request, budget {budget}"
        )


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(json.dumps({cell: round(calls_per_request(cell), 2) for cell in CELLS}))
