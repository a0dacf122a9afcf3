"""The simulator benchmark: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload des-baseline --seed 42 --seconds 10 --trace 0

Each task runs in a fresh process (``worker.py``).  An untraced run
(``--trace 0``) makes three set-up probes and one measured process that
repeats the workload's cell for ``--seconds`` host seconds of
simulation, and reports the end-to-end metrics.  A traced run
(``--trace 1``) runs the cell untraced and then with per-layer spans,
and reports the per-layer metrics.  Both apply the correctness gate;
a hybrid cell on a seed other than the pinned one is also run in full
DES as its reference.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed check
prints the reasons to stderr, counts every operation as failed and
exits with 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import ENTRIES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: Pinned simulated outputs of every workload at the pinned seed
#: (regenerate with ``python3 perfbench/pin.py``).
PINS_FILE = HERE / "pins.json"

SETUP_PROBES = 3
#: Every task must end within this many seconds of the invocation.
TIME_LIMIT_S = 170.0
#: Relative tolerance of "layer self times + root remainder == traced
#: host time" (the sum differs from the total by float rounding only).
SPAN_SUM_TOLERANCE = 1e-9

#: End-to-end metrics of an untraced run.
END_TO_END_UNITS = {
    "sim_req_per_host_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_rtt_accuracy": "fraction",
}
#: Per-layer metrics of a traced run: each span entry's calls and self
#: time, then modelled-component values (identical for a seed on every
#: run), then the root span and the tracing overhead.
PER_LAYER_UNITS = {
    **{
        f"{entry}.{field}": unit
        for entry in ENTRIES
        for field, unit in (("calls", "count"), ("self_s", "s"))
    },
    "sim.events.events": "count",
    "sim.fidelity.fluid_requests": "count",
    "sim.fidelity.des_seconds": "s",
    "sim.fidelity.p99_err": "fraction",
    "sim.fidelity.p999_err": "fraction",
    "kvstore.store.hit_ratio": "fraction",
    "kvstore.store.evictions": "count",
    "replication.hints_replayed": "count",
    "replication.read_repairs": "count",
    "faults.retries": "count",
    "faults.timeouts": "count",
    "flashstore.write_amplification": "ratio",
    "flashstore.read_amplification": "ratio",
    "root.remainder_s": "s",
    "root.traced_s": "s",
    "trace_overhead": "ratio",
}


class WorkerError(RuntimeError):
    """A worker process failed or ran out of time."""


def worker(task: str, workload: str, seed: int, deadline: float, *extra: str):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {task} task")
    command = [
        sys.executable, str(WORKER), task,
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"the {task} task ran out of time") from None
    if proc.returncode != 0:
        raise WorkerError(f"the {task} task exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / reference


def gate(workload: str, seed: int, runs: list[dict], pins: dict, deadline: float):
    """Correctness gate over runs of one cell and seed.

    Returns ``(errors, reference)`` where ``reference`` holds the
    full-DES mean/p99/p99.9 RTT the accuracy metrics divide by.
    """
    errors = [f"{workload}: {error}" for run in runs for error in run["errors"]]
    first = runs[0]
    if any(run["digest"] != first["digest"] for run in runs):
        errors.append(f"{workload}: runs of one seed gave different outputs")
    pin = pins["workloads"][workload]
    if seed == pins["seed"]:
        if "digest" in pin and first["digest"] != pin["digest"]:
            errors.append(f"{workload}: outputs differ from the pinned digest")
        reference = pin["reference"]
    elif first["fluid"]:
        reference = worker("reference", workload, seed, deadline)
        errors += [f"{workload} full DES: {error}" for error in reference["errors"]]
    else:
        reference = first  # a full-DES run is its own reference
    if first["signature"] != reference["signature"]:
        errors.append(
            f"{workload}: functional signature {first['signature']} != "
            f"full DES {reference['signature']}"
        )
    return errors, reference


def untraced(workload, seed, seconds, pins, deadline):
    setups = [
        worker("setup", workload, seed, deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    measured = worker(
        "measure", workload, seed, deadline, "--seconds", str(seconds)
    )
    setups.append(measured["setup_s"])
    reps = measured["reps"]
    errors, reference = gate(workload, seed, reps, pins, deadline)
    rtt_err = relative_error(reps[0]["mean_rtt_s"], reference["mean_rtt_s"])
    rates = [rep["completed"] / rep["host_s"] for rep in reps]
    print(
        f"{workload} seed {seed}: {len(reps)} reps of "
        f"{reps[0]['completed']} requests, {statistics.median(rates):.0f} "
        f"req/s (reps {', '.join(f'{rate:.0f}' for rate in rates)}), "
        f"setup {statistics.median(setups):.3f} s, "
        f"peak RSS {measured['peak_rss_mb']:.1f} MiB, "
        f"sim_rtt_err {rtt_err:.5f}"
    )
    metrics = {
        "sim_req_per_host_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "sim_rtt_accuracy": 1.0 - rtt_err,
    }
    return errors, reps, metrics


def traced(workload, seed, pins, deadline):
    run = worker("trace", workload, seed, deadline)
    errors, reference = gate(workload, seed, [run["untraced"]], pins, deadline)
    if run["traced"]["digest"] != run["untraced"]["digest"]:
        errors.append(f"{workload}: tracing changed the simulated outputs")
    accounted = sum(run["self_s"].values()) + run["remainder_s"]
    if abs(accounted - run["traced_s"]) > SPAN_SUM_TOLERANCE * run["traced_s"]:
        errors.append(
            f"{workload}: layer self times + remainder {accounted!r} != "
            f"traced host time {run['traced_s']!r}"
        )
    outputs = run["untraced"]
    metrics = {
        **{f"{entry}.calls": run["calls"][entry] for entry in ENTRIES},
        **{f"{entry}.self_s": run["self_s"][entry] for entry in ENTRIES},
        **outputs["values"],
        "sim.fidelity.p99_err": relative_error(outputs["p99_s"], reference["p99_s"]),
        "sim.fidelity.p999_err": relative_error(
            outputs["p999_s"], reference["p999_s"]
        ),
        "root.remainder_s": run["remainder_s"],
        "root.traced_s": run["traced_s"],
        "trace_overhead": run["traced_sim_s"] / outputs["host_s"],
    }
    ranking = sorted(ENTRIES, key=lambda entry: -run["self_s"][entry])
    print(
        f"{workload} seed {seed}: traced {run['traced_s']:.3f} s, "
        f"trace overhead {metrics['trace_overhead']:.2f}x; self time:"
    )
    for entry in ranking:
        share = run["self_s"][entry] / run["traced_s"]
        print(
            f"  {entry:40s} {run['calls'][entry]:>10d} calls "
            f"{run['self_s'][entry]:8.3f} s {share:6.1%}"
        )
    print(f"  {'(remainder)':40s} {'':>16s} {run['remainder_s']:8.3f} s")
    return errors, [outputs, run["traced"]], metrics


def main(argv=None) -> int:
    pins = json.loads(PINS_FILE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(pins["workloads"])
    )
    parser.add_argument("--seed", type=int, default=pins["seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            units = PER_LAYER_UNITS
            errors, runs, metrics = traced(args.workload, args.seed, pins, deadline)
        else:
            units = END_TO_END_UNITS
            errors, runs, metrics = untraced(
                args.workload, args.seed, args.seconds, pins, deadline
            )
    except WorkerError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    # Operations are simulated requests, modelled failures included; one
    # failed check fails every operation of the run.
    attempted = sum(run["completed"] + run["failed"] for run in runs)
    for error in errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted if errors else 0,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
