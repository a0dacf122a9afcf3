"""One benchmark task in a fresh process; its last stdout line is JSON.

    python3 perfbench/worker.py setup     --workload W --seed S
    python3 perfbench/worker.py measure   --workload W --seed S --seconds N
    python3 perfbench/worker.py trace     --workload W --seed S
    python3 perfbench/worker.py reference --workload W --seed S

``setup`` stops at the first simulated event and reports the host
seconds since this process started, ``import repro`` included.
``measure`` repeats the cell until N host seconds of simulation have
run.  ``trace`` runs the cell untraced, then with per-layer spans.
``reference`` runs the cell in full DES.  ``run.py`` starts these and
applies the correctness gate to what they print.
"""

import time

START = time.perf_counter()  # harness start, before ``import repro``

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import cells  # noqa: E402  (puts the checkout's src/ on sys.path)
import spans  # noqa: E402
from repro.sim.events import Simulator  # noqa: E402

#: Read amplification bound of the tiered flash store (GET flash reads
#: per hit, false positives included).
MAX_READ_AMPLIFICATION = 1.1


class _SetupDone(Exception):
    """Raised at the first simulated event of a ``setup`` task."""


class FirstEvent:
    """Stamps the host time of a run's first ``Simulator.run`` call.

    This is the only wrapper in untraced runs.  Reset ``at`` before
    each run; ``sim`` is the simulator of the last run stamped.
    """

    def __init__(self, stop: bool = False):
        self.stop = stop
        self.at = None
        self.sim = None

    def __enter__(self):
        original = self._original = Simulator.run

        def run(sim, *args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
                self.sim = sim
                if self.stop:
                    raise _SetupDone
            return original(sim, *args, **kwargs)

        Simulator.run = run
        return self

    def __exit__(self, *exc_info):
        Simulator.run = self._original


def digest(results) -> str:
    """SHA-256 of the canonical JSON of ``results.to_dict()``."""
    canonical = json.dumps(
        results.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def invariant_errors(results) -> list[str]:
    """Checks that hold on every seed."""
    errors = []
    if results.energy is not None:
        total = results.energy["total_j"]
        parts = sum(results.energy["components_j"].values())
        if parts != total:
            errors.append(
                f"energy not conserved: components {parts!r} != total {total!r}"
            )
    if results.flashstore is not None:
        amplification = results.flashstore["read_amplification"]
        if not amplification <= MAX_READ_AMPLIFICATION:
            errors.append(
                f"flashstore read amplification {amplification!r} > "
                f"{MAX_READ_AMPLIFICATION}"
            )
    return errors


def outputs(stack, results, sim) -> dict:
    """The simulated outputs of one run, JSON-safe."""
    fidelity = results.fidelity or {}
    flash = results.flashstore or {}
    return {
        "digest": digest(results),
        "signature": [
            results.completed,
            results.get_hits,
            results.get_misses,
            results.puts,
            results.response_bytes,
        ],
        "fluid": fidelity.get("sim_fidelity_fluid_requests_total", 0) > 0,
        "completed": results.completed,
        "failed": results.failed,
        "mean_rtt_s": results.mean_rtt,
        "p99_s": results.rtt_percentile(0.99),
        "p999_s": results.rtt_percentile(0.999),
        "values": {
            "sim.events.events": sim.events_processed,
            "sim.fidelity.fluid_requests": fidelity.get(
                "sim_fidelity_fluid_requests_total", 0
            ),
            "sim.fidelity.des_seconds": fidelity.get(
                "sim_fidelity_des_seconds_total", results.duration_s
            ),
            "kvstore.store.hit_ratio": results.hit_rate,
            "kvstore.store.evictions": sum(
                server.store.stats.evictions for server in stack.servers
            ),
            "replication.hints_replayed": results.hints_replayed,
            "replication.read_repairs": results.read_repairs,
            "faults.retries": results.retries,
            "faults.timeouts": results.fault_timeouts,
            "flashstore.write_amplification": flash.get(
                "write_amplification", 0.0
            ),
            "flashstore.read_amplification": flash.get(
                "read_amplification", 0.0
            ),
        },
        "errors": invariant_errors(results),
    }


def setup(workload: str, seed: int) -> dict:
    with FirstEvent(stop=True) as first:
        stack, spec, options = cells.build(workload, seed)
        try:
            stack.run(spec, options)
        except _SetupDone:
            pass
    if first.at is None:
        raise RuntimeError(f"{workload}: the run never reached Simulator.run")
    return {"setup_s": first.at - START}


def run_once(workload, seed, first: FirstEvent, duration_s=None) -> tuple[float, dict]:
    """One untraced run: its first-event stamp and outputs."""
    stack, spec, options = cells.build(workload, seed, duration_s=duration_s)
    first.at = None
    results = stack.run(spec, options)
    host_s = time.perf_counter() - first.at
    return first.at, {"host_s": host_s, **outputs(stack, results, first.sim)}


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Repeat the cell until ``seconds`` of simulated-region host time."""
    with FirstEvent() as first:
        first_event, rep = run_once(workload, seed, first)
        # The peak of a process that ran the cell once (ru_maxrss is in
        # KiB on Linux), whatever the number of reps that follow.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reps = [rep]
        while sum(rep["host_s"] for rep in reps) < seconds:
            # The last run's stack is garbage held in reference cycles:
            # free it here rather than in the next run's timed region.
            gc.collect()
            reps.append(run_once(workload, seed, first)[1])
    return {"setup_s": first_event - START, "peak_rss_mb": peak_rss_mb, "reps": reps}


def trace(workload: str, seed: int, duration_s=None) -> dict:
    """The cell untraced, then traced with per-layer spans."""
    with FirstEvent() as first:
        untraced = run_once(workload, seed, first, duration_s)[1]
        stack, spec, options = cells.build(workload, seed, duration_s=duration_s)
        first.at = None
        recorder = spans.SpanRecorder()
        with recorder.installed():
            results, start, end, remainder_s = recorder.root(
                lambda: stack.run(spec, options)
            )
        traced = outputs(stack, results, first.sim)
    return {
        "untraced": untraced,
        "traced": traced,
        "traced_sim_s": end - first.at,
        "traced_s": end - start,
        "remainder_s": remainder_s,
        "calls": recorder.calls,
        "self_s": recorder.self_s,
        "total_s": recorder.total_s,
    }


def reference(workload: str, seed: int, duration_s=None) -> dict:
    with FirstEvent() as first:
        stack, spec, options = cells.build(
            workload, seed, duration_s=duration_s, full_des=True
        )
        results = stack.run(spec, options)
    return outputs(stack, results, first.sim)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=("setup", "measure", "trace", "reference"))
    parser.add_argument("--workload", required=True, choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.task == "setup":
        result = setup(args.workload, args.seed)
    elif args.task == "measure":
        result = measure(args.workload, args.seed, args.seconds)
    elif args.task == "trace":
        result = trace(args.workload, args.seed)
    else:
        result = reference(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
