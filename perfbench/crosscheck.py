"""Cross-check the traced layer ranking against cProfile on one workload.

    python3 perfbench/crosscheck.py [--workload des-baseline] [--seed 42]

Runs the cell traced (the benchmark's spans) and then under cProfile,
and prints each entry's inclusive share of the run by both.  cProfile
adds cost to every Python call, the spans only to the traced ones, so
the shares differ; the ranking should not.
"""

import argparse
import cProfile
import importlib
import pstats
import sys
import time

import cells
import spans
import worker


def _code_key(module_name: str, path: str) -> tuple:
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        owner = getattr(owner, name)
    code = owner.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def profiled_shares(workload: str, seed: int) -> dict[str, float]:
    """Entry -> cProfile cumulative time / run time (group members summed)."""
    stack, spec, options = cells.build(workload, seed)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.runcall(stack.run, spec, options)
    elapsed = time.perf_counter() - start
    stats = pstats.Stats(profiler).stats
    shares = {}
    for entry, targets in spans.ENTRIES.items():
        keys = {_code_key(module, path) for module, path in targets}
        cumulative = sum(stats[key][3] for key in keys if key in stats)
        shares[entry] = cumulative / elapsed
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="des-baseline", choices=sorted(cells.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    traced = worker.trace(args.workload, args.seed)
    profiled = profiled_shares(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}: inclusive share of run() host time")
    print(f"  {'entry':40s} {'spans':>7s} {'cProfile':>9s} {'spans self':>11s}")
    for entry in sorted(spans.ENTRIES, key=lambda entry: -traced["total_s"][entry]):
        print(
            f"  {entry:40s} {traced['total_s'][entry] / traced['traced_s']:7.1%} "
            f"{profiled[entry]:9.1%} "
            f"{traced['self_s'][entry] / traced['traced_s']:11.1%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
