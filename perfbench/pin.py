"""Rewrite pins.json: every workload's simulated outputs at one seed.

    python3 perfbench/pin.py [--seed 42]

``run.py`` checks runs at the pinned seed against these outputs: the
digest of ``FullSystemResults.to_dict()`` for full-DES cells, and for a
hybrid cell the functional signature and RTTs of the same cell in full
DES.  Re-pin only for a change meant to alter what the simulator
computes; a change that only makes it faster leaves pins.json as it is.
"""

import argparse
import json
import sys
from pathlib import Path

import cells
import worker

PINS_FILE = Path(__file__).resolve().parent / "pins.json"


def pin(workload: str, seed: int) -> dict:
    with worker.FirstEvent() as first:
        outputs = worker.run_once(workload, seed, first)[1]
    reference = worker.reference(workload, seed) if outputs["fluid"] else outputs
    errors = outputs["errors"] + reference["errors"]
    if outputs["signature"] != reference["signature"]:
        errors.append("functional signature differs from full DES")
    if errors:
        raise SystemExit(f"{workload}: refusing to pin: {'; '.join(errors)}")
    entry = {
        "reference": {
            key: reference[key]
            for key in ("signature", "mean_rtt_s", "p99_s", "p999_s")
        }
    }
    if not outputs["fluid"]:
        entry["digest"] = outputs["digest"]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    pins = {
        "seed": args.seed,
        "workloads": {name: pin(name, args.seed) for name in cells.WORKLOADS},
    }
    PINS_FILE.write_text(json.dumps(pins, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
