"""Byte-level pins of the CLI's subcommands.

Each case runs ``repro.cli.main`` in process with its output directory
(``--out`` / ``--export``) under ``tmp_path`` and pins two kinds of
SHA-256 digest: stdout, with that directory masked, and every file the
command writes.

* The full-system subcommands ``telemetry``, ``power``, ``trace``,
  ``faults``, ``replication`` and ``flashstore`` run as text and, where
  they have one, with ``--export``.  Runs under a fault preset last past
  its first event (the crash is at 1.0 s).
* The analytic artefacts: ``table1``-``table4`` as text and exported to
  CSV, ``fig4``-``fig8`` as text, as ``--chart`` and exported to JSON,
  ``headlines``, ``sensitivity`` at two factors, and ``report`` with
  every file it writes.
* The ``--help`` text of the top-level parser and of the five
  full-system subcommands, at a fixed terminal width, so no subcommand
  or flag can be added, dropped, renamed or re-defaulted unnoticed.

To bless an intentional change::

    pytest tests/test_cli_full_system.py --regen-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_digests.json"

#: Stands for the case's output directory in argv and in masked stdout.
OUT = "<out>"

_SMALL = ("--memory-mb", "4")
_FAULTS = ("faults", "--cores", "2", "--load", "0.05", "--duration", "1.2",
           "--window", "0.1", *_SMALL)
_REPLICATION = ("replication", "--replicas", "1,3", "--cores", "4",
                "--load", "0.02", "--duration", "1.2", "--window", "0.1",
                *_SMALL)
_FLASHSTORE = ("flashstore", "--put-fractions", "0.5", "--rate", "6000",
               "--duration", "0.2", "--keys", "2000", "--warmup", "1000",
               "--segment-pages", "8")
_TABLES = ("table1", "table2", "table3", "table4")
_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8")

CASES: dict[str, tuple[str, ...]] = {
    "telemetry": ("telemetry", "--cores", "2", "--duration", "0.05",
                  *_SMALL, "--out", OUT),
    "telemetry-crash-batched": (
        "telemetry", "--cores", "2", "--load", "0.05", "--duration", "1.2",
        *_SMALL, "--scenario", "crash-restart", "--batch-max", "4",
        "--out", OUT,
    ),
    "power": ("power", "--cores", "2", "--duration", "0.05", *_SMALL,
              "--out", OUT),
    "trace": ("trace", "--cores", "4", "--load", "0.05", "--duration", "1.2",
              *_SMALL, "--scenario", "crash-restart", "--replicas", "3",
              "--out", OUT),
    "faults": _FAULTS,
    "faults-export": (*_FAULTS, "--export", f"{OUT}/faults.json"),
    "faults-list": ("faults", "--list"),
    "replication": _REPLICATION,
    "replication-export": (*_REPLICATION, "--export",
                           f"{OUT}/replication.json"),
    "flashstore": _FLASHSTORE,
    "flashstore-export": (*_FLASHSTORE, "--export", f"{OUT}/flashstore.json"),
    **{
        f"help-{command}": (command, "--help")
        for command in ("telemetry", "power", "trace", "faults", "replication")
    },
    "help": ("--help",),
    **{table: (table,) for table in _TABLES},
    **{
        f"{table}-export": (table, "--export", f"{OUT}/{table}.csv")
        for table in _TABLES
    },
    **{figure: (figure,) for figure in _FIGURES},
    **{f"{figure}-chart": (figure, "--chart") for figure in _FIGURES},
    **{
        f"{figure}-export": (figure, "--export", f"{OUT}/{figure}.json")
        for figure in _FIGURES
    },
    "headlines": ("headlines",),
    "sensitivity": ("sensitivity",),
    "sensitivity-factor-1.2": ("sensitivity", "--factor", "1.2"),
    "report": ("report", "--out", OUT),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(name: str, out: Path, capsys, monkeypatch) -> dict:
    """Run one case into ``out``; digest its stdout and written files."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = [arg.replace(OUT, str(out)) for arg in CASES[name]]
    try:
        main(argv)
    except SystemExit as exit_:  # argparse exits after --help
        assert exit_.code == 0
    stdout = capsys.readouterr().out.replace(str(out), OUT)
    return {
        "stdout": _sha256(stdout.encode()),
        "files": {
            path.relative_to(out).as_posix(): _sha256(path.read_bytes())
            for path in sorted(out.rglob("*"))
            if path.is_file()
        },
    }


@pytest.fixture(scope="module")
def golden(pytestconfig):
    if pytestconfig.getoption("--regen-golden"):
        # Each case then adds its own entry to a fresh file.
        GOLDEN_PATH.unlink(missing_ok=True)
        return None
    if not GOLDEN_PATH.exists():
        pytest.fail(f"missing golden fixture {GOLDEN_PATH}; use --regen-golden")
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_pinned(golden):
    if golden is not None:
        assert set(golden) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(golden, name, tmp_path, capsys, monkeypatch):
    digests = _digests(name, tmp_path, capsys, monkeypatch)
    if golden is None:
        pinned = (
            json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        )
        pinned[name] = digests
        GOLDEN_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        return
    assert digests == golden[name]
