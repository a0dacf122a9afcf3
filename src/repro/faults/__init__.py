"""Fault injection and resilience for the multi-stack cluster.

Three layers:

* :mod:`repro.faults.schedule` — declarative, serialisable descriptions
  of what goes wrong and when (crashes, restarts, loss/corruption
  bursts, DRAM degradation, flash wear-out);
* :mod:`repro.faults.injector` — the deterministic runtime that replays
  a schedule against the DES or a stepped driver, with telemetry;
* :mod:`repro.faults.resilience` — the client-side policy (timeouts,
  backoff with jitter, hedging, failover rebalancing) that decides how
  much of a fault the application actually feels.

Run a scenario from the shell with ``python -m repro faults`` or from
code via ``FullSystemStack.run(..., faults=schedule, resilience=policy)``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.faults.injector": ("FaultInjector",),
    "repro.faults.resilience": (
        "DEFAULT_RESILIENCE",
        "NO_RESILIENCE",
        "ResiliencePolicy",
    ),
    "repro.faults.schedule": (
        "KINDS",
        "PRESETS",
        "FaultEvent",
        "FaultSchedule",
        "acceptance_schedule",
        "crash_restart",
        "lossy_link",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
