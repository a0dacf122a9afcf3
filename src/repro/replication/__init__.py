"""Quorum replication over the DHT: placement, coordination, repair.

The subsystem splits along Dynamo's seams:

* :mod:`~repro.replication.config` — the N/R/W knobs.
* :mod:`~repro.replication.placement` — preferred lists: N distinct
  physical successors on the ring, stack-aware.
* :mod:`~repro.replication.coordinator` — the client-side quorum
  coordinator (fan-out writes, version-resolved reads, read-repair).
* :mod:`~repro.replication.handoff` — hinted handoff for down replicas.
* :mod:`~repro.replication.antientropy` — background digest sweeps.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.replication.config": (
        "QuorumConfig",
        "ReplicationConfig",
        "SINGLE_COPY",
        "DEFAULT_REPLICATION",
    ),
    "repro.replication.placement": ("ReplicaPlacement", "default_stack_of"),
    "repro.replication.coordinator": ("ReplicationCoordinator", "WriteOutcome"),
    "repro.replication.handoff": ("Hint", "HintQueue"),
    "repro.replication.antientropy": ("AntiEntropySweeper", "SweepReport"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
