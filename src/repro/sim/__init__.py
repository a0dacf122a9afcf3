"""Discrete-event simulation: engine, resources, queueing theory."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sim.events": ("Simulator", "Event"),
    "repro.sim.resources": ("FifoResource",),
    "repro.sim.queueing": ("MM1", "MG1", "MMc", "sla_fraction_met"),
    "repro.sim.request_sim": ("StackSimulation", "SimResults"),
    "repro.sim.full_system": ("FullSystemStack", "FullSystemResults"),
    "repro.sim.run_options": ("RunOptions",),
    "repro.sim.fidelity": ("FidelityPolicy",),
    "repro.sim.packet_sim": ("PacketLevelSimulation", "PacketSimResult"),
    # Re-exported so full-system callers can configure replicated runs
    # without importing the replication package path themselves.
    "repro.replication.config": ("ReplicationConfig",),
    "repro.sim.rng": ("make_rng",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
