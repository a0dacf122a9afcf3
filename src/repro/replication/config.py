"""Quorum replication parameters (the N/R/W knobs).

Replication in this library is Dynamo/FAWN-KV shaped: each key has N
preferred replicas placed along the consistent-hash ring, writes fan to
all N and succeed once W replicas acknowledge, reads consult R replicas
and resolve divergence by per-item version.  ``R + W > N`` makes read
and write quorums overlap, which is what guarantees a read sees the
newest acknowledged write; smaller quorums trade that guarantee for
latency/availability, exactly as production stores let operators do.

:class:`QuorumConfig` is the pure N/R/W triple shared by the client-side
coordinator and the replica-aware :class:`~repro.kvstore.client.ResilientClient`.
:class:`ReplicationConfig` adds the knobs the full-system DES needs on
top: hinted handoff on/off and the anti-entropy sweep cadence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Serialisable
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QuorumConfig:
    """Replica count and read/write quorum sizes.

    ``n`` replicas per key, a write needs ``w`` acknowledgements, a read
    consults ``r`` replicas.  The default 3/2/2 is the classic
    overlapping quorum.
    """

    n: int = 3
    r: int = 2
    w: int = 2

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError("replication factor n must be >= 1")
        if not 1 <= self.r <= self.n:
            raise ConfigurationError("read quorum r must be in [1, n]")
        if not 1 <= self.w <= self.n:
            raise ConfigurationError("write quorum w must be in [1, n]")

    @property
    def overlapping(self) -> bool:
        """Whether read and write quorums are guaranteed to intersect."""
        return self.r + self.w > self.n


@dataclass(frozen=True)
class ReplicationConfig(Serialisable):
    """Everything the full-system DES needs to run replicated.

    ``n``/``r``/``w`` are the quorum triple.  ``hinted_handoff`` parks
    writes destined for a down replica on the coordinator and replays
    them at readmission.  ``anti_entropy_interval_s`` schedules the
    background reconvergence sweep as DES events (``None`` disables it);
    each sweep repairs at most ``max_repairs_per_sweep`` keys so a cold
    restarted node warms over several sweeps instead of one giant stall.
    """

    n: int = 3
    r: int = 2
    w: int = 2
    hinted_handoff: bool = True
    anti_entropy_interval_s: float | None = 0.25
    anti_entropy_buckets: int = 64
    max_repairs_per_sweep: int = 10_000

    def __post_init__(self) -> None:
        # Reuse the quorum validation (raises ConfigurationError).
        QuorumConfig(self.n, self.r, self.w)
        if (
            self.anti_entropy_interval_s is not None
            and self.anti_entropy_interval_s <= 0
        ):
            raise ConfigurationError(
                "anti-entropy interval must be positive (or None)"
            )
        if self.anti_entropy_buckets < 1:
            raise ConfigurationError("anti-entropy needs at least one bucket")
        if self.max_repairs_per_sweep < 1:
            raise ConfigurationError("max_repairs_per_sweep must be positive")

    @property
    def quorum(self) -> QuorumConfig:
        return QuorumConfig(self.n, self.r, self.w)


#: Single-copy operation: the pre-replication behaviour, spelled out.
SINGLE_COPY = ReplicationConfig(n=1, r=1, w=1)

#: The classic overlapping quorum the benchmarks and CLI default to.
DEFAULT_REPLICATION = ReplicationConfig(n=3, r=2, w=2)
