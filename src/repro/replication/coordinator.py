"""The client-side quorum coordinator: N/R/W over per-node stores.

Memcached servers never talk to each other, so replication — like
sharding — lives in the client.  The coordinator owns the ring, the
stack-aware placement, one :class:`~repro.kvstore.store.KVStore` per
node, and a monotone version epoch:

* **writes** fan to every member of the key's preferred list, stamped
  with a fresh version (carried in the item's ``flags`` field, where a
  production store would carry a vector clock); a write succeeds once
  ``w`` live replicas acknowledge.  Copies destined for a down replica
  are parked as hints (:mod:`repro.replication.handoff`) and replayed
  at readmission.
* **reads** consult the first ``r`` live replicas (the preferred list
  with down members excluded, which deterministically extends the
  successor walk).  The newest version wins; any consulted replica that
  is stale or missing the key is **read-repaired** with the winning
  copy on the spot.
* **crash/restart** follow §2.3 cache semantics: a crashed node loses
  its contents, and recovery is hint replay plus anti-entropy, not a
  state restore.

Everything is a pure function of (operations, membership history), so a
seeded driver replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.kvstore.consistent_hash import ConsistentHashRing
from repro.kvstore.items import Item
from repro.kvstore.store import KVStore, StoreResult
from repro.replication.config import QuorumConfig
from repro.replication.handoff import HintQueue
from repro.replication.placement import ReplicaPlacement, default_stack_of
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY
from repro.telemetry.tracing import RequestTrace


@dataclass(frozen=True)
class WriteOutcome:
    """What one quorum write achieved."""

    ok: bool
    version: int
    acks: int
    hinted: int
    replicas: tuple[str, ...]


class ReplicationCoordinator:
    """A replicated, quorum-consistent view of a Memcached fleet."""

    def __init__(
        self,
        node_names: list[str],
        memory_per_node_bytes: int,
        quorum: QuorumConfig = QuorumConfig(),
        vnodes: int = 100,
        stack_of: Callable[[str], str] = default_stack_of,
        hinted_handoff: bool = True,
        max_hints_per_node: int = 100_000,
        registry: MetricsRegistry = NULL_REGISTRY,
        policy: str = "lru",
    ):
        if not node_names:
            raise ConfigurationError("a replica group needs at least one node")
        if len(set(node_names)) != len(node_names):
            raise ConfigurationError("node names must be unique")
        if quorum.n > len(node_names):
            raise ConfigurationError(
                f"replication factor {quorum.n} exceeds the "
                f"{len(node_names)}-node cluster"
            )
        self.quorum = quorum
        self.ring = ConsistentHashRing(node_names, vnodes=vnodes)
        self.placement = ReplicaPlacement(self.ring, quorum.n, stack_of)
        self.stores: dict[str, KVStore] = {
            name: KVStore(memory_per_node_bytes, policy=policy)
            for name in node_names
        }
        self.hinted_handoff = hinted_handoff
        self.hints = HintQueue(
            max_hints_per_node=max_hints_per_node, registry=registry
        )
        self._down: set[str] = set()
        self._version = 0
        # Outcome counters (mirrored into the registry's replication_*).
        self.replica_writes = 0
        self.quorum_write_failures = 0
        self.read_repairs = 0
        self.divergence_detected = 0
        self.divergence_healed = 0
        self.unavailable_reads = 0
        self._replica_writes_total = registry.counter(
            "replication_replica_writes_total"
        )
        self._write_failures_total = registry.counter(
            "replication_quorum_write_failures_total"
        )
        self._read_repairs_total = registry.counter("replication_read_repairs_total")
        self._divergence_total = registry.counter(
            "replication_divergence_detected_total"
        )
        self._healed_total = registry.counter("replication_divergence_healed_total")
        self._unavailable_total = registry.counter(
            "replication_unavailable_reads_total"
        )
        self._nodes_down_gauge = registry.gauge("replication_nodes_down")

    # --- membership -------------------------------------------------------------

    @property
    def node_names(self) -> list[str]:
        return sorted(self.stores)

    @property
    def live_nodes(self) -> list[str]:
        return sorted(set(self.stores) - self._down)

    def node_is_down(self, name: str) -> bool:
        return name in self._down

    def crash_node(self, name: str) -> None:
        """Transient failure: contents lost now (§2.3), node back later.

        The node stays on the ring — preferred lists are stable — but
        reads and quorum counting exclude it, and writes it should have
        taken are parked as hints.
        """
        if name not in self.stores:
            raise ConfigurationError(f"node {name!r} not in the cluster")
        if name in self._down:
            raise ConfigurationError(f"node {name!r} is already down")
        self._down.add(name)
        self.stores[name].flush_all()
        self._nodes_down_gauge.set(len(self._down))

    def restart_node(self, name: str) -> int:
        """Readmit a crashed node cold and replay its parked hints.

        Returns the number of hints replayed into it.
        """
        if name not in self._down:
            raise ConfigurationError(f"node {name!r} is not down")
        self._down.discard(name)
        self._nodes_down_gauge.set(len(self._down))
        replayed = 0
        store = self.stores[name]
        for hint in self.hints.drain(name):
            value, flags_version, expire_at = hint.payload
            existing = store.peek(hint.key)
            if existing is not None and existing.flags >= flags_version:
                continue
            if store.set_absolute(hint.key, value, flags_version, expire_at) is (
                StoreResult.STORED
            ):
                replayed += 1
        return replayed

    # --- versions ---------------------------------------------------------------

    def _next_version(self) -> int:
        self._version += 1
        return self._version

    @property
    def current_version(self) -> int:
        """The newest version the coordinator has issued."""
        return self._version

    # --- data plane --------------------------------------------------------------

    def replicas_for(self, key: bytes) -> tuple[str, ...]:
        """The key's preferred list (full membership, down included)."""
        return self.placement.replicas_for(key)

    def read_targets(self, key: bytes) -> tuple[str, ...]:
        """The first R live replicas (successor walk past down nodes)."""
        live = self.placement.replicas_for(key, exclude=self._down)
        return live[: self.quorum.r]

    def put(
        self,
        key: bytes,
        value: bytes,
        expire: float = 0.0,
        trace: RequestTrace | None = None,
        now_s: float = 0.0,
    ) -> WriteOutcome:
        """Quorum write: fan to the preferred list, succeed at W acks.

        With a ``trace``, each replica interaction becomes a
        zero-duration child span at ``now_s`` (the coordinator is
        instantaneous in this functional model — durations belong to the
        DES): ``replica_put`` per acknowledging replica, ``replica_hint``
        per copy parked for a down one.
        """
        version = self._next_version()
        replicas = self.replicas_for(key)
        acks = 0
        hinted = 0
        for node in replicas:
            if node in self._down:
                if self.hinted_handoff:
                    # The copy keeps the write's absolute expiry: a
                    # replay at restart must not restart its TTL.
                    expire_at = self.stores[node].absolute_expiry(expire)
                    if self.hints.park(
                        node,
                        key,
                        version,
                        (value, version, expire_at),
                        trace_id=trace.request_id if trace is not None else None,
                    ):
                        hinted += 1
                        if trace is not None:
                            trace.add_span(
                                "replica_hint", now_s, 0.0,
                                kind="producer", node=node,
                            )
                continue
            if self.stores[node].set(key, value, flags=version, expire=expire) is (
                StoreResult.STORED
            ):
                acks += 1
                self.replica_writes += 1
                self._replica_writes_total.inc()
                if trace is not None:
                    trace.add_span(
                        "replica_put", now_s, 0.0, kind="server", node=node
                    )
        ok = acks >= min(self.quorum.w, len(replicas))
        if not ok:
            self.quorum_write_failures += 1
            self._write_failures_total.inc()
        return WriteOutcome(
            ok=ok, version=version, acks=acks, hinted=hinted, replicas=replicas
        )

    def get(
        self,
        key: bytes,
        trace: RequestTrace | None = None,
        now_s: float = 0.0,
    ) -> Item | None:
        """Quorum read: newest of R live replicas, repairing the stale.

        Returns the winning :class:`Item` (its ``flags`` field is the
        version), or None when every consulted replica misses.  Stats
        (``cmd_get``/hits/misses) accrue on the consulted stores exactly
        as R independent GETs would.  With a ``trace``, each consulted
        replica emits a zero-duration ``replica_read`` span and each
        repaired one a ``read_repair`` span at ``now_s``.
        """
        targets = self.read_targets(key)
        if not targets:
            self.unavailable_reads += 1
            self._unavailable_total.inc()
            return None
        reads = [(node, self.stores[node].get(key)) for node in targets]
        if trace is not None:
            for node in targets:
                trace.add_span("replica_read", now_s, 0.0, kind="server", node=node)
        winner: Item | None = None
        for _node, item in reads:
            if item is not None and (winner is None or item.flags > winner.flags):
                winner = item
        if winner is None:
            return None
        stale = [
            node
            for node, item in reads
            if item is None or item.flags < winner.flags
        ]
        if stale:
            self.divergence_detected += 1
            self._divergence_total.inc()
            healed_all = True
            for node in stale:
                result = self.stores[node].set_absolute(
                    key, winner.value, winner.flags, winner.expire_at
                )
                if result is StoreResult.STORED:
                    self.read_repairs += 1
                    self._read_repairs_total.inc()
                    if trace is not None:
                        trace.add_span(
                            "read_repair", now_s, 0.0, kind="server", node=node
                        )
                else:
                    healed_all = False
            if healed_all:
                self.divergence_healed += 1
                self._healed_total.inc()
        return winner

    def delete(self, key: bytes) -> bool:
        """Delete from every live preferred replica.

        Down replicas are *not* hinted: without tombstones, a parked
        delete replayed after newer writes would be wrong, and a missed
        delete can resurface via anti-entropy — the documented Dynamo
        caveat, which this model keeps rather than hides.
        """
        deleted = False
        for node in self.replicas_for(key):
            if node in self._down:
                continue
            if self.stores[node].delete(key) is StoreResult.DELETED:
                deleted = True
        return deleted

    def advance_time(self, delta: float) -> None:
        for store in self.stores.values():
            store.advance_time(delta)

    # --- accounting ----------------------------------------------------------------

    def item_count(self) -> int:
        """Total stored copies across replicas (≈ N x distinct keys)."""
        return sum(len(store) for store in self.stores.values())

    def hit_rate(self) -> float:
        gets = sum(s.stats.cmd_get for s in self.stores.values())
        hits = sum(s.stats.get_hits for s in self.stores.values())
        return hits / gets if gets else 0.0
