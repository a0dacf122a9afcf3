"""Unit tests for the quorum replication subsystem.

Covers the N/R/W config contract, stack-aware placement, the
client-side coordinator (fan-out writes, version-resolved reads,
read-repair, crash/restart with hinted handoff), the hint queue's
newest-wins semantics, anti-entropy reconvergence, and the
replica-aware :class:`ResilientClient`.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.kvstore.client import FaultyNetwork, ResilientClient
from repro.kvstore.consistent_hash import ConsistentHashRing
from repro.replication.antientropy import AntiEntropySweeper
from repro.replication.config import (
    DEFAULT_REPLICATION,
    SINGLE_COPY,
    QuorumConfig,
    ReplicationConfig,
)
from repro.replication.coordinator import ReplicationCoordinator
from repro.replication.handoff import HintQueue
from repro.replication.placement import ReplicaPlacement, default_stack_of
from repro.telemetry.metrics import MetricsRegistry
from repro.units import MB

NODES = [f"stack{i}:core0" for i in range(5)]


def make_coordinator(n=3, r=2, w=2, nodes=None, **kwargs):
    return ReplicationCoordinator(
        nodes if nodes is not None else list(NODES),
        memory_per_node_bytes=4 * MB,
        quorum=QuorumConfig(n, r, w),
        **kwargs,
    )


class TestQuorumConfig:
    def test_default_is_overlapping_3_2_2(self):
        q = QuorumConfig()
        assert (q.n, q.r, q.w) == (3, 2, 2)
        assert q.overlapping

    def test_non_overlapping_detected(self):
        assert not QuorumConfig(n=3, r=1, w=1).overlapping

    @pytest.mark.parametrize("n,r,w", [(0, 1, 1), (3, 0, 2), (3, 4, 2), (3, 2, 0), (3, 2, 4)])
    def test_invalid_triples_rejected(self, n, r, w):
        with pytest.raises(ConfigurationError):
            QuorumConfig(n=n, r=r, w=w)

    def test_replication_config_validates_and_exposes_quorum(self):
        config = ReplicationConfig(n=3, r=2, w=2)
        assert config.quorum == QuorumConfig(3, 2, 2)
        with pytest.raises(ConfigurationError):
            ReplicationConfig(anti_entropy_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            ReplicationConfig(anti_entropy_buckets=0)
        with pytest.raises(ConfigurationError):
            ReplicationConfig(max_repairs_per_sweep=0)

    def test_named_presets(self):
        assert SINGLE_COPY.n == 1
        assert DEFAULT_REPLICATION.quorum.overlapping


class TestPlacement:
    def test_preferred_list_has_n_distinct_nodes(self):
        ring = ConsistentHashRing(NODES)
        placement = ReplicaPlacement(ring, n=3)
        for i in range(200):
            replicas = placement.replicas_for(b"key-%d" % i)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3

    def test_stack_rule_keeps_failure_domains_distinct(self):
        # Two nodes per stack: replicas must never share a stack while
        # enough stacks exist.
        nodes = [f"stack{s}:core{c}" for s in range(4) for c in range(2)]
        placement = ReplicaPlacement(ConsistentHashRing(nodes), n=3)
        for i in range(200):
            stacks = placement.stacks_for(b"key-%d" % i)
            assert len(set(stacks)) == 3

    def test_stack_rule_relaxes_when_stacks_are_scarce(self):
        # 2 stacks, 3 replicas: distinct nodes still required, stacks
        # necessarily repeat.
        nodes = [f"stack{s}:core{c}" for s in range(2) for c in range(3)]
        placement = ReplicaPlacement(ConsistentHashRing(nodes), n=3)
        replicas = placement.replicas_for(b"alpha")
        assert len(set(replicas)) == 3

    def test_exclusion_extends_the_walk_deterministically(self):
        ring = ConsistentHashRing(NODES)
        placement = ReplicaPlacement(ring, n=3)
        key = b"the-key"
        original = placement.replicas_for(key)
        down = original[0]
        shifted = placement.replicas_for(key, exclude={down})
        assert down not in shifted
        # Surviving members keep their relative order; re-placement is
        # the walk extended past the excluded node.
        assert shifted[: 2] == original[1:]
        # Readmission restores the original preferred list exactly.
        assert placement.replicas_for(key) == original

    def test_primary_for_raises_when_everything_excluded(self):
        placement = ReplicaPlacement(ConsistentHashRing(NODES), n=2)
        with pytest.raises(ConfigurationError):
            placement.primary_for(b"k", exclude=set(NODES))

    def test_default_stack_of(self):
        assert default_stack_of("stack3:core7") == "stack3"
        assert default_stack_of("plainnode") == "plainnode"


class TestHintQueue:
    def test_newest_version_wins_per_key(self):
        q = HintQueue()
        assert q.park("n1", b"k", 5, payload="old")
        assert not q.park("n1", b"k", 3, payload="older")  # stale, ignored
        assert q.park("n1", b"k", 9, payload="new")
        (hint,) = q.drain("n1")
        assert hint.version == 9 and hint.payload == "new"

    def test_drain_orders_by_version_then_key(self):
        q = HintQueue()
        q.park("n1", b"b", 2)
        q.park("n1", b"a", 2)
        q.park("n1", b"c", 1)
        assert [h.key for h in q.drain("n1")] == [b"c", b"a", b"b"]
        assert q.depth("n1") == 0

    def test_bounded_queue_drops_new_keys(self):
        q = HintQueue(max_hints_per_node=2)
        assert q.park("n1", b"a", 1)
        assert q.park("n1", b"b", 1)
        assert not q.park("n1", b"c", 1)  # full: dropped
        assert q.park("n1", b"a", 2)  # existing key: still updatable
        assert q.dropped == 1 and len(q) == 2


class TestCoordinator:
    def test_write_fans_to_n_and_read_returns_value(self):
        c = make_coordinator()
        outcome = c.put(b"k", b"v")
        assert outcome.ok and outcome.acks == 3 and len(outcome.replicas) == 3
        assert c.item_count() == 3
        assert c.get(b"k").value == b"v"

    def test_versions_are_monotone(self):
        c = make_coordinator()
        v1 = c.put(b"k", b"a").version
        v2 = c.put(b"k", b"b").version
        assert v2 > v1
        assert c.get(b"k").flags == v2

    def test_write_succeeds_at_w_with_one_replica_down(self):
        c = make_coordinator()
        victim = c.replicas_for(b"k")[0]
        c.crash_node(victim)
        outcome = c.put(b"k", b"v")
        assert outcome.ok and outcome.acks == 2 and outcome.hinted == 1
        assert c.get(b"k").value == b"v"

    def test_write_fails_below_w(self):
        c = make_coordinator()
        replicas = c.replicas_for(b"k")
        c.crash_node(replicas[0])
        c.crash_node(replicas[1])
        outcome = c.put(b"k", b"v")
        assert not outcome.ok and outcome.acks == 1
        assert c.quorum_write_failures == 1

    def test_restart_replays_hints_newest_version_wins(self):
        c = make_coordinator()
        victim = c.replicas_for(b"k")[0]
        c.put(b"k", b"v1")
        c.crash_node(victim)
        c.put(b"k", b"v2")
        c.put(b"k", b"v3")  # overwrites the parked hint
        assert c.hints.depth(victim) == 1
        replayed = c.restart_node(victim)
        assert replayed == 1
        item = c.stores[victim].peek(b"k")
        assert item.value == b"v3"

    def test_read_repair_heals_stale_replica(self):
        c = make_coordinator(n=3, r=3, w=2)
        c.put(b"k", b"new")
        # Manually regress one replica to an older version.
        stale_node = c.replicas_for(b"k")[2]
        c.stores[stale_node].set(b"k", b"old", flags=0)
        item = c.get(b"k")
        assert item.value == b"new"
        assert c.read_repairs == 1
        assert c.divergence_detected == 1 and c.divergence_healed == 1
        assert c.stores[stale_node].peek(b"k").value == b"new"

    def test_read_skips_down_replica_and_extends_walk(self):
        c = make_coordinator()
        key = b"k"
        c.put(key, b"v")
        primary = c.replicas_for(key)[0]
        c.crash_node(primary)
        targets = c.read_targets(key)
        assert primary not in targets and len(targets) == 2
        assert c.get(key).value == b"v"

    def test_crash_loses_contents(self):
        c = make_coordinator()
        c.put(b"k", b"v")
        victim = c.replicas_for(b"k")[0]
        c.crash_node(victim)
        c.restart_node(victim)
        # No writes happened while down: the node restarts cold except
        # for replayed hints (none here).
        assert c.stores[victim].peek(b"k") is None

    def test_delete_removes_from_live_replicas(self):
        c = make_coordinator()
        c.put(b"k", b"v")
        assert c.delete(b"k")
        assert c.get(b"k") is None

    def test_membership_validation(self):
        with pytest.raises(ConfigurationError):
            make_coordinator(nodes=[])
        with pytest.raises(ConfigurationError):
            make_coordinator(nodes=["a", "a"])
        with pytest.raises(ConfigurationError):
            make_coordinator(n=4, r=2, w=2, nodes=["a", "b"])
        c = make_coordinator()
        with pytest.raises(ConfigurationError):
            c.restart_node(NODES[0])  # not down
        c.crash_node(NODES[0])
        with pytest.raises(ConfigurationError):
            c.crash_node(NODES[0])  # already down

    def test_counters_mirror_into_registry(self):
        registry = MetricsRegistry()
        c = make_coordinator(registry=registry)
        c.put(b"k", b"v")
        victim = c.replicas_for(b"k")[0]
        c.crash_node(victim)
        c.put(b"k", b"v2")
        c.restart_node(victim)
        snapshot = {m.name: m.value for m in registry if hasattr(m, "value")}
        assert snapshot["replication_replica_writes_total"] == 5
        assert snapshot["replication_hints_queued_total"] == 1
        assert snapshot["replication_hints_replayed_total"] == 1


class TestAntiEntropy:
    def test_sweep_reconverges_a_cold_restarted_node(self):
        c = make_coordinator()
        keys = [b"key-%d" % i for i in range(50)]
        for key in keys:
            c.put(key, b"value")
        victim = NODES[0]
        before = len(c.stores[victim].items_live())
        c.crash_node(victim)
        c.restart_node(victim)  # cold: hints only cover writes-while-down
        assert len(c.stores[victim].items_live()) == 0
        sweeper = AntiEntropySweeper(c, buckets=16)
        report = sweeper.sweep()
        assert report.repairs == before
        assert len(c.stores[victim].items_live()) == before
        # A second sweep finds nothing to do.
        assert sweeper.sweep().repairs == 0

    def test_converged_group_skips_every_bucket(self):
        c = make_coordinator()
        for i in range(30):
            c.put(b"key-%d" % i, b"v")
        report = AntiEntropySweeper(c, buckets=8).sweep()
        assert report.buckets_dirty == 0 and report.repairs == 0

    def test_repair_cap_truncates_and_resumes(self):
        c = make_coordinator()
        for i in range(40):
            c.put(b"key-%d" % i, b"v")
        victim = NODES[1]
        missing = len(c.stores[victim].items_live())
        c.crash_node(victim)
        c.restart_node(victim)
        sweeper = AntiEntropySweeper(c, buckets=16, max_repairs_per_sweep=5)
        first = sweeper.sweep()
        assert first.truncated and first.repairs == 5
        total = first.repairs
        for _ in range(missing):
            report = sweeper.sweep()
            total += report.repairs
            if not report.truncated:
                break
        assert total == missing

    def test_newest_version_wins_across_group(self):
        c = make_coordinator()
        c.put(b"k", b"new")
        stale_node = c.replicas_for(b"k")[1]
        c.stores[stale_node].set(b"k", b"old", flags=0)
        AntiEntropySweeper(c, buckets=4).sweep()
        assert c.stores[stale_node].peek(b"k").value == b"new"


class TestReplicaCopiesKeepTheirExpiry:
    """A copy written by anti-entropy, read repair or hint replay dies
    when the original does."""

    #: Beyond 30 days: memcached reads a TTL this large as an absolute
    #: timestamp.
    FAR = 5e6

    def put_far(self, c, key):
        c.advance_time(1e6)
        c.put(key, b"v", expire=self.FAR)
        for node in c.replicas_for(key):
            assert c.stores[node].peek(key).expire_at == self.FAR

    def test_antientropy_repair(self):
        c = make_coordinator()
        self.put_far(c, b"k")
        lost = c.replicas_for(b"k")[1]
        c.stores[lost].delete(b"k")
        AntiEntropySweeper(c, buckets=4).sweep()
        assert c.stores[lost].peek(b"k").expire_at == self.FAR

    def test_read_repair(self):
        c = make_coordinator(n=3, r=3, w=2)
        self.put_far(c, b"k")
        lost = c.replicas_for(b"k")[2]
        c.stores[lost].delete(b"k")
        assert c.get(b"k") is not None and c.read_repairs == 1
        assert c.stores[lost].peek(b"k").expire_at == self.FAR

    def test_hint_replay(self):
        c = make_coordinator()
        victim = c.replicas_for(b"k")[0]
        c.crash_node(victim)
        c.put(b"k", b"v", expire=100)
        c.advance_time(60)
        assert c.restart_node(victim) == 1
        assert c.stores[victim].peek(b"k").expire_at == 100
        c.advance_time(50)
        for node in c.replicas_for(b"k"):
            assert c.stores[node].peek(b"k") is None


class TestResilientClientQuorum:
    NODES = ["s0:c0", "s1:c0", "s2:c0", "s3:c0"]

    def make(self, quorum=None, network=None, **kwargs):
        return ResilientClient(
            list(self.NODES), 4 * MB, network=network, quorum=quorum, **kwargs
        )

    def test_set_fans_to_preferred_list(self):
        client = self.make(quorum=QuorumConfig(3, 2, 2))
        assert client.set(b"k", b"v")
        assert client.replica_writes == 3
        holders = [
            node for node in self.NODES
            if client._stores[node].peek(b"k") is not None
        ]
        assert sorted(holders) == sorted(client.placement.replicas_for(b"k"))

    def test_hedge_targets_next_replica_not_next_ring_node(self):
        client = self.make(quorum=QuorumConfig(3, 2, 2))
        replicas = client.placement.replicas_for(b"k")
        assert client._hedge_node(b"k") == replicas[1]
        plain = self.make()
        nodes = sorted(plain.ring.nodes)
        expected = nodes[(nodes.index(plain.node_for(b"k")) + 1) % len(nodes)]
        assert plain._hedge_node(b"k") == expected

    def test_n1_quorum_preserves_old_hedge_behaviour(self):
        single = self.make(quorum=QuorumConfig(1, 1, 1))
        plain = self.make()
        for i in range(20):
            key = b"key-%d" % i
            assert single._hedge_node(key) == plain._hedge_node(key)

    def test_get_survives_primary_crash_via_replicas(self):
        network = FaultyNetwork(seed=7)
        client = self.make(quorum=QuorumConfig(3, 2, 2), network=network)
        assert client.set(b"k", b"v")
        network.crash(client.placement.replicas_for(b"k")[0])
        result = client.get(b"k")
        assert result is not None and result.value == b"v"

    def test_set_reports_quorum_failure(self):
        network = FaultyNetwork(seed=7)
        client = self.make(quorum=QuorumConfig(3, 3, 3), network=network)
        network.crash(client.placement.replicas_for(b"k")[0])
        assert not client.set(b"k", b"v")  # w=3 unreachable with 1 down

    def test_delete_fans_out(self):
        client = self.make(quorum=QuorumConfig(3, 2, 2))
        client.set(b"k", b"v")
        assert client.delete(b"k")
        for node in self.NODES:
            assert client._stores[node].peek(b"k") is None

    def test_placement_follows_failover_and_readmission(self):
        """Fail-over removes the dead node from the ring and readmission
        adds it back; the placement memo warmed before either must not
        answer for the old membership."""
        network = FaultyNetwork(seed=7)
        client = self.make(quorum=QuorumConfig(3, 2, 2), network=network)
        keys = [b"key-%d" % i for i in range(40)]
        before = {key: client.placement.replicas_for(key) for key in keys}
        victim = client.node_for(keys[0])
        network.crash(victim)
        for _ in range(client.policy.failover_after):
            client.get(keys[0])
        assert victim not in client.ring.nodes
        fresh = ReplicaPlacement(
            ConsistentHashRing(sorted(client.ring.nodes), vnodes=client.ring.vnodes),
            n=3,
        )
        for key in keys:
            assert client.placement.replicas_for(key) == fresh.replicas_for(key)
        assert any(victim in group for group in before.values())
        network.restart(victim)
        client.clock_s += client.policy.health_check_interval_s
        client.get(keys[0])  # the health check readmits the node
        assert victim in client.ring.nodes
        for key in keys:
            assert client.placement.replicas_for(key) == before[key]

    def test_quorum_larger_than_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ResilientClient(["a", "b"], 4 * MB, quorum=QuorumConfig(3, 2, 2))
