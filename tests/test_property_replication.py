"""Property-based tests for replica placement and the quorum coordinator.

Replication correctness rests on placement invariants that must hold for
*every* membership, not just the example clusters in the unit tests:
the preferred list always has N distinct physical nodes, membership
churn elsewhere on the ring never disturbs an unrelated key's replica
set beyond consistent hashing's monotonicity guarantee, and the
stack-skip rule keeps replicas in distinct failure domains whenever
enough stacks exist.  A final test pins the coordinator's determinism:
the same operation script against the same membership produces
bit-identical state, which the full-system acceptance test relies on.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.consistent_hash import ConsistentHashRing
from repro.replication.config import QuorumConfig
from repro.replication.coordinator import ReplicationCoordinator
from repro.replication.placement import ReplicaPlacement
from repro.units import MB

#: ``stack<i>:core<j>`` node names — the stack prefix is the failure
#: domain the placement skip rule operates on.
stacked_nodes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=3,
    max_size=16,
    unique=True,
).map(lambda pairs: [f"stack{s}:core{c}" for s, c in pairs])

replica_keys = st.lists(
    st.lists(st.integers(min_value=33, max_value=126), min_size=1, max_size=24).map(
        bytes
    ),
    min_size=1,
    max_size=50,
    unique=True,
)

replica_counts = st.integers(min_value=1, max_value=3)


class TestPlacementProperties:
    @given(nodes=stacked_nodes, key_list=replica_keys, n=replica_counts)
    @settings(max_examples=100, deadline=None)
    def test_preferred_list_always_has_n_distinct_nodes(self, nodes, key_list, n):
        placement = ReplicaPlacement(ConsistentHashRing(nodes, vnodes=32), n=n)
        for key in key_list:
            replicas = placement.replicas_for(key)
            assert len(replicas) == min(n, len(nodes))
            assert len(set(replicas)) == len(replicas)
            assert set(replicas) <= set(nodes)

    @given(nodes=stacked_nodes, key_list=replica_keys, n=replica_counts)
    @settings(max_examples=100, deadline=None)
    def test_removing_an_unselected_node_leaves_the_set_unchanged(
        self, nodes, key_list, n
    ):
        """Stability: membership churn outside a key's replica set must
        not reshuffle that key's replicas."""
        ring = ConsistentHashRing(nodes, vnodes=32)
        placement = ReplicaPlacement(ring, n=n)
        before = {key: placement.replicas_for(key) for key in key_list}
        unselected = set(nodes) - {r for reps in before.values() for r in reps}
        if not unselected or len(nodes) - 1 < n:
            return  # every node is someone's replica; nothing to remove
        victim = sorted(unselected)[0]
        ring.remove_node(victim)
        for key in key_list:
            assert placement.replicas_for(key) == before[key]

    @given(nodes=stacked_nodes, key_list=replica_keys, n=replica_counts)
    @settings(max_examples=100, deadline=None)
    def test_adding_a_node_only_introduces_the_newcomer(self, nodes, key_list, n):
        """Monotonicity lifts to replica sets: after an add, a key's new
        preferred list draws only from the old list plus the newcomer."""
        ring = ConsistentHashRing(nodes, vnodes=32)
        placement = ReplicaPlacement(ring, n=n)
        before = {key: placement.replicas_for(key) for key in key_list}
        newcomer = "stack9:core9"
        ring.add_node(newcomer)
        for key in key_list:
            after = placement.replicas_for(key)
            assert set(after) <= set(before[key]) | {newcomer}

    @given(
        nodes=stacked_nodes,
        key_list=replica_keys,
        n=replica_counts,
        churn=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_lookups_after_churn_match_a_fresh_ring(self, nodes, key_list, n, churn):
        """The per-key memo never answers from an older membership:
        after any add/remove sequence (with lookups between the steps),
        a placement agrees with a fresh one over a fresh ring of the
        same members, with and without ``exclude``."""
        ring = ConsistentHashRing(nodes, vnodes=32)
        placement = ReplicaPlacement(ring, n=n)
        for stack, core in churn:
            for key in key_list:
                placement.replicas_for(key)
            node = f"stack{stack}:core{core}"
            if node not in ring.nodes:
                ring.add_node(node)
            elif len(ring) > 1:
                ring.remove_node(node)
        fresh = ReplicaPlacement(
            ConsistentHashRing(sorted(ring.nodes), vnodes=32), n=n
        )
        excluded = {sorted(ring.nodes)[0]}
        for key in key_list:
            assert placement.replicas_for(key) == fresh.replicas_for(key)
            assert placement.replicas_for(key, exclude=excluded) == (
                fresh.replicas_for(key, exclude=excluded)
            )

    @given(nodes=stacked_nodes, key_list=replica_keys, n=replica_counts)
    @settings(max_examples=100, deadline=None)
    def test_no_shared_stack_when_stacks_suffice(self, nodes, key_list, n):
        """The skip rule: replicas sit on distinct stacks whenever the
        cluster has at least N stacks."""
        stacks = {name.split(":", 1)[0] for name in nodes}
        if len(stacks) < n:
            return
        placement = ReplicaPlacement(ConsistentHashRing(nodes, vnodes=32), n=n)
        for key in key_list:
            chosen = placement.stacks_for(key)
            assert len(set(chosen)) == len(chosen)

    @given(nodes=stacked_nodes, key_list=replica_keys)
    @settings(max_examples=100, deadline=None)
    def test_exclusion_is_deterministic_and_avoids_excluded(self, nodes, key_list):
        placement = ReplicaPlacement(ConsistentHashRing(nodes, vnodes=32), n=2)
        excluded = {sorted(nodes)[0]}
        for key in key_list:
            first = placement.replicas_for(key, exclude=excluded)
            second = placement.replicas_for(key, exclude=excluded)
            assert first == second
            assert not set(first) & excluded


class TestCoordinatorDeterminism:
    #: (op, args) script exercising puts, a crash, writes-while-down
    #: (parked as hints), reads with repair, restart-with-replay, and a
    #: delete — every state transition the coordinator has.
    SCRIPT = [
        ("put", b"alpha", b"v1"),
        ("put", b"beta", b"v1"),
        ("crash", 0),
        ("put", b"alpha", b"v2"),
        ("put", b"gamma", b"v1"),
        ("get", b"alpha"),
        ("restart", 0),
        ("get", b"beta"),
        ("put", b"beta", b"v2"),
        ("delete", b"gamma"),
        ("get", b"alpha"),
    ]

    @staticmethod
    def _run_script(nodes):
        c = ReplicationCoordinator(
            list(nodes), memory_per_node_bytes=4 * MB, quorum=QuorumConfig(3, 2, 2)
        )
        trace = []
        for op, *args in TestCoordinatorDeterminism.SCRIPT:
            if op == "put":
                outcome = c.put(args[0], args[1])
                trace.append(("put", outcome.ok, outcome.acks, outcome.version))
            elif op == "get":
                item = c.get(args[0])
                trace.append(
                    ("get", None if item is None else (item.value, item.flags))
                )
            elif op == "crash":
                c.crash_node(sorted(c.node_names)[args[0]])
                trace.append(("crash", tuple(sorted(c.live_nodes))))
            elif op == "restart":
                replayed = c.restart_node(sorted(c.node_names)[args[0]])
                trace.append(("restart", replayed))
            elif op == "delete":
                trace.append(("delete", c.delete(args[0])))
        state = {
            name: [
                (item.key, item.value, item.flags)
                for item in store.items_live()
            ]
            for name, store in sorted(c.stores.items())
        }
        counters = (
            c.replica_writes,
            c.read_repairs,
            c.hints.queued,
            c.hints.replayed,
        )
        return trace, state, counters

    def test_double_run_is_bit_identical(self):
        nodes = [f"stack{i}:core0" for i in range(5)]
        first = self._run_script(nodes)
        second = self._run_script(nodes)
        assert first == second

    @given(nodes=stacked_nodes)
    @settings(max_examples=25, deadline=None)
    def test_determinism_holds_for_any_membership(self, nodes):
        assert self._run_script(nodes) == self._run_script(nodes)
