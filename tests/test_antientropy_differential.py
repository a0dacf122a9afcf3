"""Differential test: the anti-entropy sweep against its reference.

:class:`ReferenceSweeper` keeps the sweep as it was before the sweeper
memoised each key's (group, bucket) cell and digest term: the group
looked up per key on every sweep, each store's live items read key-sorted,
and one digest and contents dict per cell.  Two coordinators replay the
same hypothesis-drawn operation script, then each runs three consecutive
sweeps (so the new sweeper's memo is reused, and invalidated when the
ring changes between sweeps).  Every :class:`SweepReport`, every
anti-entropy counter and every stored copy must come out identical.

Expiry times stay integral and under memcached's 30-day boundary, so the
reference's TTL hand-off (``expire_at - now``) lands on the same
absolute expiry as ``set_absolute``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.hashing import fnv1a_32
from repro.kvstore.items import Item
from repro.replication.antientropy import AntiEntropySweeper, SweepReport
from repro.replication.config import QuorumConfig
from repro.replication.coordinator import ReplicationCoordinator
from repro.telemetry.metrics import MetricsRegistry
from repro.units import MB

NODES = [f"stack{i}:core0" for i in range(5)]
KEYS = [b"key-%d" % i for i in range(24)]


class ReferenceSweeper(AntiEntropySweeper):
    """The sweep before per-key memos; the body is the old code, verbatim."""

    def _bucket_of(self, key: bytes) -> int:
        return fnv1a_32(key) % self.buckets

    def sweep(self) -> SweepReport:
        live = list(self.coordinator.live_nodes)
        repairs = 0
        compared = 0
        truncated = False
        repairs_by_node: dict[str, int] = {}
        bytes_by_node: dict[str, int] = {}
        group_of: dict[bytes, tuple[str, ...]] = {}
        # (group, bucket) -> node -> digest / items held there.
        digests: dict[tuple, dict[str, int]] = {}
        contents: dict[tuple, dict[str, list[Item]]] = {}
        for node in live:
            for item in self.coordinator.stores[node].items_live():
                group = group_of.get(item.key)
                if group is None:
                    group = self.coordinator.placement.replicas_for(item.key)
                    group_of[item.key] = group
                if node not in group:
                    continue  # a leftover copy placement no longer maps here
                cell = (group, self._bucket_of(item.key))
                fold = (
                    fnv1a_32(item.key) * 2_654_435_761 + item.flags
                ) & 0xFFFFFFFFFFFFFFFF
                per = digests.setdefault(cell, {})
                per[node] = (per.get(node, 0) + fold) & 0xFFFFFFFFFFFFFFFF
                contents.setdefault(cell, {}).setdefault(node, []).append(item)
        scanned = len(digests)
        dirty = 0
        for cell in sorted(digests, key=lambda c: (c[0], c[1])):
            group, _bucket = cell
            members = [n for n in group if not self.coordinator.node_is_down(n)]
            if len(members) < 2:
                continue  # nobody to reconverge with
            if len({digests[cell].get(n, 0) for n in members}) <= 1:
                continue  # all live members agree on this bucket
            dirty += 1
            self._dirty_total.inc()
            # Newest version of every key any live member holds here.
            newest: dict[bytes, Item] = {}
            holders: dict[bytes, dict[str, int]] = {}
            for node in members:
                for item in contents[cell].get(node, ()):
                    compared += 1
                    holders.setdefault(item.key, {})[node] = item.flags
                    best = newest.get(item.key)
                    if best is None or item.flags > best.flags:
                        newest[item.key] = item
            for key in sorted(newest):
                winner = newest[key]
                for node in members:
                    have = holders.get(key, {}).get(node)
                    if have is not None and have >= winner.flags:
                        continue
                    if repairs >= self.max_repairs_per_sweep:
                        truncated = True
                        break
                    store = self.coordinator.stores[node]
                    ttl = (
                        max(winner.expire_at - store.now, 0.0)
                        if winner.expire_at
                        else 0.0
                    )
                    store.set(key, winner.value, flags=winner.flags, expire=ttl)
                    repairs += 1
                    repairs_by_node[node] = repairs_by_node.get(node, 0) + 1
                    bytes_by_node[node] = bytes_by_node.get(node, 0) + len(
                        winner.value
                    )
                if truncated:
                    break
            if truncated:
                break
        self.sweeps += 1
        self.total_repairs += repairs
        self._sweeps_total.inc()
        self._repairs_total.inc(repairs)
        return SweepReport(
            buckets_scanned=scanned,
            buckets_dirty=dirty,
            keys_compared=compared,
            repairs=repairs,
            truncated=truncated,
            repairs_by_node=repairs_by_node,
            bytes_by_node=bytes_by_node,
        )


key_index = st.integers(min_value=0, max_value=len(KEYS) - 1)
node_index = st.integers(min_value=0, max_value=len(NODES) - 1)

operations = st.one_of(
    # A versioned quorum write, optionally with a TTL.
    st.tuples(
        st.just("put"), key_index, st.integers(0, 3), st.sampled_from([0, 5, 20])
    ),
    st.tuples(st.just("delete"), key_index),
    # A copy overwritten behind the coordinator's back with an older
    # version than the newest it issued.
    st.tuples(st.just("stale"), key_index, node_index, st.integers(1, 3)),
    st.tuples(st.just("crash"), node_index),
    st.tuples(st.just("restart"), node_index),  # cold, plus hint replay
    st.tuples(st.just("tick"), st.sampled_from([1, 10])),
    st.tuples(st.just("flush"), node_index),
    st.tuples(st.just("get"), key_index),  # quorum read, with read repair
    # Toggle a node's ring membership: its copies fall outside their
    # groups, and placement moves under the sweeper's memo.
    st.tuples(st.just("ring"), node_index),
)


def toggle_ring(c: ReplicationCoordinator, node: str) -> None:
    if node not in c.ring.nodes:
        c.ring.add_node(node)
    elif len(c.ring) > 3:
        c.ring.remove_node(node)


def apply(c: ReplicationCoordinator, op: tuple) -> None:
    kind = op[0]
    if kind == "put":
        _, key, value, expire = op
        c.put(KEYS[key], b"value-%d" % value, expire=expire)
    elif kind == "delete":
        c.delete(KEYS[op[1]])
    elif kind == "stale":
        _, key, node, age = op
        c.stores[NODES[node]].set(
            KEYS[key], b"stale", flags=max(c.current_version - age, 0)
        )
    elif kind == "crash":
        node = NODES[op[1]]
        if not c.node_is_down(node) and len(c.live_nodes) > 1:
            c.crash_node(node)
    elif kind == "restart":
        node = NODES[op[1]]
        if c.node_is_down(node):
            c.restart_node(node)
    elif kind == "tick":
        c.advance_time(op[1])
    elif kind == "flush":
        c.stores[NODES[op[1]]].flush_all()
    elif kind == "get":
        c.get(KEYS[op[1]])
    else:
        toggle_ring(c, NODES[op[1]])


def stored(c: ReplicationCoordinator) -> dict[str, list[tuple]]:
    """Every table entry of every store, dead ones included."""
    return {
        name: sorted(
            (item.key, item.value, item.flags, item.expire_at)
            for item in store.table
        )
        for name, store in c.stores.items()
    }


def counters(registry: MetricsRegistry) -> dict[str, float]:
    return {
        m.name: m.value
        for m in registry
        if m.name.startswith("replication_antientropy_")
    }


@given(
    script=st.lists(operations, max_size=40),
    buckets=st.sampled_from([1, 4, 64]),
    cap=st.integers(min_value=1, max_value=30),
    ring_change=st.one_of(st.none(), node_index),
)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_reference(script, buckets, cap, ring_change):
    sides = []
    for sweeper_class in (ReferenceSweeper, AntiEntropySweeper):
        c = ReplicationCoordinator(
            list(NODES), memory_per_node_bytes=1 * MB, quorum=QuorumConfig(3, 2, 2)
        )
        for key in KEYS:
            c.put(key, b"initial")
        for op in script:
            apply(c, op)
        registry = MetricsRegistry()
        sweeper = sweeper_class(
            c, buckets=buckets, max_repairs_per_sweep=cap, registry=registry
        )
        sides.append((c, sweeper, registry))
    (ref_c, ref, ref_registry), (new_c, new, new_registry) = sides
    for sweep in range(3):
        if sweep == 2 and ring_change is not None:
            toggle_ring(ref_c, NODES[ring_change])
            toggle_ring(new_c, NODES[ring_change])
        assert new.sweep() == ref.sweep()
    assert counters(new_registry) == counters(ref_registry)
    assert stored(new_c) == stored(ref_c)
