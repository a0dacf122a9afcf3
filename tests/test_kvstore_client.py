"""Tests for the cluster-aware client library, on both protocols."""

import pytest

from repro.errors import ConfigurationError
from repro.kvstore.client import FaultyNetwork, MemcachedClient, ResilientClient
from repro.replication.config import QuorumConfig
from repro.units import MB


def make_client(
    protocol: str, nodes: int = 4, cls: type[MemcachedClient] = MemcachedClient
) -> MemcachedClient:
    return cls(
        node_names=[f"mc{i}" for i in range(nodes)],
        memory_per_node_bytes=4 * MB,
        protocol=protocol,
    )


#: The plain client and the resilient one on each protocol; the
#: resilient client runs every verb through its retry loop.
CLIENTS = {
    "ascii": (MemcachedClient, "ascii"),
    "binary": (MemcachedClient, "binary"),
    "resilient-ascii": (ResilientClient, "ascii"),
    "resilient-binary": (ResilientClient, "binary"),
}


@pytest.fixture(params=list(CLIENTS))
def client(request) -> MemcachedClient:
    cls, protocol = CLIENTS[request.param]
    return make_client(protocol, cls=cls)


class TestCrudBothProtocols:
    def test_set_get_roundtrip(self, client):
        assert client.set(b"k", b"hello")
        result = client.get(b"k")
        assert result is not None
        assert result.value == b"hello"

    def test_get_missing(self, client):
        assert client.get(b"ghost") is None

    def test_add_replace_semantics(self, client):
        assert client.add(b"k", b"1")
        assert not client.add(b"k", b"2")
        assert client.replace(b"k", b"3")
        assert not client.replace(b"x", b"4")
        assert client.get(b"k").value == b"3"

    def test_delete(self, client):
        client.set(b"k", b"v")
        assert client.delete(b"k")
        assert not client.delete(b"k")
        assert client.get(b"k") is None

    def test_cas_cycle(self, client):
        client.set(b"k", b"old")
        cas = client.get(b"k").cas
        assert cas is not None
        assert client.cas(b"k", b"new", cas)
        assert not client.cas(b"k", b"stale", cas)
        assert client.get(b"k").value == b"new"

    def test_incr_decr(self, client):
        client.set(b"n", b"10")
        assert client.incr(b"n", 5) == 15
        assert client.decr(b"n", 100) == 0
        # ascii: NOT_FOUND; binary without initial: KEY_NOT_FOUND.
        assert client.incr(b"ghost", 1) is None

    def test_expiry_via_logical_time(self, client):
        client.set(b"k", b"v", expire=10)
        client.advance_time(11)
        assert client.get(b"k") is None

    def test_flush_all(self, client):
        for i in range(20):
            client.set(b"key-%d" % i, b"v")
        client.advance_time(0.001)
        client.flush_all()
        assert all(client.get(b"key-%d" % i) is None for i in range(20))

    def test_hit_rate(self, client):
        client.set(b"k", b"v")
        client.get(b"k")
        client.get(b"ghost")
        assert client.hit_rate() == pytest.approx(0.5)

    def test_get_many_skips_misses(self, client):
        keys = [b"key-%d" % i for i in range(12)]
        for key in keys:
            client.set(key, b"v-" + key)
        results = client.get_many(keys + [b"ghost"])
        assert {k: r.value for k, r in results.items()} == {
            k: b"v-" + k for k in keys
        }


class TestSharding:
    def test_keys_spread_over_nodes(self):
        client = make_client("ascii", nodes=8)
        for i in range(500):
            client.set(b"key-%d" % i, b"v")
        populated = sum(
            1 for name in client.ring.nodes if len(client._stores[name]) > 0
        )
        assert populated == 8

    def test_multi_get_batches_per_node(self):
        client = make_client("ascii", nodes=4)
        keys = [b"key-%d" % i for i in range(50)]
        for key in keys:
            client.set(key, b"v-" + key)
        results = client.get_many(keys + [b"missing-1", b"missing-2"])
        assert set(results) == set(keys)
        assert all(results[k].value == b"v-" + k for k in keys)

    def test_binary_multi_get(self):
        client = make_client("binary", nodes=2)
        client.set(b"a", b"1")
        client.set(b"b", b"2")
        results = client.get_many([b"a", b"b", b"c"])
        assert {k: r.value for k, r in results.items()} == {b"a": b"1", b"b": b"2"}

    def test_ascii_flags_roundtrip(self):
        client = make_client("ascii")
        client.set(b"k", b"v", flags=1234)
        assert client.get(b"k").flags == 1234


class TestValidation:
    def test_empty_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            MemcachedClient([], 4 * MB)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            MemcachedClient(["a"], 4 * MB, protocol="grpc")


@pytest.mark.parametrize("protocol", ["ascii", "binary"])
class TestResilientClientFaults:
    NODES = ["s0:c0", "s1:c0", "s2:c0", "s3:c0"]

    def make(self, protocol: str, **kwargs) -> ResilientClient:
        return ResilientClient(
            list(self.NODES), 4 * MB, protocol=protocol,
            network=FaultyNetwork(seed=7), **kwargs,
        )

    def test_flush_all_skips_a_crashed_node(self, protocol):
        client = self.make(protocol)
        keys = [b"key-%d" % i for i in range(40)]
        for key in keys:
            assert client.set(key, b"v")
        victim = client.node_for(keys[0])
        client.network.crash(victim)
        client.flush_all()
        assert client.timeouts == 1
        assert victim in client.ring.nodes  # one timeout: no failover yet
        for key in keys:
            owner = client.node_for(key)
            held = client._stores[owner].peek(key) is not None
            assert held == (owner == victim)

    def test_add_fails_over_as_set_does(self, protocol):
        adder, setter = self.make(protocol), self.make(protocol)
        victim = adder.node_for(b"k")
        for client in (adder, setter):
            client.network.crash(victim)
        assert adder.add(b"k", b"v")
        assert setter.set(b"k", b"v")
        for client in (adder, setter):
            assert victim not in client.ring.nodes
            assert client.failovers == 1 and client.giveups == 0
            owner = client.node_for(b"k")
            assert client._stores[owner].peek(b"k").value == b"v"
        assert (adder.timeouts, adder.retries, adder.clock_s) == (
            setter.timeouts, setter.retries, setter.clock_s
        )
        assert adder.node_for(b"k") == setter.node_for(b"k")

    def test_quorum_delete_clears_every_replica(self, protocol):
        client = self.make(protocol, quorum=QuorumConfig(3, 2, 2))
        assert client.set(b"k", b"v")
        replicas = client.placement.replicas_for(b"k")
        assert len(replicas) == 3
        assert all(client._stores[node].peek(b"k") for node in replicas)
        assert client.delete(b"k")
        assert all(client._stores[node].peek(b"k") is None for node in self.NODES)
        assert not client.delete(b"k")
