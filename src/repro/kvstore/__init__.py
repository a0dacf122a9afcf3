"""A functional Memcached implementation: the key-value store substrate.

This subpackage implements the data-plane of Memcached 1.4 faithfully
enough that the instruction-cost parameters of the latency model
correspond to operations this code actually performs: jenkins/FNV key
hashing, a chained hash table with incremental rehash, a slab allocator
with a 1.25 growth factor, per-class LRU (plus the Bags pseudo-LRU of
Memcached 1.6 experiments), TTL/CAS semantics, the ASCII protocol, and a
consistent-hash cluster client.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.kvstore.items": ("Item", "ITEM_OVERHEAD_BYTES"),
    "repro.kvstore.hashing": ("fnv1a_32", "jenkins_oaat", "hash_key"),
    "repro.kvstore.hash_table": ("HashTable",),
    "repro.kvstore.slab": ("SlabAllocator", "SlabClass"),
    "repro.kvstore.lru": ("LruList", "BagLru"),
    "repro.kvstore.locks": ("LockContentionModel", "StripedLocks"),
    "repro.kvstore.store": ("KVStore", "StoreResult"),
    "repro.kvstore.protocol": (
        "Command",
        "Response",
        "parse_command",
        "render_command",
        "render_response",
        "parse_response",
    ),
    "repro.kvstore.consistent_hash": ("ConsistentHashRing",),
    "repro.kvstore.cluster": ("MemcachedCluster",),
    "repro.kvstore.server_loop": ("MemcachedServer", "Connection"),
    "repro.kvstore.binary_protocol": (
        "BinaryServer",
        "BinaryMessage",
        "Opcode",
        "Status",
    ),
    "repro.kvstore.client": ("MemcachedClient", "GetResult"),
    "repro.kvstore.udp_server": ("UdpMemcachedServer", "UdpFrame"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
