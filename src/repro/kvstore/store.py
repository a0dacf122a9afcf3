"""The key-value store engine: hash table + slabs + eviction + TTL + CAS.

This is a functional Memcached 1.4-class data plane.  Time is logical
(callers advance it), so the store is fully deterministic under test and
under the discrete-event simulator, where simulated time is the clock.

Eviction policy is per slab class, matching memcached: when an allocation
fails, up to 50 LRU victims *from the same class* are evicted before
giving up (memcached never steals pages across classes in 1.4).
``policy="bags"`` swaps in the pseudo-LRU used by the Bags baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

from repro.errors import CapacityError, ConfigurationError, StorageError
from repro.kvstore.hash_table import HashTable
from repro.kvstore.items import Item
from repro.kvstore.lru import BagLru, LruList
from repro.kvstore.slab import SlabAllocator

_THIRTY_DAYS = 30 * 24 * 3600.0
_EVICTION_ATTEMPTS = 50


class StoreResult(Enum):
    """Outcome codes mirroring the memcached protocol's responses."""

    STORED = "STORED"
    NOT_STORED = "NOT_STORED"
    EXISTS = "EXISTS"
    NOT_FOUND = "NOT_FOUND"
    DELETED = "DELETED"
    TOUCHED = "TOUCHED"
    OUT_OF_MEMORY = "SERVER_ERROR out of memory storing object"


@dataclass
class StoreStats:
    """Counters equivalent to the interesting rows of ``stats``."""

    cmd_get: int = 0
    cmd_set: int = 0
    get_hits: int = 0
    get_misses: int = 0
    delete_hits: int = 0
    delete_misses: int = 0
    evictions: int = 0
    expired_unfetched: int = 0
    total_items: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def hit_rate(self) -> float:
        if self.cmd_get == 0:
            return 0.0
        return self.get_hits / self.cmd_get


class KVStore:
    """A single Memcached node's storage engine."""

    def __init__(self, memory_limit_bytes: int, policy: str = "lru"):
        if policy not in ("lru", "bags"):
            raise ConfigurationError(f"unknown eviction policy {policy!r}")
        self.policy = policy
        self.slabs = SlabAllocator(memory_limit_bytes)
        self.table = HashTable()
        self._lru: dict[int, LruList | BagLru] = {}
        self.stats = StoreStats()
        self.now = 0.0
        self._seq = 0
        self._flush_seq = 0

    # --- time ------------------------------------------------------------------

    def advance_time(self, delta: float) -> None:
        """Advance the logical clock (TTL expiry reference)."""
        if delta < 0:
            raise ConfigurationError("time cannot go backwards")
        self.now += delta

    def absolute_expiry(self, expire: float) -> float:
        """Memcached's convention: small values are relative seconds,
        values beyond 30 days are an absolute timestamp, 0 = never."""
        if expire == 0:
            return 0.0
        if expire < 0:
            # Negative TTL means "immediately expired" in memcached.  Any
            # negative stamp is in the past at every clock value (0.0 is
            # reserved for "never expires").
            return -1.0
        if expire <= _THIRTY_DAYS:
            return self.now + expire
        return float(expire)

    # --- internals -----------------------------------------------------------------

    def _lru_for(self, class_id: int) -> LruList | BagLru:
        lru = self._lru.get(class_id)
        if lru is None:
            lru = LruList() if self.policy == "lru" else BagLru()
            self._lru[class_id] = lru
        return lru

    def _is_dead(self, item: Item) -> bool:
        return item.is_expired(self.now) or item.seq <= self._flush_seq

    def _unlink(self, item: Item) -> None:
        """Remove an item from table, LRU, and slab accounting."""
        self.table.remove(item.key)
        class_id = item.slab_class
        if class_id < 0:
            class_id = self.slabs.class_for(item.total_bytes).class_id
        self._lru_for(class_id).remove(item.key)
        self.slabs.free(item.total_bytes)

    def _lookup_live(self, key: bytes) -> Item | None:
        """Find a key, lazily reaping it if expired or flushed.

        The liveness test is :meth:`_is_dead` spelled out inline — this
        sits under every GET and conditional mutation, and the extra
        call frames were visible in full-system profiles.
        """
        item = self.table.find(key)
        if item is None:
            return None
        expire_at = item.expire_at
        if (expire_at != 0.0 and self.now >= expire_at) or item.seq <= self._flush_seq:
            self._unlink(item)
            self.stats.expired_unfetched += 1
            return None
        return item

    def _allocate_with_eviction(self, item_bytes: int) -> int:
        """Allocate a chunk, evicting same-class LRU victims if needed.

        Returns the slab class id.

        Raises:
            CapacityError: if eviction cannot free a chunk (e.g. the class
                has no items and the global budget is exhausted).
        """
        slabs = self.slabs
        slab_class = slabs.class_for(item_bytes)
        # Test for room before allocating: on a full store nearly every
        # set evicts, so a CapacityError is built only when no victim is
        # left, not raised and caught on the way to each eviction.
        for _attempt in range(_EVICTION_ATTEMPTS):
            if slabs.has_room(slab_class):
                break
            victim = self._lru_for(slab_class.class_id).pop_victim()
            if victim is None:
                break  # nothing left to evict: allocate() raises
            self.table.remove(victim.key)
            slabs.free(victim.total_bytes)
            if not self._is_dead(victim):
                self.stats.evictions += 1
        return slabs.allocate(item_bytes).class_id

    # --- protocol verbs ---------------------------------------------------------------

    def set(self, key: bytes, value: bytes, flags: int = 0, expire: float = 0) -> StoreResult:
        """Unconditional store (PUT).

        Allocation (with same-class eviction) happens *before* the old
        version is unlinked, so a failed store leaves the previous value
        intact — memcached's behaviour when a slab class is starved, which
        surfaces as ``SERVER_ERROR`` rather than an exception.
        """
        self.stats.cmd_set += 1
        self._seq += 1
        item = Item(
            key=key,
            value=value,
            flags=flags,
            expire_at=self.absolute_expiry(expire),
            stored_at=self.now,
            last_access=self.now,
            seq=self._seq,
        )
        try:
            class_id = self._allocate_with_eviction(item.total_bytes)
        except CapacityError:
            return StoreResult.OUT_OF_MEMORY
        item.slab_class = class_id
        # Re-find after eviction: the old version may itself have been the
        # eviction victim.
        existing = self.table.find(key)
        if existing is not None:
            self._unlink(existing)
        self.table.insert(item)
        self._lru_for(class_id).insert(item)
        self.stats.total_items += 1
        self.stats.bytes_written += len(value)
        return StoreResult.STORED

    def set_absolute(
        self, key: bytes, value: bytes, flags: int = 0, expire_at: float = 0.0
    ) -> StoreResult:
        """:meth:`set` with an absolute expiry (logical time; 0 = never).

        For copies of an existing item (replica repair, hint replay,
        append/incr): handing its remaining life to :meth:`set` as a TTL
        would read anything beyond 30 days as an absolute timestamp.
        """
        result = self.set(key, value, flags)
        if expire_at and result is StoreResult.STORED:
            stored = self.table.find(key)
            assert stored is not None
            stored.expire_at = expire_at
        return result

    def add(self, key: bytes, value: bytes, flags: int = 0, expire: float = 0) -> StoreResult:
        """Store only if the key does not exist."""
        if self._lookup_live(key) is not None:
            self.stats.cmd_set += 1
            return StoreResult.NOT_STORED
        return self.set(key, value, flags, expire)

    def replace(self, key: bytes, value: bytes, flags: int = 0, expire: float = 0) -> StoreResult:
        """Store only if the key already exists."""
        if self._lookup_live(key) is None:
            self.stats.cmd_set += 1
            return StoreResult.NOT_STORED
        return self.set(key, value, flags, expire)

    def cas(
        self, key: bytes, value: bytes, cas: int, flags: int = 0, expire: float = 0
    ) -> StoreResult:
        """Compare-and-swap against a CAS id from ``gets``."""
        existing = self._lookup_live(key)
        self.stats.cmd_set += 1
        if existing is None:
            return StoreResult.NOT_FOUND
        if existing.cas != cas:
            return StoreResult.EXISTS
        self.stats.cmd_set -= 1  # the inner set() recounts it
        return self.set(key, value, flags, expire)

    def append(self, key: bytes, suffix: bytes) -> StoreResult:
        """Append bytes to an existing value (memcached ``append``)."""
        return self._concat(key, suffix, prepend=False)

    def prepend(self, key: bytes, prefix: bytes) -> StoreResult:
        """Prepend bytes to an existing value (memcached ``prepend``)."""
        return self._concat(key, prefix, prepend=True)

    def _concat(self, key: bytes, extra: bytes, prepend: bool) -> StoreResult:
        item = self._lookup_live(key)
        self.stats.cmd_set += 1
        if item is None:
            return StoreResult.NOT_STORED
        new_value = extra + item.value if prepend else item.value + extra
        self.stats.cmd_set -= 1  # the inner set() recounts it
        return self.set_absolute(key, new_value, item.flags, item.expire_at)

    def get(self, key: bytes) -> Item | None:
        """Fetch an item (GET), updating LRU recency.

        The liveness check mirrors :meth:`_lookup_live` inline and the
        slab class comes from the item's cached allocation — this is the
        hottest store entry point in full-system runs, where every saved
        call frame is measurable.
        """
        stats = self.stats
        stats.cmd_get += 1
        item = self.table.find(key)
        if item is not None:
            expire_at = item.expire_at
            if (expire_at != 0.0 and self.now >= expire_at) or item.seq <= self._flush_seq:
                self._unlink(item)
                stats.expired_unfetched += 1
                item = None
        if item is None:
            stats.get_misses += 1
            return None
        stats.get_hits += 1
        stats.bytes_read += len(item.value)
        item.last_access = self.now
        class_id = item.slab_class
        if class_id < 0:
            class_id = self.slabs.class_for(item.total_bytes).class_id
        self._lru[class_id].touch(key)
        return item

    def get_many(self, keys) -> list[Item | None]:
        """Batched GET: one table-migration step, then per-key resolution.

        Stats, lazy reaping, and LRU recency are charged per key exactly
        as :meth:`get` would — a batch of N gets leaves the store in the
        same visible state (contents *and* counters) as N serial gets,
        which the differential batching suite relies on.  Duplicate keys
        in one batch behave serially too: if the first occurrence reaps
        an expired item, later occurrences miss without double-reaping.
        """
        found = self.table.find_many(keys)
        reaped: set[bytes] = set()
        results: list[Item | None] = []
        for key, item in zip(keys, found):
            self.stats.cmd_get += 1
            if key in reaped:
                item = None
            elif item is not None and self._is_dead(item):
                self._unlink(item)
                self.stats.expired_unfetched += 1
                reaped.add(key)
                item = None
            if item is None:
                self.stats.get_misses += 1
                results.append(None)
                continue
            self.stats.get_hits += 1
            self.stats.bytes_read += len(item.value)
            item.last_access = self.now
            class_id = item.slab_class
            if class_id < 0:
                class_id = self.slabs.class_for(item.total_bytes).class_id
            self._lru[class_id].touch(key)
            results.append(item)
        return results

    def gets(self, key: bytes) -> Item | None:
        """GET variant that callers use to obtain the CAS id."""
        return self.get(key)

    def delete(self, key: bytes) -> StoreResult:
        item = self._lookup_live(key)
        if item is None:
            self.stats.delete_misses += 1
            return StoreResult.NOT_FOUND
        self._unlink(item)
        self.stats.delete_hits += 1
        return StoreResult.DELETED

    def touch(self, key: bytes, expire: float) -> StoreResult:
        item = self._lookup_live(key)
        if item is None:
            return StoreResult.NOT_FOUND
        item.expire_at = self.absolute_expiry(expire)
        return StoreResult.TOUCHED

    def incr(self, key: bytes, delta: int) -> int | None:
        """Increment a decimal-ASCII counter value; None if missing.

        Raises:
            StorageError: if the stored value is not a decimal number.
        """
        return self._arith(key, delta)

    def decr(self, key: bytes, delta: int) -> int | None:
        """Decrement (floored at zero, as memcached does)."""
        return self._arith(key, -delta)

    def _arith(self, key: bytes, delta: int) -> int | None:
        item = self._lookup_live(key)
        if item is None:
            return None
        try:
            current = int(item.value)
        except ValueError:
            raise StorageError(
                "cannot increment or decrement non-numeric value"
            ) from None
        # Counters are 64-bit unsigned: incr wraps at 2^64 (and decr
        # floors at zero), exactly as memcached does.  Without the wrap
        # a counter at 2^64-1 overflows struct.pack(">Q") in the binary
        # protocol's response encoder.
        new_value = max(0, current + delta) % (1 << 64)
        encoded = str(new_value).encode()
        # Re-store through set() so slab accounting tracks any size change.
        self.set_absolute(key, encoded, item.flags, item.expire_at)
        return new_value

    def flush_all(self) -> None:
        """Invalidate everything stored so far (lazy, like memcached).

        Sequence-based: items stored before this call die; stores made
        after it — even at the same logical-clock instant — survive.
        """
        self._flush_seq = self._seq

    # --- introspection -----------------------------------------------------------------

    def __len__(self) -> int:
        """Number of table entries, including not-yet-reaped dead items."""
        return len(self.table)

    def peek(self, key: bytes) -> Item | None:
        """Side-effect-free lookup: no stats, no LRU recency bump.

        Replication's read-repair and anti-entropy sweeps compare
        replicas through this so that inspecting a store never perturbs
        its hit-rate accounting or eviction order.
        """
        item = self.table.find(key)
        if item is None or self._is_dead(item):
            return None
        return item

    def iter_live(self) -> list[Item]:
        """The live items in table order (anti-entropy's view).

        Dead (expired/flushed) entries are skipped but *not* reaped, so
        the scan is read-only with respect to store state.  The liveness
        test is :meth:`_is_dead` spelled out inline: a sweep visits every
        copy in the store.
        """
        now = self.now
        flush_seq = self._flush_seq
        return [
            item
            for item in self.table.items()
            if not (
                (item.expire_at != 0.0 and now >= item.expire_at)
                or item.seq <= flush_seq
            )
        ]

    def items_live(self) -> list[Item]:
        """Key-sorted snapshot of :meth:`iter_live`."""
        return sorted(self.iter_live(), key=attrgetter("key"))

    @property
    def live_bytes(self) -> int:
        """Value bytes of items currently in the table (incl. unreaped)."""
        return sum(len(item.value) for item in self.table)

    def check_invariants(self) -> None:
        """Cross-structure consistency; used by property-based tests."""
        self.slabs.check_invariants()
        used_chunks = sum(c.used_chunks for c in self.slabs.classes)
        if used_chunks != len(self.table):
            raise StorageError(
                f"slab chunks in use ({used_chunks}) != table items ({len(self.table)})"
            )
        lru_total = sum(len(lru) for lru in self._lru.values())
        if lru_total != len(self.table):
            raise StorageError(
                f"LRU population ({lru_total}) != table items ({len(self.table)})"
            )
