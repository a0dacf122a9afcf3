"""Chained hash table with incremental rehash, after memcached's assoc.c.

Memcached keeps items in a power-of-two bucket array of singly-linked
chains.  When the load factor passes 1.5 the table doubles and items are
migrated *incrementally* (a few buckets per operation) so that no single
request pays the full rehash cost — the behaviour that keeps tail latency
bounded and that our DES inherits.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from repro.errors import StorageError
from repro.kvstore.hashing import digest_cache, hash_key
from repro.kvstore.items import Item

_GROW_LOAD_FACTOR = 1.5
_MIGRATE_BUCKETS_PER_OP = 4


class HashTable:
    """A chained hash table keyed by item key bytes."""

    def __init__(self, initial_power: int = 4):
        if initial_power < 1 or initial_power > 30:
            raise StorageError("initial_power must be in [1, 30]")
        self._digests = digest_cache()
        self._power = initial_power
        self._buckets: list[list[Item]] = [[] for _ in range(1 << initial_power)]
        self._old_buckets: list[list[Item]] | None = None
        self._migrate_index = 0
        self._count = 0
        self.expansions = 0

    # --- sizing ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def load_factor(self) -> float:
        return self._count / self.bucket_count

    @property
    def rehashing(self) -> bool:
        return self._old_buckets is not None

    # --- primitive ops -----------------------------------------------------------

    def _bucket_for(self, key: bytes) -> list[Item]:
        digest = self._digests.get(key)
        if digest is None:
            digest = hash_key(key)
        if self._old_buckets is not None:
            old_index = digest & (len(self._old_buckets) - 1)
            if old_index >= self._migrate_index:
                return self._old_buckets[old_index]
        return self._buckets[digest & (len(self._buckets) - 1)]

    def find(self, key: bytes) -> Item | None:
        """Return the item for ``key``, or None.  Advances migration."""
        if self._old_buckets is not None:
            self._migrate_some()
            bucket = self._bucket_for(key)
        else:
            # Steady-state fast path: memoised digest, direct mask.
            digest = self._digests.get(key)
            if digest is None:
                digest = hash_key(key)
            buckets = self._buckets
            bucket = buckets[digest & (len(buckets) - 1)]
        for item in bucket:
            if item.key == key:
                return item
        return None

    def find_many(self, keys) -> list["Item | None"]:
        """Batch lookup: one incremental-migration step for the whole
        batch, then raw chain scans per key.

        A batch of N gets advances rehash migration once instead of N
        times — the per-op amortised cost the batched read path claims.
        Visible contents are unaffected (migration never changes what a
        lookup returns, only which bucket array holds it), so results
        match N serial :meth:`find` calls item for item.
        """
        if self._old_buckets is not None:
            self._migrate_some()
        results: list[Item | None] = []
        for key in keys:
            found = None
            for item in self._bucket_for(key):
                if item.key == key:
                    found = item
                    break
            results.append(found)
        return results

    def insert(self, item: Item) -> None:
        """Insert an item; the key must not already be present."""
        if self._old_buckets is not None:
            self._migrate_some()
        bucket = self._bucket_for(item.key)
        for existing in bucket:
            if existing.key == item.key:
                raise StorageError(f"duplicate insert for key {item.key!r}")
        bucket.append(item)
        self._count += 1
        self._maybe_grow()

    def remove(self, key: bytes) -> Item | None:
        """Remove and return the item for ``key``, or None."""
        if self._old_buckets is not None:
            self._migrate_some()
        bucket = self._bucket_for(key)
        for index, item in enumerate(bucket):
            if item.key == key:
                bucket.pop(index)
                self._count -= 1
                return item
        return None

    def replace(self, item: Item) -> Item | None:
        """Insert, replacing any existing item; returns the old one."""
        old = self.remove(item.key)
        self.insert(item)
        return old

    def __contains__(self, key: bytes) -> bool:
        return self.find(key) is not None

    def _chains(self) -> list[list[Item]]:
        """The chains in iteration order: unmigrated old buckets first."""
        if self._old_buckets is None:
            return self._buckets
        return self._old_buckets[self._migrate_index :] + self._buckets

    def __iter__(self) -> Iterator[Item]:
        return chain.from_iterable(self._chains())

    def items(self) -> list[Item]:
        """Every item, in iteration order, as a new list."""
        return list(chain.from_iterable(self._chains()))

    def chain_lengths(self) -> list[int]:
        """All live chain lengths (distribution checks in tests)."""
        lengths = [len(b) for b in self._buckets]
        if self._old_buckets is not None:
            lengths.extend(
                len(self._old_buckets[i])
                for i in range(self._migrate_index, len(self._old_buckets))
            )
        return lengths

    # --- growth / incremental migration ---------------------------------------------

    def _maybe_grow(self) -> None:
        if self.rehashing or self.load_factor <= _GROW_LOAD_FACTOR:
            return
        if self._power >= 30:
            return
        self._old_buckets = self._buckets
        self._power += 1
        self._buckets = [[] for _ in range(1 << self._power)]
        self._migrate_index = 0
        self.expansions += 1

    def _migrate_some(self, buckets: int = _MIGRATE_BUCKETS_PER_OP) -> None:
        if self._old_buckets is None:
            return
        new_mask = len(self._buckets) - 1
        migrated = 0
        while migrated < buckets and self._migrate_index < len(self._old_buckets):
            for item in self._old_buckets[self._migrate_index]:
                digest = hash_key(item.key)
                self._buckets[digest & new_mask].append(item)
            self._old_buckets[self._migrate_index] = []
            self._migrate_index += 1
            migrated += 1
        if self._migrate_index >= len(self._old_buckets):
            self._old_buckets = None
            self._migrate_index = 0

    def finish_rehash(self) -> None:
        """Drain any in-progress migration (tests, shutdown paths)."""
        while self.rehashing:
            self._migrate_some(buckets=64)
