"""Eviction policies: strict LRU and the 'Bags' pseudo-LRU.

Memcached 1.4 keeps one strict LRU list per slab class; every GET moves
the item to the head under the global cache lock, which is the scalability
bottleneck Wiggins & Langston identified.  Their fix (adopted for the
'Bags' baseline in Table 4) replaces the list with coarse age *bags*:
GETs only stamp the access time, and eviction scans the oldest bag — no
list surgery on the hot path.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import StorageError
from repro.kvstore.items import Item


class LruList:
    """A strict LRU list (one per slab class in 1.4).

    An ``OrderedDict`` from key to item, least recently used first: a
    touch is ``move_to_end`` and an eviction ``popitem(last=False)``,
    both O(1) list surgery done in C.
    """

    def __init__(self) -> None:
        self._items: OrderedDict[bytes, Item] = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: bytes) -> bool:
        return key in self._items

    def insert(self, item: Item) -> None:
        """Add a new item at the MRU position."""
        if item.key in self._items:
            raise StorageError(f"key {item.key!r} already on the LRU list")
        self._items[item.key] = item

    def touch(self, key: bytes) -> None:
        """Move an item to the MRU position (the GET hot path in 1.4)."""
        try:
            self._items.move_to_end(key)
        except KeyError:
            raise StorageError(f"key {key!r} not on the LRU list") from None

    def remove(self, key: bytes) -> Item:
        """Unlink an item (delete / eviction bookkeeping)."""
        item = self._items.pop(key, None)
        if item is None:
            raise StorageError(f"key {key!r} not on the LRU list")
        return item

    def victim(self) -> Item | None:
        """The LRU item (eviction candidate), without removing it."""
        return next(iter(self._items.values()), None)

    def pop_victim(self) -> Item | None:
        """Remove and return the LRU item."""
        if not self._items:
            return None
        return self._items.popitem(last=False)[1]

    def keys_mru_order(self) -> list[bytes]:
        """All keys, most-recent first (test introspection)."""
        return list(reversed(self._items))


class BagLru:
    """The 'Bags' pseudo-LRU of Wiggins & Langston (Memcached 1.6 work).

    Items are appended to the newest bag; a GET merely updates the item's
    ``last_access`` stamp.  When the newest bag reaches ``bag_capacity`` a
    fresh bag is opened.  Eviction pops from the oldest bag, skipping (and
    re-filing) items whose stamp shows they were touched since being
    bagged — an approximation of LRU without hot-path list surgery.
    """

    def __init__(self, bag_capacity: int = 1024):
        if bag_capacity <= 0:
            raise StorageError("bag capacity must be positive")
        self.bag_capacity = bag_capacity
        self._bags: list[list[Item]] = [[]]
        self._bagged_at: dict[bytes, float] = {}
        self._live: dict[bytes, Item] = {}

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, key: bytes) -> bool:
        return key in self._live

    @property
    def bag_count(self) -> int:
        return len(self._bags)

    def insert(self, item: Item) -> None:
        if item.key in self._live:
            raise StorageError(f"key {item.key!r} already bagged")
        self._live[item.key] = item
        self._file(item)

    def _file(self, item: Item) -> None:
        if len(self._bags[-1]) >= self.bag_capacity:
            self._bags.append([])
        self._bags[-1].append(item)
        self._bagged_at[item.key] = item.last_access

    def touch(self, key: bytes) -> None:
        """No list movement — the cheapness that makes Bags scale."""
        if key not in self._live:
            raise StorageError(f"key {key!r} not bagged")
        # last_access is stamped by the store; nothing to do here.

    def remove(self, key: bytes) -> Item:
        item = self._live.pop(key, None)
        if item is None:
            raise StorageError(f"key {key!r} not bagged")
        self._bagged_at.pop(key, None)
        # The stale bag entry is left behind and skipped lazily.
        return item

    def pop_victim(self) -> Item | None:
        """Evict from the oldest bag, re-filing recently-touched items."""
        while self._bags:
            bag = self._bags[0]
            while bag:
                item = bag.pop(0)
                if item.key not in self._live:
                    continue  # deleted since bagging; skip the tombstone
                if item.last_access > self._bagged_at.get(item.key, 0.0):
                    self._file(item)  # touched since bagging: give it a pass
                    continue
                del self._live[item.key]
                self._bagged_at.pop(item.key, None)
                return item
            if len(self._bags) == 1:
                return None
            self._bags.pop(0)
        return None
