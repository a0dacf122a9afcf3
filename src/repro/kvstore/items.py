"""The stored item record and its memory accounting.

Memcached stores each key-value pair as an ``item`` struct: header
(pointers, timestamps, CAS id) + key + suffix + data.  The header overhead
matters because slab-class selection and density math both depend on the
*total* bytes an item occupies, not just its value length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.errors import StorageError

#: Bytes of per-item metadata: two LRU pointers, hash-chain pointer,
#: timestamps, refcount, flags, CAS id — matching the 64-bit memcached
#: item header plus the "\r\n" suffix stored with the data.
ITEM_OVERHEAD_BYTES = 56

_cas_counter = count(1)

#: Maximum key length accepted by memcached.
MAX_KEY_LENGTH = 250


@dataclass(slots=True)
class Item:
    """One stored key-value pair.

    Slotted to keep host memory per stored copy small: a full store
    holds one per copy.
    """

    key: bytes
    value: bytes
    flags: int = 0
    expire_at: float = 0.0  # absolute logical time; 0 = never
    cas: int = field(default_factory=lambda: next(_cas_counter))
    stored_at: float = 0.0
    last_access: float = 0.0
    #: Store-assigned monotone sequence number; orders items against
    #: ``flush_all`` boundaries even within one logical-clock instant.
    seq: int = 0
    #: Slab class the store allocated this item into (-1 until stored).
    #: Cached so the GET path can skip the size→class lookup; the class
    #: is fixed for an item's lifetime because its size never changes.
    slab_class: int = -1

    def __post_init__(self) -> None:
        if not self.key:
            raise StorageError("item key cannot be empty")
        if len(self.key) > MAX_KEY_LENGTH:
            raise StorageError(
                f"key length {len(self.key)} exceeds memcached limit {MAX_KEY_LENGTH}"
            )
        if b" " in self.key or b"\r" in self.key or b"\n" in self.key:
            raise StorageError("keys cannot contain whitespace or CR/LF")

    @property
    def total_bytes(self) -> int:
        """Bytes this item occupies in a slab chunk."""
        return ITEM_OVERHEAD_BYTES + len(self.key) + len(self.value)

    def is_expired(self, now: float) -> bool:
        """Whether the item has passed its expiry at logical time ``now``."""
        return self.expire_at != 0.0 and now >= self.expire_at

    def bump_cas(self) -> None:
        """Assign a fresh CAS id after a mutation."""
        self.cas = next(_cas_counter)
