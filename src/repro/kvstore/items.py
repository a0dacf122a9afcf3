"""The stored item record and its memory accounting.

Memcached stores each key-value pair as an ``item`` struct: header
(pointers, timestamps, CAS id) + key + suffix + data.  The header overhead
matters because slab-class selection and density math both depend on the
*total* bytes an item occupies, not just its value length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from repro.errors import StorageError

#: Bytes of per-item metadata: two LRU pointers, hash-chain pointer,
#: timestamps, refcount, flags, CAS id — matching the 64-bit memcached
#: item header plus the "\r\n" suffix stored with the data.
ITEM_OVERHEAD_BYTES = 56

_cas_counter = count(1)

#: Maximum key length accepted by memcached.
MAX_KEY_LENGTH = 250


@dataclass(slots=True, init=False)
class Item:
    """One stored key-value pair.

    Slotted to keep host memory per stored copy small: a full store
    holds one per copy.  The ``__init__`` is written out, with the
    fields' order and defaults, so that building an item costs one call:
    it draws the CAS id unless one is given, then checks the key, in the
    order a generated ``__init__`` and ``__post_init__`` did.
    """

    key: bytes
    value: bytes
    flags: int = 0
    expire_at: float = 0.0  # absolute logical time; 0 = never
    #: Drawn from the module's CAS counter unless given.
    cas: int
    stored_at: float = 0.0
    last_access: float = 0.0
    #: Store-assigned monotone sequence number; orders items against
    #: ``flush_all`` boundaries even within one logical-clock instant.
    seq: int = 0
    #: Slab class the store allocated this item into (-1 until stored).
    #: Cached so the GET path can skip the size→class lookup; the class
    #: is fixed for an item's lifetime because its size never changes.
    slab_class: int = -1

    def __init__(
        self,
        key: bytes,
        value: bytes,
        flags: int = 0,
        expire_at: float = 0.0,
        cas: int | None = None,
        stored_at: float = 0.0,
        last_access: float = 0.0,
        seq: int = 0,
        slab_class: int = -1,
    ) -> None:
        self.key = key
        self.value = value
        self.flags = flags
        self.expire_at = expire_at
        self.cas = next(_cas_counter) if cas is None else cas
        self.stored_at = stored_at
        self.last_access = last_access
        self.seq = seq
        self.slab_class = slab_class
        if not key:
            raise StorageError("item key cannot be empty")
        if len(key) > MAX_KEY_LENGTH:
            raise StorageError(
                f"key length {len(key)} exceeds memcached limit {MAX_KEY_LENGTH}"
            )
        if b" " in key or b"\r" in key or b"\n" in key:
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
