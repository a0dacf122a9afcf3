"""Slab allocator, after memcached's slabs.c.

Memory is carved into 1 MB slab pages; each page belongs to a *slab
class* with a fixed chunk size.  Chunk sizes grow geometrically (factor
1.25 by default) from a minimum, so any item lands in the smallest class
whose chunk fits it.  The allocator never returns memory to the OS — freed
chunks go on the class's free list — which is exactly why eviction (LRU)
rather than malloc pressure is Memcached's steady-state behaviour, and why
density math can treat the memory limit as fully committed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CapacityError, ConfigurationError
from repro.units import MB

DEFAULT_SLAB_PAGE_BYTES = 1 * MB
DEFAULT_MIN_CHUNK = 96
DEFAULT_GROWTH_FACTOR = 1.25


@dataclass
class SlabClass:
    """One size class: fixed chunk size, its pages, and its free list."""

    class_id: int
    chunk_size: int
    chunks_per_page: int
    pages: int = 0
    free_chunks: int = 0
    used_chunks: int = 0

    @property
    def total_chunks(self) -> int:
        return self.pages * self.chunks_per_page

    @property
    def bytes_allocated(self) -> int:
        return self.pages * self.chunks_per_page * self.chunk_size

    @property
    def bytes_used(self) -> int:
        return self.used_chunks * self.chunk_size


class SlabAllocator:
    """Fixed-budget slab allocator with geometric size classes."""

    def __init__(
        self,
        memory_limit_bytes: int,
        page_bytes: int = DEFAULT_SLAB_PAGE_BYTES,
        min_chunk: int = DEFAULT_MIN_CHUNK,
        growth_factor: float = DEFAULT_GROWTH_FACTOR,
    ):
        if memory_limit_bytes < page_bytes:
            raise ConfigurationError("memory limit must hold at least one slab page")
        if growth_factor <= 1.0:
            raise ConfigurationError("growth factor must exceed 1.0")
        if not 0 < min_chunk <= page_bytes:
            raise ConfigurationError("min chunk must be in (0, page_bytes]")
        self.memory_limit_bytes = memory_limit_bytes
        self.page_bytes = page_bytes
        self.classes: list[SlabClass] = []
        size = float(min_chunk)
        class_id = 1
        while size < page_bytes:
            chunk = self._align(int(size))
            if not self.classes or chunk > self.classes[-1].chunk_size:
                self.classes.append(
                    SlabClass(
                        class_id=class_id,
                        chunk_size=chunk,
                        chunks_per_page=page_bytes // chunk,
                    )
                )
                class_id += 1
            size *= growth_factor
        # Terminal class: one chunk per page (largest storable item).
        if self.classes[-1].chunk_size != page_bytes:
            self.classes.append(
                SlabClass(class_id=class_id, chunk_size=page_bytes, chunks_per_page=1)
            )
        self._pages_allocated = 0
        self._class_for_cache: dict[int, SlabClass] = {}

    @staticmethod
    def _align(size: int, alignment: int = 8) -> int:
        return (size + alignment - 1) // alignment * alignment

    # --- class selection ----------------------------------------------------------

    @property
    def max_item_bytes(self) -> int:
        """Largest item the allocator can hold (one full page)."""
        return self.page_bytes

    def class_for(self, item_bytes: int) -> SlabClass:
        """Smallest class whose chunk holds ``item_bytes``.

        Class geometry is fixed at construction, so the size→class scan
        is memoised — workloads draw from a handful of item sizes and
        this lookup sits on the GET/SET/unlink hot paths.

        Raises:
            CapacityError: if the item exceeds the page size (memcached's
                'object too large for cache' error).
        """
        cached = self._class_for_cache.get(item_bytes)
        if cached is not None:
            return cached
        if item_bytes <= 0:
            raise ConfigurationError("item size must be positive")
        for slab_class in self.classes:
            if slab_class.chunk_size >= item_bytes:
                if len(self._class_for_cache) < 4096:
                    self._class_for_cache[item_bytes] = slab_class
                return slab_class
        raise CapacityError(
            f"item of {item_bytes} bytes exceeds max storable size {self.page_bytes}"
        )

    # --- allocation --------------------------------------------------------------

    @property
    def pages_allocated(self) -> int:
        return self._pages_allocated

    @property
    def bytes_committed(self) -> int:
        return self._pages_allocated * self.page_bytes

    @property
    def pages_available(self) -> int:
        return self.memory_limit_bytes // self.page_bytes - self._pages_allocated

    def has_room(self, slab_class: SlabClass) -> bool:
        """Whether :meth:`allocate` into ``slab_class`` succeeds: the class
        has a free chunk, or the budget has a page left for it."""
        return slab_class.free_chunks > 0 or self.pages_available > 0

    def allocate(self, item_bytes: int) -> SlabClass:
        """Allocate a chunk for an item; returns the class it landed in.

        Grabs a fresh page for the class when its free list is empty and
        the global budget allows.

        Raises:
            CapacityError: when the budget is exhausted and the class has
                no free chunks (callers must evict and retry).
        """
        slab_class = self.class_for(item_bytes)
        if not self.has_room(slab_class):
            raise CapacityError(
                f"out of memory: class {slab_class.class_id} "
                f"(chunk {slab_class.chunk_size}) has no free chunks"
            )
        if slab_class.free_chunks == 0:
            slab_class.pages += 1
            slab_class.free_chunks += slab_class.chunks_per_page
            self._pages_allocated += 1
        slab_class.free_chunks -= 1
        slab_class.used_chunks += 1
        return slab_class

    def free(self, item_bytes: int) -> SlabClass:
        """Return an item's chunk to its class's free list."""
        slab_class = self.class_for(item_bytes)
        if slab_class.used_chunks <= 0:
            raise CapacityError(
                f"double free in class {slab_class.class_id}: no chunks in use"
            )
        slab_class.used_chunks -= 1
        slab_class.free_chunks += 1
        return slab_class

    # --- accounting ----------------------------------------------------------------

    def overhead_ratio(self) -> float:
        """Internal fragmentation: committed bytes / used bytes (>= 1)."""
        used = sum(c.bytes_used for c in self.classes)
        if used == 0:
            return 1.0
        return self.bytes_committed / used

    def stats(self) -> dict[int, dict[str, int]]:
        """Per-class counters, keyed by class id (like ``stats slabs``)."""
        return {
            c.class_id: {
                "chunk_size": c.chunk_size,
                "chunks_per_page": c.chunks_per_page,
                "total_pages": c.pages,
                "used_chunks": c.used_chunks,
                "free_chunks": c.free_chunks,
            }
            for c in self.classes
            if c.pages > 0
        }

    def check_invariants(self) -> None:
        """Verify conservation laws; used by property-based tests."""
        for c in self.classes:
            if c.used_chunks + c.free_chunks != c.total_chunks:
                raise CapacityError(
                    f"class {c.class_id}: used {c.used_chunks} + free {c.free_chunks}"
                    f" != total {c.total_chunks}"
                )
            if c.used_chunks < 0 or c.free_chunks < 0:
                raise CapacityError(f"class {c.class_id}: negative chunk counts")
        if sum(c.pages for c in self.classes) != self._pages_allocated:
            raise CapacityError("page count mismatch across classes")
        if self.bytes_committed > self.memory_limit_bytes:
            raise CapacityError("committed bytes exceed the memory limit")
