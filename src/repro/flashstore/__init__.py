"""SILT-style tiered log-structured flash store (log → hash → sorted).

The paper's Iridium design point serves GETs competitively but PUTs
crawl (<1 KTPS): every store pays a full page program amplified by FTL
garbage collection.  SILT's architecture (SNIPPETS.md snippet 3) fixes
the write path with a tier hierarchy:

* :class:`~repro.flashstore.logstore.LogStore` — an append-only write
  tier that turns PUTs into sequential byte appends, programming a page
  only when the write pointer crosses a page boundary;
* :class:`~repro.flashstore.hashstore.HashStore` — an immutable
  intermediary tier built by converting a sealed log segment into a
  hash-organised page layout (dead versions dropped);
* :class:`~repro.flashstore.sortedstore.SortedStore` — the
  memory-efficient bulk tier produced by merge-compacting hash stores
  into one sorted run with a sparse per-page index;
* :class:`~repro.flashstore.filters.CuckooFilter` — the partial-key
  in-memory index in front of every tier: no false negatives, a
  measured false-positive rate, and a GET that probes at most one
  flash page per tier (usually exactly one overall).

:class:`~repro.flashstore.compaction.TieredFlashStore` composes the
tiers and schedules log→hash conversion and hash→sorted merges as
background work, with per-tier read/write-amplification and
index-bytes-per-key accounting.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.flashstore.compaction": (
        "BackgroundWork",
        "TierOpCost",
        "TieredFlashStore",
        "TieredStoreConfig",
        "TieredStoreStats",
    ),
    "repro.flashstore.filters": ("CuckooFilter",),
    "repro.flashstore.hashstore": ("HashStore",),
    "repro.flashstore.logstore": ("LogStore",),
    "repro.flashstore.sortedstore": ("SortedStore",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
