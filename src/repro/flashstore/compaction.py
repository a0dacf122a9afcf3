"""The tier manager: composition, conversion, and merge-compaction.

:class:`TieredFlashStore` owns one live :class:`LogStore`, a short list
of immutable :class:`HashStore` instances (newest first), and at most
one :class:`SortedStore`.  PUTs append to the log; when a segment seals
it is *converted* into a hash store, and when enough hash stores pile
up they are *merge-compacted* (together with the previous sorted run)
into a fresh sorted store.

Tier moves happen functionally at the moment they are triggered — that
keeps the store deterministic under a seed — while their flash cost is
returned as :class:`BackgroundWork` items for the DES to charge as
background busy time (``background_busy_seconds{task=conversion|
compaction}``), exactly the way replication charges hint replay.

All amplification accounting is byte-honest: write amplification is
flash bytes programmed (log appends + conversion + compaction rewrites)
per host byte written, read amplification is flash pages read on the
GET path per hit, false-positive reads included.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.codec import Serialisable
from repro.errors import ConfigurationError
from repro.flashstore.hashstore import HashStore
from repro.flashstore.logstore import LogStore
from repro.flashstore.sortedstore import SortedStore
from repro.memory.flash import FlashDevice

@dataclass(frozen=True)
class TieredStoreConfig(Serialisable):
    """The tiered store's knobs, serialisable for the experiment cache.

    ``log_segment_pages`` sizes the write tier (seal + conversion
    cadence); ``max_hash_stores`` bounds the intermediary tier before a
    merge-compaction folds everything into the sorted run;
    ``fingerprint_bits``/``sorted_fingerprint_bits`` trade index memory
    against false-positive reads; ``expected_item_bytes`` only sizes
    the log's index capacity (never affects outcomes, just memory
    accounting).
    """

    log_segment_pages: int = 256
    max_hash_stores: int = 4
    fingerprint_bits: int = 12
    sorted_fingerprint_bits: int = 8
    expected_item_bytes: int = 184

    def __post_init__(self) -> None:
        if self.log_segment_pages < 1:
            raise ConfigurationError("log_segment_pages must be positive")
        if self.max_hash_stores < 1:
            raise ConfigurationError("max_hash_stores must be positive")
        for name in ("fingerprint_bits", "sorted_fingerprint_bits"):
            if not 4 <= getattr(self, name) <= 32:
                raise ConfigurationError(f"{name} must be in [4, 32]")
        if self.expected_item_bytes < 1:
            raise ConfigurationError("expected_item_bytes must be positive")


@dataclass(frozen=True)
class BackgroundWork:
    """One deferred flash job (conversion or compaction) for the DES."""

    kind: str  # "conversion" | "compaction"
    service_s: float
    pages_read: int
    pages_written: int


class TierOpCost(NamedTuple):
    """What one GET/PUT cost the tiered store (an immutable tuple).

    ``service_s`` is the foreground flash time (the latency model folds
    it into the request's memcached component); ``probes`` lists the
    per-tier flash intervals for the causal tracer; ``background``
    carries conversion/compaction jobs the op triggered.
    """

    service_s: float
    found: bool
    tier: str  # "log" | "hash" | "sorted" | "none"
    pages_read: int = 0
    false_positive_reads: int = 0
    probes: tuple = ()  # (tier name, seconds) pairs, in probe order
    background: tuple = ()  # BackgroundWork items


@dataclass
class TieredStoreStats:
    """Raw op/traffic counters (amplifications derive from these)."""

    host_puts: int = 0
    host_bytes_written: int = 0
    gets: int = 0
    get_hits: int = 0
    get_pages_read: int = 0
    false_positive_reads: int = 0
    pages_programmed: dict[str, int] = field(
        default_factory=lambda: {"log": 0, "conversion": 0, "compaction": 0}
    )
    pages_read_background: int = 0
    conversions: int = 0
    compactions: int = 0
    hits_by_tier: dict[str, int] = field(
        default_factory=lambda: {"log": 0, "hash": 0, "sorted": 0}
    )


class TieredFlashStore:
    """Log → hash → sorted tiers over one flash device (one per core)."""

    def __init__(
        self,
        device: FlashDevice,
        config: TieredStoreConfig | None = None,
        seed: int = 0,
        label: str = "core0",
        registry: Any = None,
    ):
        self.device = device
        self.config = config or TieredStoreConfig()
        self.seed = seed
        self.label = label
        self._log_seq = 0
        self._sorted_seq = 0
        self.log = self._new_log()
        self.hash_stores: list[HashStore] = []  # newest first
        self.sorted_store: SortedStore | None = None
        self.stats = TieredStoreStats()
        #: While False (warmup), registry counters are left untouched so
        #: the measured run's telemetry starts clean; internal stats are
        #: wiped separately via :meth:`reset_stats`.
        self.metered = False
        self._counters = None
        if registry is not None:
            self._counters = {
                "programmed": {
                    cause: registry.counter(
                        "flashstore_pages_programmed_total", {"tier": cause}
                    )
                    for cause in ("log", "conversion", "compaction")
                },
                "read": {
                    tier: registry.counter(
                        "flashstore_pages_read_total", {"tier": tier}
                    )
                    for tier in ("log", "hash", "sorted")
                },
                "appends": registry.counter("flashstore_appends_total"),
                "conversions": registry.counter("flashstore_conversions_total"),
                "compactions": registry.counter("flashstore_compactions_total"),
                "false_positives": registry.counter(
                    "flashstore_filter_false_positives_total"
                ),
            }

    def _new_log(self) -> LogStore:
        self._log_seq += 1
        return LogStore(
            self.device,
            segment_pages=self.config.log_segment_pages,
            fingerprint_bits=self.config.fingerprint_bits,
            expected_item_bytes=self.config.expected_item_bytes,
            seed=self.seed,
            label=f"{self.label}-log{self._log_seq}",
        )

    # --- the op path --------------------------------------------------------

    def put(self, key: bytes, item_bytes: int) -> TierOpCost:
        """Append one item; may trigger conversion and compaction.

        The foreground charge is the amortised share of a page program
        (``item_bytes / page_bytes`` of one program), which is exactly
        the sequential-append advantage over the page-per-item FTL path.
        """
        programmed = self.log.append(key, item_bytes)
        self.stats.host_puts += 1
        self.stats.host_bytes_written += item_bytes
        self.stats.pages_programmed["log"] += programmed
        if self.metered and self._counters is not None:
            self._counters["appends"].inc()
            if programmed:
                self._counters["programmed"]["log"].inc(programmed)
        service = (
            item_bytes / self.device.page_bytes
        ) * self.device.program_time()
        background: list[BackgroundWork] = []
        if self.log.is_full:
            background.append(self._convert())
            if len(self.hash_stores) > self.config.max_hash_stores:
                background.append(self._compact())
        return TierOpCost(
            service_s=service,
            found=True,
            tier="log",
            probes=(("log", service),),
            background=tuple(background),
        )

    def get(self, key: bytes) -> TierOpCost:
        """Probe log, then hash stores newest-first, then the sorted run."""
        tiers: list[tuple[str, Any]] = [("log", self.log)]
        tiers.extend(("hash", store) for store in self.hash_stores)
        if self.sorted_store is not None:
            tiers.append(("sorted", self.sorted_store))
        self.stats.gets += 1
        service = 0.0
        probes: list[tuple[str, float]] = []
        pages_total = 0
        fp_total = 0
        for tier_name, store in tiers:
            found, pages, fps = store.get(key)
            if pages:
                seconds = pages * self.device.read_time()
                service += seconds
                probes.append((tier_name, seconds))
                pages_total += pages
                fp_total += fps
                self.stats.get_pages_read += pages
                self.stats.false_positive_reads += fps
                if self.metered and self._counters is not None:
                    self._counters["read"][tier_name].inc(pages)
                    if fps:
                        self._counters["false_positives"].inc(fps)
            if found:
                self.stats.get_hits += 1
                self.stats.hits_by_tier[tier_name] += 1
                return TierOpCost(
                    service_s=service,
                    found=True,
                    tier=tier_name,
                    pages_read=pages_total,
                    false_positive_reads=fp_total,
                    probes=tuple(probes),
                )
        return TierOpCost(
            service_s=service,
            found=False,
            tier="none",
            pages_read=pages_total,
            false_positive_reads=fp_total,
            probes=tuple(probes),
        )

    def __contains__(self, key: bytes) -> bool:
        if key in self.log:
            return True
        if any(key in store for store in self.hash_stores):
            return True
        return self.sorted_store is not None and key in self.sorted_store

    # --- tier moves ---------------------------------------------------------

    def _convert(self) -> BackgroundWork:
        """Seal the log and hash-organise its live entries."""
        live = self.log.live_entries()
        reads = self.log.pages_written
        writes = 0
        if live:
            store = HashStore(
                live,
                self.device,
                fingerprint_bits=self.config.fingerprint_bits,
                seed=self.seed,
                label=f"{self.label}-hash{self._log_seq}",
            )
            self.hash_stores.insert(0, store)
            writes = store.pages
        self.log = self._new_log()
        self.stats.conversions += 1
        self.stats.pages_read_background += reads
        self.stats.pages_programmed["conversion"] += writes
        if self.metered and self._counters is not None:
            self._counters["conversions"].inc()
            if writes:
                self._counters["programmed"]["conversion"].inc(writes)
        service = reads * self.device.read_time() + writes * self.device.program_time()
        return BackgroundWork("conversion", service, reads, writes)

    def _compact(self) -> BackgroundWork:
        """Fold every hash store and the sorted run into a new run."""
        merged: dict[bytes, int] = (
            self.sorted_store.entries() if self.sorted_store else {}
        )
        reads = self.sorted_store.pages if self.sorted_store else 0
        for store in reversed(self.hash_stores):  # oldest first: newest wins
            merged.update(store.entries())
            reads += store.pages
        self._sorted_seq += 1
        new = SortedStore(
            merged,
            self.device,
            fingerprint_bits=self.config.sorted_fingerprint_bits,
            seed=self.seed,
            label=f"{self.label}-sorted{self._sorted_seq}",
        )
        self.hash_stores = []
        self.sorted_store = new
        writes = new.pages
        self.stats.compactions += 1
        self.stats.pages_read_background += reads
        self.stats.pages_programmed["compaction"] += writes
        if self.metered and self._counters is not None:
            self._counters["compactions"].inc()
            self._counters["programmed"]["compaction"].inc(writes)
        service = reads * self.device.read_time() + writes * self.device.program_time()
        return BackgroundWork("compaction", service, reads, writes)

    # --- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        """Crash semantics: in-memory indexes are gone, so every tier's
        data is unreachable — the store restarts empty (mirrors
        ``KVStore.flush_all`` on a crashed core)."""
        self.log = self._new_log()
        self.hash_stores = []
        self.sorted_store = None

    def reset_stats(self) -> None:
        """Zero the traffic counters (called after warmup)."""
        self.stats = TieredStoreStats()

    # --- accounting ---------------------------------------------------------

    @property
    def live_entries(self) -> int:
        total = len(self.log) + sum(len(s) for s in self.hash_stores)
        if self.sorted_store is not None:
            total += len(self.sorted_store)
        return total

    @property
    def index_bytes(self) -> float:
        total = self.log.index_bytes
        total += sum(s.index_bytes for s in self.hash_stores)
        if self.sorted_store is not None:
            total += self.sorted_store.index_bytes
        return total

    @property
    def write_amplification(self) -> float:
        """Flash bytes programmed per host byte written (0.0 pre-write)."""
        if self.stats.host_bytes_written == 0:
            return 0.0
        programmed = sum(self.stats.pages_programmed.values())
        return (
            programmed * self.device.page_bytes / self.stats.host_bytes_written
        )

    @property
    def read_amplification(self) -> float:
        """Flash pages read on the GET path per hit, FPs included."""
        if self.stats.get_hits == 0:
            return 0.0
        return self.stats.get_pages_read / self.stats.get_hits

    @property
    def index_bytes_per_key(self) -> float:
        entries = self.live_entries
        return self.index_bytes / entries if entries else 0.0

    def tier_summary(self) -> dict:
        """Per-tier occupancy/memory snapshot (JSON-safe)."""
        log_entries = len(self.log)
        hash_entries = sum(len(s) for s in self.hash_stores)
        sorted_entries = (
            len(self.sorted_store) if self.sorted_store is not None else 0
        )
        hash_index = sum(s.index_bytes for s in self.hash_stores)
        sorted_index = (
            self.sorted_store.index_bytes
            if self.sorted_store is not None
            else 0.0
        )
        return {
            "log": {
                "entries": log_entries,
                "index_bytes": self.log.index_bytes,
                "pages": self.log.pages_written,
                "index_bytes_per_key": (
                    self.log.index_bytes / log_entries if log_entries else 0.0
                ),
            },
            "hash": {
                "entries": hash_entries,
                "stores": len(self.hash_stores),
                "index_bytes": hash_index,
                "pages": sum(s.pages for s in self.hash_stores),
                "index_bytes_per_key": (
                    hash_index / hash_entries if hash_entries else 0.0
                ),
            },
            "sorted": {
                "entries": sorted_entries,
                "index_bytes": sorted_index,
                "pages": (
                    self.sorted_store.pages
                    if self.sorted_store is not None
                    else 0
                ),
                "index_bytes_per_key": (
                    sorted_index / sorted_entries if sorted_entries else 0.0
                ),
            },
        }


#: The ISSUE's name for the scheduling role :class:`TieredFlashStore`
#: plays (kept as an alias so either reads naturally at call sites).
TierManager = TieredFlashStore


def aggregate_tiered_results(stores: list[TieredFlashStore]) -> dict:
    """Fold per-core tiered stores into one JSON-safe results payload."""
    if not stores:
        raise ConfigurationError("no tiered stores to aggregate")
    host_bytes = sum(s.stats.host_bytes_written for s in stores)
    programmed = {
        cause: sum(s.stats.pages_programmed[cause] for s in stores)
        for cause in ("log", "conversion", "compaction")
    }
    page_bytes = stores[0].device.page_bytes
    gets = sum(s.stats.gets for s in stores)
    hits = sum(s.stats.get_hits for s in stores)
    pages_read = sum(s.stats.get_pages_read for s in stores)
    fp_reads = sum(s.stats.false_positive_reads for s in stores)
    entries = sum(s.live_entries for s in stores)
    index_bytes = sum(s.index_bytes for s in stores)
    return {
        "write_amplification": (
            sum(programmed.values()) * page_bytes / host_bytes
            if host_bytes
            else 0.0
        ),
        "read_amplification": pages_read / hits if hits else 0.0,
        "index_bytes_per_key": index_bytes / entries if entries else 0.0,
        "false_positive_rate": fp_reads / gets if gets else 0.0,
        "host_puts": sum(s.stats.host_puts for s in stores),
        "host_bytes_written": host_bytes,
        "gets": gets,
        "get_hits": hits,
        "get_pages_read": pages_read,
        "false_positive_reads": fp_reads,
        "pages_programmed": programmed,
        "pages_read_background": sum(
            s.stats.pages_read_background for s in stores
        ),
        "conversions": sum(s.stats.conversions for s in stores),
        "compactions": sum(s.stats.compactions for s in stores),
        "hits_by_tier": {
            tier: sum(s.stats.hits_by_tier[tier] for s in stores)
            for tier in ("log", "hash", "sorted")
        },
        "live_entries": entries,
        "index_bytes": index_bytes,
    }


def baseline_ftl_replay(
    put_keys,
    item_bytes: int,
    device,
    overprovision: float = 0.07,
) -> dict:
    """Byte-level write amplification of the page-per-item baseline.

    Replays the tiered store's PUT key stream into the calibrated
    page-mapped :class:`~repro.memory.ftl.FlashTranslationLayer`, where
    every item occupies (at least) one whole flash page — the data path
    Iridium's latency model is calibrated against.  Returns the replay
    counters plus ``write_amplification`` measured in *bytes programmed
    per host byte written*, the same units the tiered store reports, so
    the two are directly comparable.
    """
    from repro.memory.ftl import FlashTranslationLayer

    if item_bytes <= 0:
        raise ConfigurationError("item_bytes must be positive")
    ftl = FlashTranslationLayer(device, overprovision=overprovision)
    puts = 0
    for key in put_keys:
        digest = hashlib.blake2b(key, digest_size=8).digest()
        ftl.write(int.from_bytes(digest, "big") % ftl.logical_pages)
        puts += 1
    pages_programmed = ftl.stats.host_writes + ftl.stats.gc_page_moves
    host_bytes = puts * item_bytes
    return {
        "puts": puts,
        "pages_programmed": pages_programmed,
        "gc_page_moves": ftl.stats.gc_page_moves,
        "erases": ftl.stats.erases,
        "page_write_amplification": ftl.stats.write_amplification,
        "write_amplification": (
            pages_programmed * device.page_bytes / host_bytes
            if host_bytes
            else 0.0
        ),
    }
