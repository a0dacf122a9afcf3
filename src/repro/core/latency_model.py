"""The request round-trip-time model — this library's stand-in for gem5.

The paper's methodology (§5.2-5.3): measure the RTT of one request on one
core in full-system simulation, take TPS = 1/RTT, and scale linearly.
This model computes that RTT analytically as

    RTT = instruction work / effective IPS        (hash + memcached + TCP/IP)
        + memory stalls                           (ifetch + data accesses)
        + wire serialisation                      (10GbE both directions)

matching the paper's worst-case memory assumption: every access pays the
closed-page (DRAM) or array-read (flash) latency — which is exactly why
Iridium's large-value GETs are so slow, and why its PUTs (200 us programs,
amplified by GC) fall under 1 KTPS.

Component attribution follows Fig. 4's definitions:
* *hash*      — key hash computation;
* *memcached* — metadata processing (lookup/bookkeeping instructions plus
  their fixed data accesses);
* *network*   — TCP/IP instructions, instruction-fetch stalls (kernel
  code), value/data transfer stalls, and wire time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.calibration import DEFAULT_CALIBRATION, CalibrationConstants
from repro.cpu.cache import estimate_miss_rate
from repro.cpu.core_model import CoreModel
from repro.errors import ConfigurationError
from repro.kvstore.items import ITEM_OVERHEAD_BYTES
from repro.network.nic import BROADCOM_PHY, NicPhy
from repro.network.packets import ETHERNET_10GBE, request_wire_payloads, wire_bytes_for_payload
from repro.units import NS, US

#: Cap on each model's per-shape timing memos.  A run sees a handful of
#: (verb, size) shapes; past the cap, misses are computed but not stored.
TIMING_MEMO_MAX = 4096


@dataclass(frozen=True)
class MemorySpec:
    """The memory a stack's cores see.

    ``kind`` is "dram" or "flash".  ``read_latency_s`` is the per-access
    latency (closed-page DRAM access, or flash array read as seen by the
    controller).  ``write_latency_s`` matters only for flash (programs);
    DRAM writes cost the same as reads.
    """

    kind: str
    read_latency_s: float
    write_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("dram", "flash"):
            raise ConfigurationError(f"unknown memory kind {self.kind!r}")
        if self.read_latency_s <= 0:
            raise ConfigurationError("read latency must be positive")
        if self.kind == "flash" and self.write_latency_s <= 0:
            raise ConfigurationError("flash needs a positive write latency")

    @property
    def is_flash(self) -> bool:
        return self.kind == "flash"


def dram_spec(latency_s: float = 10 * NS) -> MemorySpec:
    """A Mercury-style DRAM spec at the given access latency."""
    return MemorySpec(kind="dram", read_latency_s=latency_s, write_latency_s=latency_s)


def flash_spec(read_latency_s: float = 10 * US, write_latency_s: float = 200 * US) -> MemorySpec:
    """An Iridium-style flash spec (defaults: 10 us reads, 200 us writes)."""
    return MemorySpec(
        kind="flash", read_latency_s=read_latency_s, write_latency_s=write_latency_s
    )


@dataclass(frozen=True)
class RequestTiming:
    """RTT decomposition for one request (all seconds)."""

    verb: str
    value_bytes: int
    hash_s: float
    memcached_s: float
    network_s: float

    @property
    def total_s(self) -> float:
        return self.hash_s + self.memcached_s + self.network_s

    @property
    def tps(self) -> float:
        """Single-threaded transactions/second: the inverse RTT (§5.3)."""
        return 1.0 / self.total_s

    def fractions(self) -> dict[str, float]:
        """Fig. 4's stacked-bar fractions."""
        total = self.total_s
        return {
            "hash": self.hash_s / total,
            "memcached": self.memcached_s / total,
            "network": self.network_s / total,
        }


class LatencyModel:
    """Per-request RTT model for one core of a stack."""

    def __init__(
        self,
        core: CoreModel,
        memory: MemorySpec,
        has_l2: bool = True,
        calibration: CalibrationConstants = DEFAULT_CALIBRATION,
        phy: NicPhy = BROADCOM_PHY,
        l2_bytes: int = 2 * 1024 * 1024,
    ):
        if l2_bytes <= 0:
            raise ConfigurationError("L2 size must be positive")
        self.core = core
        self.memory = memory
        self.has_l2 = has_l2
        self.cal = calibration
        self.phy = phy
        self.l2_bytes = l2_bytes
        # Per-shape memos.  Every input above is frozen and never
        # reassigned, so an answer cannot go stale.
        self._timings: dict[tuple, RequestTiming] = {}
        self._tiered_parts: dict[tuple, tuple[RequestTiming, float, float]] = {}

    # --- stall helpers -------------------------------------------------------

    def _ifetch_misses(self) -> float:
        """Instruction-fetch misses per request beyond the last cache.

        With an L2, misses interpolate between the warm-L2 floor and the
        no-L2 count by the footprint model: an L2 smaller than the
        instruction working set leaks fetches in proportion to the
        shortfall (the knob the L2-sizing ablation sweeps).
        """
        cal = self.cal
        if not self.has_l2:
            return cal.ifetch_misses_without_l2
        leak = estimate_miss_rate(self.l2_bytes, cal.instruction_footprint_bytes)
        if self.memory.is_flash:
            # §4.2.1: Iridium's L2 is sized to hold the *entire*
            # instruction footprint because flash cannot absorb fetches;
            # an undersized L2 leaks fetches straight to flash.
            return cal.ifetch_misses_without_l2 * leak
        return cal.ifetch_misses_with_l2 + (
            cal.ifetch_misses_without_l2 - cal.ifetch_misses_with_l2
        ) * leak

    def _ifetch_stall(self) -> float:
        """Instruction-fetch miss stalls beyond the last cache level."""
        misses = self._ifetch_misses()
        if misses == 0.0:
            return 0.0
        mlp = min(self.core.memory_level_parallelism, self.cal.ifetch_mlp_cap)
        if self.memory.is_flash:
            mlp = self.cal.flash_mlp
        return misses * self.memory.read_latency_s / mlp

    def _value_lines(self, value_bytes: int, key_bytes: int) -> int:
        """Memory lines an item's data occupies (header + key + value)."""
        item_bytes = ITEM_OVERHEAD_BYTES + key_bytes + value_bytes
        return math.ceil(item_bytes / self.cal.line_bytes)

    def _data_stall(self, verb: str, value_bytes: int, key_bytes: int) -> tuple[float, float]:
        """(fixed metadata stall, value-transfer stall) for the data side."""
        cal = self.cal
        lines = self._value_lines(value_bytes, key_bytes)
        if self.memory.is_flash:
            if verb == "GET":
                fixed_time = cal.flash_reads_get * self.memory.read_latency_s
                value_time = lines * self.memory.read_latency_s
            else:
                # Metadata reads plus log-append writes; GC relocations
                # amplify every program by the steady-state factor.
                fixed_time = (
                    cal.flash_reads_put * self.memory.read_latency_s
                    + cal.flash_writes_put
                    * cal.flash_write_amplification
                    * self.memory.write_latency_s
                )
                value_time = (
                    lines
                    * self.memory.write_latency_s
                    * cal.flash_write_amplification
                )
            return fixed_time / cal.flash_mlp, value_time / cal.flash_mlp
        mlp = self.core.memory_level_parallelism
        fixed = cal.data_accesses_get if verb == "GET" else cal.data_accesses_put
        latency = (
            self.memory.read_latency_s if verb == "GET" else self.memory.write_latency_s
        )
        return fixed * latency / mlp, lines * latency / mlp

    # --- the model -------------------------------------------------------------

    def request_timing(
        self,
        verb: str,
        value_bytes: int,
        key_bytes: int | None = None,
        transport: str = "tcp",
    ) -> RequestTiming:
        """RTT decomposition for one GET or PUT of a ``value_bytes`` value.

        ``transport="udp"`` (GETs only) models the production trick of
        serving reads over UDP, replacing the kernel TCP cost with the
        much thinner UDP path — the software-only ablation of the
        network-stack bottleneck.

        Answers are memoised per argument tuple; an invalid call raises
        every time and is never stored.
        """
        memo_key = (verb, value_bytes, key_bytes, transport)
        timing = self._timings.get(memo_key)
        if timing is not None:
            return timing
        verb = verb.upper()
        if verb not in ("GET", "PUT"):
            raise ConfigurationError(f"unknown verb {verb!r}; expected GET or PUT")
        if value_bytes < 0:
            raise ConfigurationError("value size cannot be negative")
        if transport not in ("tcp", "udp"):
            raise ConfigurationError(f"unknown transport {transport!r}")
        if transport == "udp" and verb != "GET":
            raise ConfigurationError("UDP transport models GETs only")
        cal = self.cal
        keylen = cal.default_key_bytes if key_bytes is None else key_bytes

        wire = request_wire_payloads(verb, value_bytes, key_bytes=keylen)
        if transport == "udp":
            from repro.network.udp import udp_get_instructions

            net_instructions = udp_get_instructions(value_bytes, key_bytes=keylen)
        else:
            net_instructions = cal.tcp.instructions_for(wire)
        if verb == "GET":
            mc_instructions = cal.memcached_get_instructions
        else:
            mc_instructions = (
                cal.memcached_put_instructions
                + cal.memcached_put_per_byte_instructions * value_bytes
            )
        hash_instructions = cal.hash_instructions(keylen)

        fixed_stall, value_stall = self._data_stall(verb, value_bytes, keylen)
        wire_time_s = (
            self.phy.wire_time(wire_bytes_for_payload(wire.request_payload))
            + self.phy.wire_time(wire_bytes_for_payload(wire.response_payload))
        )

        hash_s = self.core.compute_time(hash_instructions)
        memcached_s = self.core.compute_time(mc_instructions) + fixed_stall
        network_s = (
            self.core.compute_time(net_instructions)
            + self._ifetch_stall()
            + value_stall
            + wire_time_s
        )
        timing = RequestTiming(
            verb=verb,
            value_bytes=value_bytes,
            hash_s=hash_s,
            memcached_s=memcached_s,
            network_s=network_s,
        )
        if len(self._timings) < TIMING_MEMO_MAX:
            self._timings[memo_key] = timing
        return timing

    def tps(self, verb: str, value_bytes: int) -> float:
        """Single-core TPS at one operating point."""
        return self.request_timing(verb, value_bytes).tps

    def request_timing_tiered(
        self,
        verb: str,
        value_bytes: int,
        flash_service_s: float,
        key_bytes: int | None = None,
    ) -> RequestTiming:
        """RTT with the calibrated flash-stall charges replaced by a
        *measured* flash service time from the tiered store.

        The baseline flash path charges ``_data_stall``'s worst-case
        constants (metadata reads + GC-amplified page programs per op).
        A tiered-store op instead knows exactly what flash work it did —
        an amortised share of one sequential page program for a PUT, the
        actual candidate-page reads for a GET — so this subtracts the
        calibrated stalls (the fixed metadata stall from ``memcached``,
        the value-transfer stall from ``network``) and folds
        ``flash_service_s`` into the memcached component, where the
        paper's Fig. 4 attributes data-access time.  Instruction work,
        instruction-fetch stalls, and wire time are untouched.
        """
        if not self.memory.is_flash:
            raise ConfigurationError(
                "tiered-store timing only applies to flash stacks"
            )
        if flash_service_s < 0:
            raise ConfigurationError("flash service time cannot be negative")
        memo_key = (verb, value_bytes, key_bytes)
        parts = self._tiered_parts.get(memo_key)
        if parts is None:
            base = self.request_timing(verb, value_bytes, key_bytes=key_bytes)
            keylen = self.cal.default_key_bytes if key_bytes is None else key_bytes
            fixed_stall, value_stall = self._data_stall(base.verb, value_bytes, keylen)
            parts = (
                base,
                base.memcached_s - fixed_stall,
                base.network_s - value_stall,
            )
            if len(self._tiered_parts) < TIMING_MEMO_MAX:
                self._tiered_parts[memo_key] = parts
        base, memcached_less_stall, network_less_stall = parts
        return RequestTiming(
            verb=base.verb,
            value_bytes=base.value_bytes,
            hash_s=base.hash_s,
            memcached_s=memcached_less_stall + flash_service_s,
            network_s=network_less_stall,
        )

    def multiget_timing(
        self, keys: int, value_bytes: int, key_bytes: int | None = None
    ) -> RequestTiming:
        """RTT of a batched GET of ``keys`` keys (one ``get k1 k2 ...``).

        Production clients batch GETs to amortise the per-transaction
        network cost (Facebook's multiget).  One round trip carries all
        the keys out and all the values back; per-key work (hash, lookup,
        value access, per-byte copies) is unchanged, and extra packets
        appear only as the batched payloads grow.
        """
        if keys < 1:
            raise ConfigurationError("a multiget needs at least one key")
        cal = self.cal
        keylen = cal.default_key_bytes if key_bytes is None else key_bytes

        # Wire accounting: one request line with n keys, one response
        # with n VALUE blocks.
        request_payload = 8 + keys * (keylen + 1)
        response_payload = keys * (32 + keylen + value_bytes)
        from repro.network.packets import (
            segments_for_payload,
            wire_bytes_for_payload,
            RequestWire,
        )

        request_segments = segments_for_payload(request_payload)
        response_segments = segments_for_payload(response_payload)
        wire = RequestWire(
            request_payload=request_payload,
            response_payload=response_payload,
            request_segments=request_segments,
            response_segments=response_segments,
            ack_packets=max(1, max(request_segments, response_segments) // 2),
        )
        net_instructions = cal.tcp.instructions_for(wire)
        mc_instructions = keys * cal.memcached_get_instructions
        hash_instructions = keys * cal.hash_instructions(keylen)
        fixed_stall, value_stall = self._data_stall("GET", value_bytes, keylen)
        wire_time_s = self.phy.wire_time(
            wire_bytes_for_payload(request_payload)
        ) + self.phy.wire_time(wire_bytes_for_payload(response_payload))

        return RequestTiming(
            verb="GET",
            value_bytes=value_bytes,
            hash_s=self.core.compute_time(hash_instructions),
            memcached_s=self.core.compute_time(mc_instructions) + keys * fixed_stall,
            network_s=(
                self.core.compute_time(net_instructions)
                + self._ifetch_stall()
                + keys * value_stall
                + wire_time_s
            ),
        )

    def multiget_per_key_tps(self, keys: int, value_bytes: int) -> float:
        """Keys served per second when GETs are batched ``keys`` at a time."""
        return keys / self.multiget_timing(keys, value_bytes).total_s

    def batch_timing(self, ops, key_bytes: int | None = None) -> RequestTiming:
        """RTT of one mixed-verb batch; ``ops`` is ``[(verb, value_bytes)]``.

        The cost model behind the batched request path: per-batch charges
        (TCP exchange over the combined payloads, instruction-fetch
        stall, wire time) are paid once, while per-op charges (key hash,
        memcached lookup/bookkeeping instructions, fixed metadata and
        value-transfer stalls) are paid per op — which is exactly why a
        small-value GET, dominated by the per-batch network cost
        (Fig. 4), speeds up nearly linearly with batch size while a
        large-value Iridium PUT barely moves.  A one-op batch reduces to
        :meth:`request_timing` shape (modulo ack rounding).
        """
        ops = [(verb.upper(), value_bytes) for verb, value_bytes in ops]
        if not ops:
            raise ConfigurationError("a batch needs at least one op")
        for verb, value_bytes in ops:
            if verb not in ("GET", "PUT"):
                raise ConfigurationError(
                    f"unknown verb {verb!r}; expected GET or PUT"
                )
            if value_bytes < 0:
                raise ConfigurationError("value size cannot be negative")
        cal = self.cal
        keylen = cal.default_key_bytes if key_bytes is None else key_bytes

        # Wire accounting: one exchange carrying every op out and every
        # result back (GETs sized as hits — the conservative payload).
        request_payload = 8
        response_payload = 0
        for verb, value_bytes in ops:
            if verb == "GET":
                request_payload += keylen + 1
                response_payload += 32 + keylen + value_bytes
            else:
                request_payload += 32 + keylen + value_bytes
                response_payload += 8
        from repro.network.packets import (
            RequestWire,
            segments_for_payload,
            wire_bytes_for_payload,
        )

        request_segments = segments_for_payload(request_payload)
        response_segments = segments_for_payload(response_payload)
        wire = RequestWire(
            request_payload=request_payload,
            response_payload=response_payload,
            request_segments=request_segments,
            response_segments=response_segments,
            ack_packets=max(1, max(request_segments, response_segments) // 2),
        )
        net_instructions = cal.tcp.instructions_for(wire)
        wire_time_s = self.phy.wire_time(
            wire_bytes_for_payload(request_payload)
        ) + self.phy.wire_time(wire_bytes_for_payload(response_payload))

        hash_instructions = 0.0
        mc_instructions = 0.0
        fixed_stall_s = 0.0
        value_stall_s = 0.0
        total_value_bytes = 0
        for verb, value_bytes in ops:
            total_value_bytes += value_bytes
            hash_instructions += cal.hash_instructions(keylen)
            if verb == "GET":
                mc_instructions += cal.memcached_get_instructions
            else:
                mc_instructions += (
                    cal.memcached_put_instructions
                    + cal.memcached_put_per_byte_instructions * value_bytes
                )
            fixed, value = self._data_stall(verb, value_bytes, keylen)
            fixed_stall_s += fixed
            value_stall_s += value

        return RequestTiming(
            verb="BATCH",
            value_bytes=total_value_bytes,
            hash_s=self.core.compute_time(hash_instructions),
            memcached_s=self.core.compute_time(mc_instructions) + fixed_stall_s,
            network_s=(
                self.core.compute_time(net_instructions)
                + self._ifetch_stall()
                + value_stall_s
                + wire_time_s
            ),
        )

    def memory_bandwidth(self, verb: str, value_bytes: int) -> float:
        """Memory bytes/second one core moves at this operating point.

        Each request moves the item once out of (GET) or into (PUT) memory
        and once across the NIC DMA path — the 2x the paper's Table 3
        bandwidth column reflects.
        """
        timing = self.request_timing(verb, value_bytes)
        keylen = self.cal.default_key_bytes
        item_bytes = ITEM_OVERHEAD_BYTES + keylen + value_bytes
        return 2.0 * item_bytes * timing.tps

    def max_memory_bandwidth(self, verb: str, sizes: tuple[int, ...]) -> float:
        """Peak per-core memory bandwidth across a request-size sweep."""
        if not sizes:
            raise ConfigurationError("sweep cannot be empty")
        return max(self.memory_bandwidth(verb, size) for size in sizes)
