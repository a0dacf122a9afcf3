"""NIC models: the on-stack MAC and the off-stack PHY.

Section 4.1.4: there is no server-level router; each physical 10GbE port
is tied directly to one 3D stack.  The on-stack MAC (modelled on the
integrated Niagara-2 NIC) buffers a packet and forwards it to the correct
core — cores on one stack run Memcached on distinct TCP ports, so routing
is a port-number match.  The PHY is a separate Broadcom-style chip on the
board, two PHYs per 441 mm^2 package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CapacityError, ConfigurationError
from repro.network.packets import ETHERNET_10GBE, EthernetParams
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY
from repro.units import KB, US


@dataclass(frozen=True)
class NicPhy:
    """An off-stack 10GbE PHY (one port)."""

    name: str = "Broadcom-10GbE-PHY"
    power_w: float = 0.300
    area_mm2: float = 220.0
    ports_per_chip: int = 2
    ethernet: EthernetParams = ETHERNET_10GBE

    @property
    def chip_area_mm2(self) -> float:
        """Area of the packaged dual-PHY chip."""
        return self.area_mm2 * self.ports_per_chip

    def wire_time(self, wire_bytes: int) -> float:
        """Serialisation delay for ``wire_bytes`` at the line rate."""
        if wire_bytes < 0:
            raise ConfigurationError("byte count cannot be negative")
        return wire_bytes / self.ethernet.line_rate_bytes_s

    @property
    def energy_j_per_byte(self) -> float:
        """Incremental serialisation energy per wire byte: the rated PHY
        power held for the byte's serialisation time at line rate."""
        return self.power_w / self.ethernet.line_rate_bytes_s


class NicMac:
    """The on-stack MAC: packet buffers plus routing to cores.

    The power/area constants feed the stack-level models.  The
    functional part (bind/enqueue/dequeue) is a stand-alone model of
    the MAC's port routing and buffer; the full-system DES does not
    call it, and applies its own per-core queue bound and injected link
    loss in ``RequestPipeline.lost``.
    """

    def __init__(
        self,
        name: str = "Niagara2-MAC",
        power_w: float = 0.120,
        area_mm2: float = 0.43,
        buffer_bytes: int = 256 * KB,
        forward_latency_s: float = 1 * US,
        registry: MetricsRegistry = NULL_REGISTRY,
    ):
        if buffer_bytes <= 0:
            raise ConfigurationError("buffer must be positive")
        if forward_latency_s < 0:
            raise ConfigurationError("forward latency cannot be negative")
        self.name = name
        self.power_w = power_w
        self.area_mm2 = area_mm2
        self.buffer_bytes = buffer_bytes
        self.forward_latency_s = forward_latency_s
        self._buffered_bytes = 0
        self._queues: dict[int, list[tuple[int, int]]] = {}
        self._port_to_core: dict[int, int] = {}
        self.drops = 0
        self.forwarded = 0
        self._drops_total = registry.counter("nic_mac_drops_total")
        self._forwarded_total = registry.counter("nic_mac_forwarded_total")
        self._buffered_gauge = registry.gauge("nic_mac_buffered_bytes")

    # --- routing table -----------------------------------------------------

    def bind(self, tcp_port: int, core_id: int) -> None:
        """Register a core's Memcached listening port."""
        if tcp_port in self._port_to_core:
            raise ConfigurationError(f"TCP port {tcp_port} already bound")
        self._port_to_core[tcp_port] = core_id
        self._queues.setdefault(core_id, [])

    def core_for_port(self, tcp_port: int) -> int:
        try:
            return self._port_to_core[tcp_port]
        except KeyError:
            raise ConfigurationError(f"no core bound to TCP port {tcp_port}") from None

    # --- datapath -------------------------------------------------------------

    @property
    def buffered_bytes(self) -> int:
        return self._buffered_bytes

    def enqueue(self, tcp_port: int, packet_bytes: int, trace=None) -> bool:
        """Buffer an arriving packet for its core; False (+drop) if full.

        ``trace`` (a :class:`~repro.telemetry.tracing.RequestTrace`)
        gets the drop reason annotated as ``nic_drop`` so a lost
        request's trace says *where* it died, not just that it did.
        """
        if packet_bytes <= 0:
            raise ConfigurationError("packet size must be positive")
        core = self.core_for_port(tcp_port)
        if self._buffered_bytes + packet_bytes > self.buffer_bytes:
            self.drops += 1
            self._drops_total.inc()
            if trace is not None:
                trace.annotate(nic_drop="buffer_full")
            return False
        self._buffered_bytes += packet_bytes
        self._buffered_gauge.set(self._buffered_bytes)
        self._queues[core].append((tcp_port, packet_bytes))
        return True

    def dequeue(self, core_id: int) -> tuple[int, int] | None:
        """Pop the next buffered packet for a core (FIFO), if any."""
        queue = self._queues.get(core_id)
        if not queue:
            return None
        tcp_port, size = queue.pop(0)
        self._buffered_bytes -= size
        self._buffered_gauge.set(self._buffered_bytes)
        self.forwarded += 1
        self._forwarded_total.inc()
        return tcp_port, size

    def queue_depth(self, core_id: int) -> int:
        return len(self._queues.get(core_id, []))


NIAGARA2_MAC = NicMac()
BROADCOM_PHY = NicPhy()
