"""CPU cost model for the kernel TCP/IP stack.

Lim et al. (ISCA 2013) — the TSSP paper this work builds on — showed that
Memcached spends the overwhelming majority of its time in the network
stack, and Fig. 4 of this paper confirms ~87 % of a small GET is
network-stack time.  This module charges that cost in instructions:

* a fixed per-transaction cost (socket syscalls, epoll wakeup, TCP state
  on both receive and transmit paths for the first packet each way),
* a marginal cost per additional packet (driver, IP/TCP header processing,
  ACK handling),
* a per-byte cost (checksum + one kernel<->user copy each direction).

Instruction counts are calibration quantities (see core/calibration.py);
the defaults reproduce the paper's anchor points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.network.packets import RequestWire


@dataclass(frozen=True)
class TcpCostModel:
    """Instruction costs of driving the kernel network stack."""

    per_transaction_instructions: float = 26_000.0
    per_packet_instructions: float = 3_050.0
    per_byte_instructions: float = 1.75

    def __post_init__(self) -> None:
        if (
            self.per_transaction_instructions < 0
            or self.per_packet_instructions < 0
            or self.per_byte_instructions < 0
        ):
            raise ConfigurationError("instruction costs cannot be negative")

    def instructions_for(self, wire: RequestWire) -> float:
        """Total network-stack instructions for one transaction."""
        return (
            self.per_transaction_instructions
            + self.per_packet_instructions * wire.total_packets
            + self.per_byte_instructions * wire.total_payload
        )

    def instructions_for_packets(self, packets: int, payload_bytes: int) -> float:
        """Cost of an arbitrary packet burst (used by the DES)."""
        if packets < 0 or payload_bytes < 0:
            raise ConfigurationError("counts cannot be negative")
        return (
            self.per_packet_instructions * packets
            + self.per_byte_instructions * payload_bytes
        )


DEFAULT_TCP_COSTS = TcpCostModel()
