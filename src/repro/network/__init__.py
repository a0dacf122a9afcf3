"""Network substrate: framing/segmentation, TCP cost model, NIC MAC/PHY."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.network.packets": (
        "EthernetParams",
        "ETHERNET_10GBE",
        "segments_for_payload",
        "wire_bytes_for_payload",
        "wire_time",
        "request_wire_payloads",
    ),
    "repro.network.tcp": ("TcpCostModel", "DEFAULT_TCP_COSTS"),
    "repro.network.nic": ("NicMac", "NicPhy", "NIAGARA2_MAC", "BROADCOM_PHY"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
