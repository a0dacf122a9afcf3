"""Baseline systems Table 4 compares against."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.baselines.commodity": (
        "CommodityServer",
        "MEMCACHED_14",
        "MEMCACHED_16",
        "MEMCACHED_BAGS",
        "COMMODITY_BASELINES",
    ),
    "repro.baselines.tssp": ("TsspAccelerator", "TSSP"),
    "repro.baselines.tilepro": ("TileProServer", "TILEPRO64"),
    "repro.baselines.fawn": ("FawnCluster", "FAWN_KV"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
