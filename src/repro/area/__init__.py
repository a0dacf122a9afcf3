"""Area and floorplan modelling for the 1.5U enclosure."""

from repro._lazy import lazy_exports

_EXPORTS = {"repro.area.floorplan": ("Floorplan", "DEFAULT_FLOORPLAN")}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
