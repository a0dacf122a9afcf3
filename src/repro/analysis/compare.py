"""Paper-vs-measured headline comparison (the abstract's claims).

The abstract promises, relative to a state-of-the-art server running
optimised Memcached (the Bags baseline):

* Mercury: density 2.9x, power efficiency 4.9x, throughput 10x,
  throughput/GB 3.5x;
* Iridium: density 14x (14.8x in §6.6), power efficiency 2.4x,
  throughput 5.2x, at 2.8x *less* TPS/GB;
* vs TSSP: Mercury 3x and Iridium 1.5x the TPS/W.

:func:`headline_ratios` recomputes every ratio from the models and
:func:`compare_headlines` reports measured-vs-paper side by side, which
is what EXPERIMENTS.md and the integration tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baselines.commodity import MEMCACHED_BAGS
from repro.baselines.tssp import TSSP
from repro.core.calibration import DEFAULT_CALIBRATION, CalibrationConstants
from repro.core.metrics import OperatingPoint, evaluate_server
from repro.core.server import ServerDesign
from repro.core.stack import iridium_stack, mercury_stack

#: The paper's published headline ratios (vs Bags unless stated).
PAPER_HEADLINES: dict[str, float] = {
    "mercury_density_x": 2.9,
    "mercury_tps_per_watt_x": 4.9,
    "mercury_tps_x": 10.0,
    "mercury_tps_per_gb_x": 3.5,
    "iridium_density_x": 14.8,
    "iridium_tps_per_watt_x": 2.4,
    "iridium_tps_x": 5.2,
    "iridium_tps_per_gb_inverse_x": 2.8,
    "mercury_vs_tssp_tps_per_watt_x": 3.0,
    "iridium_vs_tssp_tps_per_watt_x": 1.5,
}


@dataclass(frozen=True)
class HeadlineComparison:
    """One headline metric: what the paper claims vs what we measure."""

    name: str
    paper: float
    measured: float

    @property
    def relative_error(self) -> float:
        return abs(self.measured - self.paper) / self.paper


def _ratios(
    calibration: CalibrationConstants, point: OperatingPoint
) -> dict[str, float]:
    """Every abstract headline, in :data:`PAPER_HEADLINES` order, with
    both 32-core stacks built under ``calibration``."""
    mercury = evaluate_server(
        ServerDesign(stack=replace(mercury_stack(32), calibration=calibration)),
        point,
    )
    iridium = evaluate_server(
        ServerDesign(stack=replace(iridium_stack(32), calibration=calibration)),
        point,
    )
    bags = MEMCACHED_BAGS
    return {
        "mercury_density_x": mercury.density_gb / bags.memory_gb,
        "mercury_tps_per_watt_x": mercury.tps_per_watt / bags.tps_per_watt,
        "mercury_tps_x": mercury.tps / bags.tps,
        "mercury_tps_per_gb_x": mercury.tps_per_gb / bags.tps_per_gb,
        "iridium_density_x": iridium.density_gb / bags.memory_gb,
        "iridium_tps_per_watt_x": iridium.tps_per_watt / bags.tps_per_watt,
        "iridium_tps_x": iridium.tps / bags.tps,
        "iridium_tps_per_gb_inverse_x": bags.tps_per_gb / iridium.tps_per_gb,
        "mercury_vs_tssp_tps_per_watt_x": mercury.tps_per_watt / TSSP.tps_per_watt,
        "iridium_vs_tssp_tps_per_watt_x": iridium.tps_per_watt / TSSP.tps_per_watt,
    }


def headline_ratios(point: OperatingPoint = OperatingPoint()) -> dict[str, float]:
    """Recompute every abstract headline from the models."""
    return _ratios(DEFAULT_CALIBRATION, point)


def compare_headlines(
    point: OperatingPoint = OperatingPoint(),
) -> list[HeadlineComparison]:
    """Measured-vs-paper rows for every headline, in a stable order."""
    measured = headline_ratios(point)
    return [
        HeadlineComparison(name=name, paper=paper, measured=measured[name])
        for name, paper in PAPER_HEADLINES.items()
    ]
